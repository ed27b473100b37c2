#include "sync/sync_agent.hpp"

#include "check/checker.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/thread_attach.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   kLockRequest   : u32 lock | u32 origin | u8 mode | bytes protocol payload
//                    mode: 0 = forward-chain fresh, 1 = forward-chain
//                          forwarded, 2 = read, 3 = write (home-managed; a
//                          centralized mutex is a write)
//   kLockGrant     : u32 lock | bytes protocol payload
//   kLockRelease   : u32 lock | u8 mode | bytes protocol payload
//                    mode: 2 = read, 3 = write (home-managed modes only)
//   kBarrierArrive : u32 barrier | u8 phase | bytes protocol payload
//   kBarrierRelease: u32 barrier | u8 phase | bytes protocol payload

constexpr std::uint8_t kModeFresh = 0;
constexpr std::uint8_t kModeForwarded = 1;
constexpr std::uint8_t kModeRead = 2;
constexpr std::uint8_t kModeWrite = 3;

struct LockReq {
  LockId lock;
  NodeId origin;
  std::uint8_t mode;
  std::span<const std::byte> payload;
};

LockReq parse_lock_request(const Message& msg) {
  WireReader r(msg.payload);
  LockReq req;
  req.lock = r.get<LockId>();
  req.origin = r.get<NodeId>();
  req.mode = r.get<std::uint8_t>();
  req.payload = r.get_bytes();
  DSM_CHECK(r.done());
  return req;
}

DsmChecker::LockMode check_mode(std::uint8_t mode) {
  return mode == kModeRead ? DsmChecker::LockMode::kRead : DsmChecker::LockMode::kWrite;
}

}  // namespace

SyncAgent::SyncAgent(NodeContext& ctx, Protocol& protocol)
    : ctx_(ctx),
      protocol_(protocol),
      home_(ctx.cfg->n_locks),
      local_(ctx.cfg->n_locks),
      barrier_gen_(ctx.cfg->n_barriers, 0),
      barrier_entered_(ctx.cfg->n_barriers, 0),
      barrier_busy_(ctx.cfg->n_barriers, false),
      barrier_arrived_(ctx.cfg->n_barriers),
      barrier_acked_(ctx.cfg->n_barriers) {
  // Forward-chain: the token (and the chain tail) starts at each lock's home.
  for (LockId l = 0; l < ctx_.cfg->n_locks; ++l) {
    home_[l].tail = ctx_.lock_home(l);
    if (ctx_.lock_home(l) == ctx_.id) local_[l].have_token = true;
  }
}

bool SyncAgent::handles(MsgType type) {
  switch (type) {
    case MsgType::kLockRequest:
    case MsgType::kLockGrant:
    case MsgType::kLockRelease:
    case MsgType::kBarrierArrive:
    case MsgType::kBarrierRelease: return true;
    default: return false;
  }
}

ThreadId SyncAgent::self_tid() const {
  const ThreadAttachment* att = current_attachment();
  return att != nullptr && att->node == ctx_.id ? att->tid : 0;
}

void SyncAgent::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kLockRequest: handle_lock_request(msg); return;
    case MsgType::kLockGrant: handle_lock_grant(msg); return;
    case MsgType::kLockRelease: handle_lock_release(msg); return;
    case MsgType::kBarrierArrive: handle_barrier_arrive(msg); return;
    case MsgType::kBarrierRelease: handle_barrier_release(msg); return;
    default: DSM_CHECK_MSG(false, "sync: unexpected message " << to_string(msg.type));
  }
}

// --------------------------------------------------------------------------
// Locks: application-thread side
// --------------------------------------------------------------------------

std::uint8_t SyncAgent::mutex_mode() const {
  return ctx_.cfg->lock_policy == LockPolicy::kForwardChain ? kModeFresh : kModeWrite;
}

void SyncAgent::acquire(LockId lock) {
  ctx_.stats->counter("sync.lock_acquires").add();
  acquire_as(lock, mutex_mode(), "lock-acquire");
}

void SyncAgent::release(LockId lock) {
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, "lock-release",
                        ctx_.clock, "lock", lock);
  release_as(lock, mutex_mode());
}

void SyncAgent::acquire_read(LockId lock) {
  ctx_.stats->counter("sync.rw_read_acquires").add();
  acquire_as(lock, kModeRead, "rw-acquire-read");
}

void SyncAgent::release_read(LockId lock) { release_as(lock, kModeRead); }

void SyncAgent::acquire_write(LockId lock) {
  ctx_.stats->counter("sync.rw_write_acquires").add();
  acquire_as(lock, kModeWrite, "rw-acquire-write");
}

void SyncAgent::release_write(LockId lock) { release_as(lock, kModeWrite); }

void SyncAgent::acquire_as(LockId lock, std::uint8_t mode, const char* span_name) {
  DSM_CHECK_MSG(lock < local_.size(), "lock id " << lock << " out of range");
  {
    RelockableMutexLock guard(mutex_);
    auto& L = local_[lock];
    DSM_CHECK_MSG(!(L.busy && L.owner_ktid == current_ktid()),
                  "recursive acquire of lock " << lock);
    // Another app thread of this node is between acquire and release: wait
    // for it — the request/grant plumbing carries one transaction per
    // (node, lock) at a time.
    while (L.busy) cv_.wait(mutex_);
    L.busy = true;
    L.owner_ktid = current_ktid();
    if (mode == kModeFresh && L.have_token) {
      // Lock caching: we were the last holder and nobody asked since.
      DSM_CHECK(!L.successor.has_value());
      L.held = mode;
      ctx_.stats->counter("sync.local_acquires").add();
      if (ctx_.check != nullptr) {
        ctx_.check->on_lock_acquired(ctx_.id, self_tid(), lock, check_mode(mode));
      }
      return;
    }
  }

  const VirtualTime t0 = ctx_.clock->now();
  // Slow path only: cached re-acquires above never wait, so the span set
  // measures genuine handoff latency (bench_locks reads these).
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, span_name, ctx_.clock,
                        "lock", lock);
  WireWriter req(32);
  protocol_.fill_lock_request(lock, req);
  WireWriter w(req.size() + 16);
  w.put(lock);
  w.put(ctx_.id);
  w.put(mode);
  w.put_bytes(std::move(req).take());
  ctx_.send(MsgType::kLockRequest, ctx_.lock_home(lock), std::move(w).take());

  RelockableMutexLock guard(mutex_);
  auto& L = local_[lock];
  while (!L.granted) cv_.wait(mutex_);
  L.granted = false;
  if (mode == kModeFresh) L.have_token = true;
  L.held = mode;
  if (ctx_.check != nullptr) {
    ctx_.check->on_lock_acquired(ctx_.id, self_tid(), lock, check_mode(mode));
  }
  ctx_.stats->histogram("sync.lock_wait_ns").record(ctx_.clock->now() - t0);
}

void SyncAgent::release_as(LockId lock, std::uint8_t mode) {
  DSM_CHECK_MSG(lock < local_.size(), "lock id " << lock << " out of range");
  // Consistency actions must complete before anyone else can hold the lock.
  // (A reader may have written *other* data; flushing it keeps a read
  // release a proper release for the consistency protocol too.)
  protocol_.before_release(lock);
  // Hook after the consistency flush but before any grant can be sent: the
  // checker's release edge must precede the next acquirer's acquire edge.
  if (ctx_.check != nullptr) {
    ctx_.check->on_lock_released(ctx_.id, self_tid(), lock, check_mode(mode));
  }
  std::optional<Message> successor;
  {
    const MutexLock guard(mutex_);
    auto& L = local_[lock];
    DSM_CHECK_MSG(L.held == mode, "release of lock " << lock
                                      << (mode == kModeRead ? " not read-held" : " not held"));
    L.held.reset();
    if (L.successor.has_value()) {
      successor = std::move(L.successor);
      L.successor.reset();
      L.have_token = false;
    }
    // else (forward-chain): keep the token; a later request will be
    // forwarded to us.
  }
  if (mode != kModeFresh) {
    // Home-managed: hand the grant (and the release payload) back to the home.
    WireWriter payload(64);
    protocol_.fill_lock_grant(lock, kNoNode, {}, payload);
    WireWriter w(payload.size() + 16);
    w.put(lock);
    w.put(mode);
    w.put_bytes(std::move(payload).take());
    ctx_.send(MsgType::kLockRelease, ctx_.lock_home(lock), std::move(w).take());
  } else if (successor.has_value()) {
    const auto req = parse_lock_request(*successor);
    send_grant(lock, req.origin, req.payload);
  }
  // Open the gate only once the release is on the wire: the link is FIFO, so
  // the home never sees a sibling's request from this node ahead of the
  // release it follows (the home keeps one hold per node).
  {
    const MutexLock guard(mutex_);
    auto& L = local_[lock];
    L.busy = false;
    L.owner_ktid = 0;
  }
  cv_.notify_all();
}

// --------------------------------------------------------------------------
// Locks: service-thread side
// --------------------------------------------------------------------------

void SyncAgent::handle_lock_request(const Message& msg) {
  const auto req = parse_lock_request(msg);

  // FT: a request from an already-dead worker (its kPeerDown overtook the
  // request) must not be granted — the grant would be dead-dropped and the
  // token would be lost with no second regeneration coming.
  if (ctx_.cfg->ft.enabled && !ctx_.net->liveness().worker_live(req.origin)) return;

  if (req.mode == kModeFresh) {
    DSM_CHECK(ctx_.lock_home(req.lock) == ctx_.id);
    route_to_tail(req.lock, req.origin, req.payload);
    return;
  }
  if (req.mode == kModeForwarded) {
    // Holder side: we are (or are about to become) the previous holder.
    bool grant_now = false;
    {
      const MutexLock guard(mutex_);
      auto& L = local_[req.lock];
      if (L.have_token && !L.held.has_value()) {
        L.have_token = false;
        grant_now = true;
      } else {
        DSM_CHECK_MSG(!L.successor.has_value(),
                      "two successors for lock " << req.lock << " at node " << ctx_.id);
        L.successor = msg;
      }
    }
    if (grant_now) send_grant(req.lock, req.origin, req.payload);
    return;
  }

  // Home-managed (read, write, centralized mutex): queue, then admit.
  DSM_CHECK(ctx_.lock_home(req.lock) == ctx_.id);
  std::vector<NodeId> grants;
  {
    const MutexLock guard(mutex_);
    auto& H = home_[req.lock];
    (req.mode == kModeWrite ? H.write_queue : H.read_queue).push_back(req.origin);
    grants = admit(H);
  }
  // Nothing else was admissible before this request, so an empty admission
  // means the request itself waits.
  if (grants.empty()) ctx_.stats->counter("sync.lock_queued").add();
  send_home_grants(req.lock, grants);
}

std::vector<NodeId> SyncAgent::admit(HomeLock& H) {
  std::vector<NodeId> grants;
  if (H.writer != kNoNode) return grants;
  if (!H.write_queue.empty()) {
    if (!H.readers.empty()) return grants;  // writer waits for readers to drain
    H.writer = H.write_queue.front();
    H.write_queue.pop_front();
    grants.push_back(H.writer);
    return grants;
  }
  for (const NodeId reader : H.read_queue) {
    H.readers.insert(reader);
    grants.push_back(reader);
  }
  H.read_queue.clear();
  return grants;
}

void SyncAgent::send_home_grants(LockId lock, const std::vector<NodeId>& to) {
  if (to.empty()) return;
  std::vector<std::byte> stored;
  {
    const MutexLock guard(mutex_);
    stored = home_[lock].release_payload;
  }
  for (const NodeId origin : to) {
    WireWriter w(stored.size() + 8);
    w.put(lock);
    w.put_bytes(stored);
    ctx_.send(MsgType::kLockGrant, origin, std::move(w).take());
  }
}

void SyncAgent::route_to_tail(LockId lock, NodeId origin, std::span<const std::byte> payload) {
  NodeId previous_tail;
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    previous_tail = H.tail;
    H.tail = origin;
  }
  DSM_CHECK_MSG(previous_tail != origin,
                "lock " << lock << ": chain tail re-requesting without token");
  // Re-encode with the forwarded flag set; the protocol payload rides along.
  WireWriter w(payload.size() + 16);
  w.put(lock);
  w.put(origin);
  w.put(kModeForwarded);
  w.put_bytes(payload);
  ctx_.send(MsgType::kLockRequest, previous_tail, std::move(w).take());
}

void SyncAgent::send_grant(LockId lock, NodeId origin,
                           std::span<const std::byte> request_payload) {
  WireWriter payload(64);
  protocol_.fill_lock_grant(lock, origin, request_payload, payload);
  WireWriter w(payload.size() + 8);
  w.put(lock);
  w.put_bytes(std::move(payload).take());
  ctx_.send(MsgType::kLockGrant, origin, std::move(w).take());
}

void SyncAgent::handle_lock_grant(const Message& msg) {
  WireReader r(msg.payload);
  const auto lock = r.get<LockId>();
  auto payload = r.get_bytes();
  WireReader payload_reader(payload);
  protocol_.on_lock_granted(lock, payload_reader);
  {
    const MutexLock guard(mutex_);
    local_[lock].granted = true;
  }
  cv_.notify_all();
}

void SyncAgent::handle_lock_release(const Message& msg) {
  WireReader r(msg.payload);
  const auto lock = r.get<LockId>();
  const auto mode = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();
  DSM_CHECK(ctx_.lock_home(lock) == ctx_.id);
  DSM_CHECK(mode == kModeRead || mode == kModeWrite);

  std::vector<NodeId> grants;
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    const bool holds = mode == kModeWrite ? H.writer == msg.src : H.readers.contains(msg.src);
    // FT: the holder died and its kPeerDown overtook this release in our
    // mailbox — its grant was already regenerated, so the release is stale.
    if (!holds && ctx_.cfg->ft.enabled) return;
    DSM_CHECK(holds);
    // Knowledge dumps only grow between GCs, so the latest release payload
    // (reader or writer) always covers every prior one.
    H.release_payload.assign(payload.begin(), payload.end());
    if (mode == kModeWrite) {
      H.writer = kNoNode;
    } else {
      H.readers.erase(msg.src);
    }
    grants = admit(H);
  }
  send_home_grants(lock, grants);
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void SyncAgent::barrier(BarrierId barrier) {
  DSM_CHECK_MSG(barrier < barrier_gen_.size(), "barrier id " << barrier << " out of range");
  ctx_.stats->counter("sync.barriers").add();
  const VirtualTime t0 = ctx_.clock->now();
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, "barrier-wait",
                        ctx_.clock, "barrier", barrier);

  // Multi-threaded nodes: one app thread per node in the rendezvous at a
  // time (see barrier_busy_).
  {
    RelockableMutexLock gate(mutex_);
    while (barrier_busy_[barrier]) cv_.wait(mutex_);
    barrier_busy_[barrier] = true;
  }

  protocol_.before_barrier(barrier);
  WireWriter payload(64);
  protocol_.fill_barrier_arrive(barrier, payload);
  WireWriter w(payload.size() + 8);
  w.put(barrier);
  w.put(std::uint8_t{0});  // phase 0: arrive
  w.put_bytes(std::move(payload).take());

  std::uint64_t target;
  {
    const MutexLock guard(mutex_);
    target = ++barrier_entered_[barrier];
  }
  // Arrive hook strictly before the arrive message: the home releases only
  // after all N arrivals, so every arrive hook precedes every depart hook
  // for this round — the checker's accumulator is complete by departure.
  if (ctx_.check != nullptr) {
    ctx_.check->on_barrier_arrive(ctx_.id, self_tid(), barrier);
  }
  ctx_.send(MsgType::kBarrierArrive, ctx_.barrier_home(barrier), std::move(w).take());

  {
    RelockableMutexLock guard(mutex_);
    while (barrier_gen_[barrier] < target) cv_.wait(mutex_);
    if (ctx_.check != nullptr) {
      ctx_.check->on_barrier_depart(ctx_.id, self_tid(), barrier);
    }
    barrier_busy_[barrier] = false;
  }
  cv_.notify_all();
  ctx_.stats->histogram("sync.barrier_wait_ns").record(ctx_.clock->now() - t0);
}

void SyncAgent::handle_barrier_arrive(const Message& msg) {
  WireReader r(msg.payload);
  const auto barrier = r.get<BarrierId>();
  const auto phase = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();
  DSM_CHECK(ctx_.barrier_home(barrier) == ctx_.id);

  if (phase == 1) {
    // Settlement ack (two-phase barrier): everyone applied the release.
    const MutexLock guard(mutex_);
    barrier_acked_[barrier].insert(msg.src);
  } else {
    WireReader payload_reader(payload);
    protocol_.on_barrier_collect(barrier, msg.src, payload_reader);
    const MutexLock guard(mutex_);
    barrier_arrived_[barrier].insert(msg.src);
  }
  maybe_complete_barrier(barrier);
}

void SyncAgent::maybe_complete_barrier(BarrierId barrier) {
  // A round completes when every *live* worker has arrived (or acked, for
  // the settlement phase). Without faults the live worker set is all N
  // nodes, so this degenerates to the classic full-count rendezvous. The
  // empty-set guard keeps an idle round (nothing arrived yet) from
  // completing spuriously when a death shrinks the target.
  const auto& live = ctx_.net->liveness();
  const auto covers = [&](const std::set<NodeId>& arrived) {
    if (arrived.empty()) return false;
    for (std::size_t n = 0; n < ctx_.n_nodes; ++n) {
      const auto node = static_cast<NodeId>(n);
      if (live.worker_live(node) && arrived.count(node) == 0) return false;
    }
    return true;
  };
  bool arrive_complete = false;
  bool ack_complete = false;
  {
    const MutexLock guard(mutex_);
    if (covers(barrier_arrived_[barrier])) {
      barrier_arrived_[barrier].clear();
      arrive_complete = true;
    }
    if (covers(barrier_acked_[barrier])) {
      barrier_acked_[barrier].clear();
      ack_complete = true;
    }
  }
  if (arrive_complete) {
    WireWriter release(64);
    protocol_.fill_barrier_release(barrier, release);
    broadcast_barrier_release(barrier, 0, std::move(release).take());
  }
  if (ack_complete) broadcast_barrier_release(barrier, 1, {});
}

void SyncAgent::broadcast_barrier_release(BarrierId barrier, std::uint8_t phase,
                                          std::vector<std::byte> payload) {
  WireWriter w(payload.size() + 16);
  w.put(barrier);
  w.put(phase);
  w.put_bytes(payload);
  const Message prototype =
      ctx_.make(MsgType::kBarrierRelease, kNoNode, std::move(w).take());
  std::vector<NodeId> everyone(ctx_.n_nodes);
  for (std::size_t n = 0; n < ctx_.n_nodes; ++n) everyone[n] = static_cast<NodeId>(n);
  ctx_.net->multicast(everyone, prototype);
}

void SyncAgent::handle_barrier_release(const Message& msg) {
  WireReader r(msg.payload);
  const auto barrier = r.get<BarrierId>();
  const auto phase = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();

  if (phase == 0) {
    WireReader payload_reader(payload);
    protocol_.on_barrier_release(barrier, payload_reader);
    if (protocol_.barrier_needs_settlement()) {
      // Two-phase: ack, and only resume on the phase-1 broadcast, so no
      // node can observe a peer that has not yet applied the release.
      WireWriter w(16);
      w.put(barrier);
      w.put(std::uint8_t{1});
      w.put_bytes({});
      ctx_.send(MsgType::kBarrierArrive, ctx_.barrier_home(barrier), std::move(w).take());
      return;
    }
  }
  {
    const MutexLock guard(mutex_);
    ++barrier_gen_[barrier];
  }
  cv_.notify_all();
}

// --------------------------------------------------------------------------
// Crash fault tolerance
// --------------------------------------------------------------------------

void SyncAgent::on_peer_down(NodeId peer) {
  // Lock state lives at each lock's home (node 0 under FT, which is never a
  // kill victim), so only the home acts here. Re-running after a duplicate
  // death announcement is safe: the holder fields were already cleared.
  for (LockId l = 0; l < ctx_.cfg->n_locks; ++l) {
    if (ctx_.lock_home(l) != ctx_.id) continue;
    std::vector<NodeId> grants;
    {
      const MutexLock guard(mutex_);
      auto& H = home_[l];
      std::erase(H.read_queue, peer);
      std::erase(H.write_queue, peer);
      const bool was_writer = H.writer == peer;
      if (was_writer) H.writer = kNoNode;
      if (was_writer || H.readers.erase(peer) > 0) {
        // The holder died inside its critical section: mint a replacement
        // grant, exactly once (the checker audits the exactly-once part).
        ctx_.stats->counter("ft.token_regens").add();
        if (ctx_.check != nullptr) ctx_.check->on_token_regenerated(l, peer);
      }
      grants = admit(H);
    }
    send_home_grants(l, grants);
  }
  // A dead worker shrinks the rendezvous: a round it never arrived at may
  // now be complete with the arrivals already collected.
  for (BarrierId b = 0; b < ctx_.cfg->n_barriers; ++b) {
    if (ctx_.barrier_home(b) == ctx_.id) maybe_complete_barrier(b);
  }
}

void SyncAgent::on_peer_up(NodeId /*peer*/) {
  // A restarted node rejoins the memory fabric only; its worker never
  // re-enters the computation, so lock and barrier state are unaffected.
}

void SyncAgent::on_self_restart() {
  const MutexLock guard(mutex_);
  // Home-side state matters only at node 0, which never restarts under FT.
  for (auto& L : local_) L = LocalLock{};
}

}  // namespace dsm
