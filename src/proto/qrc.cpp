#include "proto/qrc.hpp"

#include <algorithm>

#include "check/checker.hpp"
#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   kReplRead        : u32 page | u32 requester
//   kReplReadReply   : u32 page | u64 tag | bytes page data
//   kReplWrite       : u32 page | u32 writer | bytes value-diff field
//   kReplWriteAck    : u32 page
//   kReplSync        : u32 page | u8 kind (0 = backup, 1 = keeper) | u64 tag | bytes diff
//   kReplSyncAck     : u32 page | u8 kind
//   kReplRecover     : u32 page | u32 requester
//   kReplRecoverReply: u32 page | u64 tag | bytes page data
//   kInvalidate      : u32 page | u32 unused          (shared with ERC)
//   kInvalidateAck   : u32 page | u8 kept             (shared with ERC)

constexpr std::uint8_t kToBackup = 0;
constexpr std::uint8_t kToKeeper = 1;

/// `u32 page | heads... | bytes field`: every QRC message carrying data.
template <class... Heads>
std::vector<std::byte> data_msg(PageId page, std::span<const std::byte> field,
                                const Heads&... heads) {
  WireWriter w(field.size() + 24);
  w.put(page);
  (w.put(heads), ...);
  w.put_bytes(field);
  return std::move(w).take();
}

}  // namespace

QrcProtocol::QrcProtocol(NodeContext& ctx) : Protocol(ctx), twins_(ctx) {}

std::size_t QrcProtocol::repl() const {
  const std::size_t r = ctx_.cfg->ft.replication;
  return std::clamp<std::size_t>(r, 1, ctx_.n_nodes);
}

std::vector<NodeId> QrcProtocol::group_of(PageId page) const {
  const NodeId home = ctx_.home_of(page);
  std::vector<NodeId> grp;
  grp.reserve(repl());
  for (std::size_t i = 0; i < repl(); ++i) {
    grp.push_back(static_cast<NodeId>((home + i) % ctx_.n_nodes));
  }
  return grp;
}

bool QrcProtocol::in_group(PageId page, NodeId node) const {
  const auto grp = group_of(page);
  return std::find(grp.begin(), grp.end(), node) != grp.end();
}

NodeId QrcProtocol::primary_of(PageId page) const {
  const auto grp = group_of(page);
  for (const NodeId n : grp) {
    if (ctx_.net->liveness().alive(n)) return n;
  }
  // Every member dead: more failures than the group tolerates. Aim at the
  // home; the send dead-drops and the workload wedges into the watchdog.
  return grp.front();
}

std::vector<NodeId> QrcProtocol::live_members(PageId page, bool exclude_self) const {
  std::vector<NodeId> out;
  for (const NodeId n : group_of(page)) {
    if (exclude_self && n == ctx_.id) continue;
    if (ctx_.net->liveness().alive(n)) out.push_back(n);
  }
  return out;
}

void QrcProtocol::init_pages() {
  // Every node starts as a client with no copy: even group members read
  // through the primary, so the client view and the replica store never
  // alias each other.
  page_io::reset_pages(ctx_, PageState::kInvalid, PageState::kInvalid);
  store_.clear();
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    if (in_group(p, ctx_.id)) {
      store_[p] = Replica{0, std::vector<std::byte>(ctx_.cfg->page_size)};
    }
  }
  txns_.clear();
  parked_.clear();
  copyset_.clear();
  recovering_.clear();
  parked_syncs_.clear();
  dead_handled_.clear();
  twins_.clear();
  unacked_.clear();
  flush_acks_.reset();
  const MutexLock lock(client_mutex_);
  fetching_.clear();
}

void QrcProtocol::send_fetch(PageId page) {
  // Register before sending: the reply (which retires the registration)
  // cannot overtake the request.
  const NodeId target = primary_of(page);
  {
    const MutexLock lock(client_mutex_);
    fetching_[page] = target;
  }
  ctx_.send(MsgType::kReplRead, target, page_io::encode_req(page, ctx_.id));
}

void QrcProtocol::on_read_fault(PageId page) {
  run_fault(
      ctx_, page, PageState::kReadOnly, /*timed=*/true, [](PageEntry&) { return false; },
      [&] { send_fetch(page); });
}

void QrcProtocol::on_write_fault(PageId page) {
  // ERC's multiple-writer trick, unchanged: write locally behind a twin,
  // settle with the primary at the next release.
  twins_.write_fault(page, [&] { send_fetch(page); });
}

void QrcProtocol::flush_dirty() {
  // Drop each copy outright (ERC keeps it read-only). A copy served by a
  // since-failed primary may miss invalidations from its successor;
  // re-fetching after every release closes that staleness window.
  twins_.flush(flush_acks_, PageState::kInvalid, [&](PageId page, const TwinSet::Closed& closed) {
    ctx_.stats->counter("qrc.diff_bytes").add(closed.diff.size());
    // Always the value form: a failover may re-send this flush to a new
    // primary whose base already includes it — the value form re-applies
    // idempotently, the XOR form would un-apply it.
    const auto field = page_io::pack_diff_field(ctx_, closed.diff);
    const NodeId target = primary_of(page);
    unacked_.add(page, {target, 0, field});
    return ctx_.make(MsgType::kReplWrite, target, data_msg(page, field, ctx_.id));
  });
  flush_acks_.wait();
}

void QrcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kReplRead: handle_read(msg); return;
    case MsgType::kReplReadReply: handle_read_reply(msg); return;
    case MsgType::kReplWrite: handle_write(msg); return;
    case MsgType::kReplWriteAck: handle_write_ack(msg); return;
    case MsgType::kReplSync: handle_sync(msg); return;
    case MsgType::kReplSyncAck: handle_sync_ack(msg); return;
    case MsgType::kInvalidate: twins_.serve_invalidate(msg); return;
    case MsgType::kInvalidateAck: handle_invalidate_ack(msg); return;
    case MsgType::kReplRecover: handle_recover(msg); return;
    case MsgType::kReplRecoverReply: handle_recover_reply(msg); return;
    default:
      DSM_CHECK_MSG(false, "qrc: unexpected message " << to_string(msg.type));
  }
}

bool QrcProtocol::at_primary(const Message& msg, PageId page) {
  if (recovering_.count(page) != 0) {
    parked_[page].push_back(msg);
    return false;
  }
  if (primary_of(page) != ctx_.id) {
    // Aimed at a member that is not (any longer) the primary — a stale view
    // of liveness at the sender. Route onward instead of failing.
    ctx_.stats->counter("qrc.forwards").add();
    ctx_.send(msg.type, primary_of(page), msg.payload);
    return false;
  }
  return true;
}

void QrcProtocol::handle_read(const Message& msg) {
  const auto [page, requester] = page_io::parse_req(msg);
  if (!at_primary(msg, page)) return;
  const auto it = store_.find(page);
  DSM_CHECK_MSG(it != store_.end(), "qrc: primary without a replica of page " << page);
  copyset_[page].insert(requester);
  if (ctx_.check != nullptr) ctx_.check->on_quorum_serve(page, it->second.tag);

  ctx_.send(MsgType::kReplReadReply, requester,
            data_msg(page, it->second.data, it->second.tag));
}

void QrcProtocol::handle_read_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  r.get<std::uint64_t>();  // tag: client copies are untagged
  const auto bytes = r.get_bytes();
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (!e.busy) return;  // duplicate reply after a failover re-send
    page_io::install_page(ctx_, page, e, bytes, PageState::kReadOnly);
    e.busy = false;
  }
  {
    const MutexLock lock(client_mutex_);
    fetching_.erase(page);
  }
  e.cv.notify_all();
}

void QrcProtocol::handle_write(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto writer = r.get<NodeId>();
  const auto field = r.get_bytes();
  if (!at_primary(msg, page)) return;
  if (txns_.count(page) != 0) {
    // One write transaction per page at a time; later writers park.
    parked_[page].push_back(msg);
    return;
  }

  const auto sit = store_.find(page);
  DSM_CHECK_MSG(sit != store_.end(), "qrc: primary without a replica of page " << page);
  Replica& rep = sit->second;
  const auto diff = page_io::unpack_diff_field(ctx_, field, {});
  apply_diff({rep.data.data(), rep.data.size()}, diff);
  const std::uint64_t tag = ++rep.tag;

  Txn& txn = txns_[page];
  txn.writer = writer;
  txn.tag = tag;
  txn.diff.assign(diff.begin(), diff.end());
  for (const NodeId n : live_members(page, /*exclude_self=*/true)) {
    txn.pending_sync.insert(n);
  }
  auto& cs = copyset_[page];
  for (const NodeId n : cs) {
    if (n != writer && ctx_.net->liveness().alive(n)) txn.pending_inval.insert(n);
  }
  // Rebuilt from the acks: keepers re-add themselves, everyone else drops.
  cs.clear();

  if (!txn.pending_sync.empty()) {
    const auto payload =
        data_msg(page, page_io::pack_diff_field(ctx_, diff), kToBackup, tag);
    for (const NodeId n : txn.pending_sync) ctx_.send(MsgType::kReplSync, n, payload);
  }
  if (!txn.pending_inval.empty()) {
    WireWriter w(8);
    w.put(page);
    w.put(NodeId{0});
    const auto payload = std::move(w).take();
    for (const NodeId n : txn.pending_inval) ctx_.send(MsgType::kInvalidate, n, payload);
  }
  txn_advance(page);
}

void QrcProtocol::handle_write_ack(const Message& msg) {
  WireReader r(msg.payload);
  if (unacked_.retire(r.get<PageId>())) flush_acks_.ack();
}

void QrcProtocol::handle_sync(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto kind = r.get<std::uint8_t>();
  const auto tag = r.get<std::uint64_t>();
  const auto field = r.get_bytes();

  if (kind == kToBackup) {
    if (recovering_.count(page) != 0) {
      // Mid-resync our base is stale; park and replay once the recovery
      // poll has installed an authoritative copy (tags dedup the overlap).
      parked_syncs_[page].push_back(msg);
      return;
    }
    const auto it = store_.find(page);
    DSM_CHECK_MSG(it != store_.end(), "qrc: sync at non-member for page " << page);
    Replica& rep = it->second;
    if (tag > rep.tag) {
      const auto diff = page_io::unpack_diff_field(ctx_, field, {});
      apply_diff({rep.data.data(), rep.data.size()}, diff);
      rep.tag = tag;
    }
  } else {
    // Keeper push: a concurrent writer kept its copy through the
    // invalidation; it must still observe the released words (live page and
    // twin, exactly like ERC's home→keeper update).
    const auto diff = page_io::unpack_diff_field(ctx_, field, {});
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    twins_.apply(page, e, diff);
  }
  WireWriter w(8);
  w.put(page);
  w.put(kind);
  ctx_.send(MsgType::kReplSyncAck, msg.src, std::move(w).take());
}

void QrcProtocol::handle_sync_ack(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto it = txns_.find(page);
  if (it == txns_.end()) return;  // txn already settled by a death
  it->second.pending_sync.erase(msg.src);
  txn_advance(page);
}

void QrcProtocol::handle_invalidate_ack(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto kept = r.get<std::uint8_t>();
  const auto it = txns_.find(page);
  if (it == txns_.end()) return;
  if (kept != 0) {
    it->second.keepers.push_back(msg.src);
    copyset_[page].insert(msg.src);
  }
  it->second.pending_inval.erase(msg.src);
  txn_advance(page);
}

void QrcProtocol::txn_advance(PageId page) {
  const auto it = txns_.find(page);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (!txn.keeper_phase && txn.pending_inval.empty()) {
    txn.keeper_phase = true;
    if (!txn.keepers.empty()) {
      ctx_.stats->counter("qrc.keeper_updates").add(txn.keepers.size());
      const auto payload =
          data_msg(page, page_io::pack_diff_field(ctx_, txn.diff), kToKeeper, txn.tag);
      for (const NodeId n : txn.keepers) {
        if (!ctx_.net->liveness().alive(n)) continue;
        txn.pending_sync.insert(n);
        ctx_.send(MsgType::kReplSync, n, payload);
      }
      txn.keepers.clear();
    }
  }
  if (txn.keeper_phase && txn.pending_sync.empty() && txn.pending_inval.empty()) {
    txn_finish(page);
  }
}

void QrcProtocol::txn_finish(PageId page) {
  const Txn& txn = txns_.at(page);
  // Every live group member stores the tagged value: the write is now
  // crash-redundant and may be acknowledged.
  if (ctx_.check != nullptr) ctx_.check->on_quorum_ack(page, txn.tag);
  WireWriter w(8);
  w.put(page);
  ctx_.send(MsgType::kReplWriteAck, txn.writer, std::move(w).take());
  txns_.erase(page);
  replay_parked(page);
}

void QrcProtocol::replay_parked(PageId page) {
  for (;;) {
    if (txns_.count(page) != 0 || recovering_.count(page) != 0) return;
    const auto it = parked_.find(page);
    if (it == parked_.end() || it->second.empty()) return;
    const Message next = std::move(it->second.front());
    it->second.pop_front();
    on_message(next);
  }
}

void QrcProtocol::start_recovery(PageId page) {
  auto [it, fresh] = recovering_.try_emplace(page);
  Recovery& rec = it->second;
  if (fresh) rec.started = realclock::now();
  rec.pending.clear();
  for (const NodeId n : live_members(page, /*exclude_self=*/true)) {
    rec.pending.insert(n);
  }
  ctx_.stats->counter("qrc.recoveries").add();
  if (rec.pending.empty()) {
    // No other live member to poll: our replica is (by default) the best
    // surviving copy.
    finish_recovery(page);
    return;
  }
  const auto payload = page_io::encode_req(page, ctx_.id);
  for (const NodeId n : rec.pending) ctx_.send(MsgType::kReplRecover, n, payload);
}

void QrcProtocol::handle_recover(const Message& msg) {
  const auto [page, requester] = page_io::parse_req(msg);
  const auto it = store_.find(page);
  DSM_CHECK_MSG(it != store_.end(), "qrc: recover poll at non-member for page " << page);
  ctx_.send(MsgType::kReplRecoverReply, requester,
            data_msg(page, it->second.data, it->second.tag));
}

void QrcProtocol::handle_recover_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto tag = r.get<std::uint64_t>();
  const auto bytes = r.get_bytes();
  const auto rit = recovering_.find(page);
  if (rit == recovering_.end()) return;  // late duplicate
  Replica& rep = store_.at(page);
  if (tag > rep.tag) {
    rep.data.assign(bytes.begin(), bytes.end());
    rep.tag = tag;
  }
  rit->second.pending.erase(msg.src);
  if (rit->second.pending.empty()) finish_recovery(page);
}

void QrcProtocol::finish_recovery(PageId page) {
  const auto it = recovering_.find(page);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      realclock::now() - it->second.started)
                      .count();
  ctx_.stats->histogram("ft.recovery_us").record(static_cast<std::uint64_t>(us));
  recovering_.erase(it);

  // Replay syncs parked mid-resync, in arrival order; the tag check inside
  // handle_sync skips any the recovery poll already covered.
  const auto ps = parked_syncs_.find(page);
  if (ps != parked_syncs_.end()) {
    std::deque<Message> q = std::move(ps->second);
    parked_syncs_.erase(ps);
    for (const Message& m : q) handle_sync(m);
  }
  replay_parked(page);
}

void QrcProtocol::on_peer_down(NodeId peer) {
  if (peer == ctx_.id) return;  // our own death is the runtime's business
  if (!dead_handled_.insert(peer).second) return;  // duplicate announcement

  // 1. Retire the dead member's outstanding acks in active transactions.
  std::vector<PageId> active;
  for (auto& [page, txn] : txns_) {
    txn.pending_sync.erase(peer);
    txn.pending_inval.erase(peer);
    active.push_back(page);
  }
  for (const PageId p : active) txn_advance(p);

  // 2. Forget it as a copy holder.
  for (auto& [page, cs] : copyset_) cs.erase(peer);

  // 3. Primaryship takeover: for every page whose acting primary the dead
  //    node was and whose next live member we are, poll the survivors and
  //    adopt the highest tag before serving again.
  for (const auto& [page, rep] : store_) {
    (void)rep;
    if (primary_of(page) != ctx_.id || recovering_.count(page) != 0) continue;
    const auto grp = group_of(page);
    const auto me = std::find(grp.begin(), grp.end(), ctx_.id);
    const auto dead = std::find(grp.begin(), grp.end(), peer);
    if (dead == grp.end() || dead >= me) continue;  // we were primary already
    ctx_.stats->counter("qrc.takeovers").add();
    start_recovery(page);
  }

  // 4. Client side: copies served by the dead node's group may miss the new
  //    primary's invalidations — drop clean read copies and re-fetch.
  twins_.drop_clean([&](PageId p) { return in_group(p, peer); });

  // 5. Re-aim outstanding fetches that targeted the dead node.
  {
    const MutexLock lock(client_mutex_);
    for (auto& [page, target] : fetching_) {
      if (ctx_.net->liveness().alive(target)) continue;
      target = primary_of(page);
      ctx_.send(MsgType::kReplRead, target, page_io::encode_req(page, ctx_.id));
    }
  }

  // 6. Re-send unacked flushes to the new primary (value diffs: idempotent
  //    even if the old primary stored them before dying).
  unacked_.for_each([&](PageId page, Unacked::Flush& flush) {
    if (ctx_.net->liveness().alive(flush.target)) return;
    flush.target = primary_of(page);
    ctx_.send(MsgType::kReplWrite, flush.target, data_msg(page, flush.field, ctx_.id));
  });
}

void QrcProtocol::on_peer_up(NodeId peer) {
  dead_handled_.erase(peer);
  if (peer == ctx_.id) {
    // We just restarted: resync every hosted replica from the survivors
    // (on_self_restart already parked requests behind `recovering_`).
    for (const auto& [page, rep] : store_) {
      (void)rep;
      start_recovery(page);
    }
    return;
  }
  // The returning member reclaims primaryship of its pages, but our copyset
  // knowledge does not transfer to it: conservatively drop clean client
  // copies of its pages and forget copysets we no longer arbitrate.
  twins_.drop_clean([&](PageId p) { return in_group(p, peer); });
  for (auto& [page, cs] : copyset_) {
    if (in_group(page, peer) && primary_of(page) != ctx_.id) cs.clear();
  }
}

void QrcProtocol::on_self_restart() {
  // Client view back to all-invalid (the post-init_pages picture).
  page_io::reset_pages(ctx_, PageState::kInvalid, PageState::kInvalid);
  twins_.clear();
  unacked_.clear();
  flush_acks_.reset();
  {
    const MutexLock lock(client_mutex_);
    fetching_.clear();
  }
  txns_.clear();
  parked_.clear();
  copyset_.clear();
  parked_syncs_.clear();
  dead_handled_.clear();

  // The replica store restarts empty (the crash lost it) and every hosted
  // page is marked recovering *now*, before the fabric marks us alive: any
  // request that races in ahead of the kPeerUp resync parks safely.
  recovering_.clear();
  for (auto& [page, rep] : store_) {
    rep.tag = 0;
    rep.data.assign(ctx_.cfg->page_size, std::byte{0});
    recovering_[page].started = realclock::now();
  }
}

}  // namespace dsm
