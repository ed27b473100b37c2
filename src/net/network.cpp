#include "net/network.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "trace/trace.hpp"

namespace dsm {

void Mailbox::push(Message msg) {
  {
    const MutexLock lock(mutex_);
    DSM_CHECK_MSG(!closed_, "push to closed mailbox");
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
}

std::optional<Message> Mailbox::pop() {
  const MutexLock lock(mutex_);
  while (!closed_ && queue_.empty()) cv_.wait(mutex_);
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

std::deque<Message> Mailbox::drain() {
  const MutexLock lock(mutex_);
  while (!closed_ && queue_.empty()) cv_.wait(mutex_);
  std::deque<Message> out;
  out.swap(queue_);
  return out;
}

void Mailbox::close() {
  {
    const MutexLock lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t Mailbox::size() const {
  const MutexLock lock(mutex_);
  return queue_.size();
}

namespace {

constexpr auto kNever = realclock::never();
/// Retransmit timeout multiplier per retry (exponential backoff).
constexpr double kRtoBackoff = 2.0;

/// Min-heap order for Network::Delayed (generic: the type is private).
struct DelayedOrder {
  bool operator()(const auto& a, const auto& b) const { return a.due > b.due; }
};

}  // namespace

thread_local Network::BatchScope* Network::active_scope_ = nullptr;

Network::Network(std::size_t n_nodes, LinkModel link, StatsRegistry* stats,
                 ReliabilityConfig reliability, ChaosConfig chaos, WireConfig wire,
                 Tracer* tracer, TransportConfig transport)
    : link_(link),
      stats_(stats),
      tracer_(tracer),
      reliability_(reliability),
      chaos_(chaos),
      wire_(wire),
      transport_cfg_(std::move(transport)),
      liveness_(n_nodes),
      mailboxes_(n_nodes),
      send_seq_(n_nodes * n_nodes),
      links_(n_nodes * n_nodes),
      pause_until_(n_nodes, SteadyTime::min()),
      dropped_(stats->counter("net.dropped")),
      retransmits_(stats->counter("net.retransmits")),
      dups_suppressed_(stats->counter("net.dups_suppressed")),
      acks_(stats->counter("net.acks")),
      acks_dropped_(stats->counter("net.acks_dropped")),
      gave_up_(stats->counter("net.gave_up")),
      delayed_count_(stats->counter("net.chaos_delayed")),
      pauses_(stats->counter("net.chaos_pauses")),
      datagrams_(stats->counter("net.datagrams")),
      batches_(stats->counter("net.batches")),
      batched_msgs_(stats->counter("net.batched_msgs")),
      acks_piggybacked_(stats->counter("net.acks_piggybacked")),
      acks_standalone_(stats->counter("net.acks_standalone")),
      acks_wire_(stats->counter("net.acks_wire")),
      bytes_saved_(stats->counter("net.bytes_saved")),
      dead_dropped_(stats->counter("net.dead_dropped")),
      peer_dead_(stats->counter("net.peer_dead")),
      msgs_(stats->counter("net.msgs")),
      bytes_(stats->counter("net.bytes")),
      msg_size_(stats->histogram("net.msg_size")) {
  DSM_CHECK(n_nodes > 0);
  DSM_CHECK(stats != nullptr);
  transport_ = make_transport(transport_cfg_, n_nodes, this, stats);
  transport_->start();
  daemon_ = std::thread([this] { daemon_loop(); });
}

Network::~Network() {
  // Receiver threads call back into arrive/deliver; join them before any
  // fabric state (daemon, mailboxes) goes away.
  transport_->stop();
  stop_daemon();
}

void Network::receive(Message msg, std::uint32_t attempt) {
  arrive(std::move(msg), attempt);
}

Network::BatchScope::BatchScope(Network* net) {
  // Inert when batching is off or another scope already owns this thread
  // (the outer scope keeps collecting; nested flushes would fragment it).
  if (net == nullptr || !net->wire_.batching || !net->reliability_.enabled ||
      active_scope_ != nullptr) {
    return;
  }
  net_ = net;
  active_scope_ = this;
}

Network::BatchScope::~BatchScope() {
  if (net_ == nullptr) return;
  flush();
  active_scope_ = nullptr;
}

void Network::BatchScope::flush() {
  if (net_ == nullptr || staged_.empty()) return;
  net_->flush_staged(staged_);
  staged_.clear();
}

void Network::flush() {
  if (active_scope_ != nullptr && active_scope_->net_ == this) active_scope_->flush();
}

bool Network::dead_drop(const Message& msg) {
  if (!ft_) return false;
  // Self-sends and runtime control always go through: a dead node's service
  // thread still drains its mailbox (it is the restart executor).
  if (msg.src == msg.dst || msg.type == MsgType::kShutdown ||
      msg.type == MsgType::kWakeup) {
    return false;
  }
  if (liveness_.alive(msg.src) && liveness_.alive(msg.dst)) return false;
  dead_dropped_.add();
  return true;
}

void Network::send(Message msg) {
  DSM_CHECK_MSG(msg.dst < mailboxes_.size(), "send to unknown node " << msg.dst);
  DSM_CHECK_MSG(msg.src < mailboxes_.size(), "send from unknown node " << msg.src);

  // A dead endpoint means the message can never be delivered or acked: drop
  // before seq assignment so the link's seq space stays contiguous for a
  // later restart.
  if (dead_drop(msg)) return;

  if (!reliable_eligible(msg)) {
    // Control traffic and loopback: an in-process self-send cannot be lost.
    msg.seq = Message::kNoSeq;
    msg.arrival_time = msg.send_time + link_.cost(msg.src, msg.dst, msg.wire_size());
    if (tracer_ != nullptr && msg.type != MsgType::kShutdown &&
        msg.type != MsgType::kWakeup) {
      tracer_->instant(msg.src, TraceCat::kNet, "send", msg.send_time, "dst", msg.dst,
                       "seq", msg.seq);
    }
    deliver(std::move(msg));
    return;
  }

  if (BatchScope* scope = active_scope_; scope != nullptr && scope->net_ == this) {
    scope->staged_.push_back(std::move(msg));
    return;
  }
  send_now(std::move(msg));
}

void Network::send_now(Message msg) {
  if (reliability_.enabled) {
    msg.seq = send_seq_[link_index(msg.src, msg.dst)].fetch_add(
        1, std::memory_order_relaxed);
    track_inflight(msg, 1);
  } else {
    msg.seq = Message::kNoSeq;
  }
  if (tracer_ != nullptr) {
    tracer_->instant(msg.src, TraceCat::kNet, "send", msg.send_time, "dst", msg.dst,
                     "seq", msg.seq);
  }
  datagrams_.add();
  wire_attempt(std::move(msg), 0);
}

void Network::flush_staged(std::vector<Message>& staged) {
  // Group by (src,dst) preserving first-appearance order, so per-link FIFO
  // matches staging order.
  std::vector<std::pair<std::size_t, std::vector<Message>>> groups;
  for (Message& m : staged) {
    if (dead_drop(m)) continue;  // a peer may have died since staging
    const std::size_t key = link_index(m.src, m.dst);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [key](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.emplace_back(key, std::vector<Message>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(std::move(m));
  }

  for (auto& [key, msgs] : groups) {
    std::size_t i = 0;
    while (i < msgs.size()) {
      // Chunk greedily under the msgs/bytes caps (always take ≥ 1).
      std::size_t j = i;
      std::size_t bytes = 0;
      while (j < msgs.size() && j - i < wire_.max_batch_msgs &&
             (j == i || bytes + msgs[j].wire_size() <= kMaxBatchBytes)) {
        bytes += msgs[j].wire_size();
        ++j;
      }
      if (j - i == 1) {
        // A batch of one would only add framing; send it plain.
        send_now(std::move(msgs[i]));
        i = j;
        continue;
      }

      std::vector<Message> chunk(
          std::make_move_iterator(msgs.begin() + static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(msgs.begin() + static_cast<std::ptrdiff_t>(j)));
      i = j;
      const NodeId src = chunk.front().src;
      const NodeId dst = chunk.front().dst;
      const std::uint64_t base =
          send_seq_[key].fetch_add(chunk.size(), std::memory_order_relaxed);
      // Inner messages share the envelope's departure instant: the batch
      // leaves when its latest member was staged.
      VirtualTime departs = 0;
      for (const Message& m : chunk) departs = std::max(departs, m.send_time);
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        chunk[k].seq = base + k;
        chunk[k].send_time = departs;
      }

      Message env;
      env.type = MsgType::kBatch;
      env.src = src;
      env.dst = dst;
      env.seq = base;
      env.send_time = departs;
      env.payload = pack_batch(chunk);

      std::size_t unbatched_bytes = 0;
      for (const Message& m : chunk) unbatched_bytes += m.wire_size();
      if (unbatched_bytes > env.wire_size()) {
        bytes_saved_.add(unbatched_bytes - env.wire_size());
      }
      if (tracer_ != nullptr) {
        for (const Message& m : chunk) {
          tracer_->instant(src, TraceCat::kNet, "send", departs, "dst", dst, "seq",
                           m.seq);
        }
      }
      batches_.add();
      batched_msgs_.add(chunk.size());
      track_inflight(env, static_cast<std::uint32_t>(chunk.size()));
      datagrams_.add();
      wire_attempt(std::move(env), 0);
    }
  }
}

void Network::track_inflight(Message& msg, std::uint32_t count) {
  bool daemon_was_idle;
  {
    const MutexLock lock(flight_mutex_);
    if (wire_.piggyback_acks) {
      // Reverse-direction traffic carries the pending cumulative ack.
      const auto it = pending_acks_.find(link_index(msg.dst, msg.src));
      if (it != pending_acks_.end()) {
        msg.ack_upto = std::max(msg.ack_upto, it->second.upto);
        pending_acks_.erase(it);
        acks_piggybacked_.add();
      }
    }
    daemon_was_idle = in_flight_.empty() && delayed_.empty() && pending_acks_.empty();
    in_flight_.emplace(FlightKey{link_index(msg.src, msg.dst), msg.seq},
                       InFlight{msg, count, 0,
                                realclock::now() +
                                    std::chrono::milliseconds(reliability_.rto_ms)});
  }
  // A fresh entry's deadline is never earlier than an existing one's
  // (backoff only lengthens), so the daemon needs waking only from idle.
  if (daemon_was_idle) flight_cv_.notify_one();
}

void Network::wire_attempt(Message msg, std::uint32_t attempt) {
  if (drop_hook_ && drop_hook_(msg)) {
    dropped_.add();
    return;
  }
  // Cumulative kAck datagrams are chaos-exempt: their chaos key is
  // degenerate (every ack on a link has seq == kNoSeq), so a seeded drop
  // decision would kill *all* acks on that link forever — a modeling
  // artifact, not a fault. Ack loss is modeled receiver-side instead
  // (should_drop_ack), which keys on the data message being acked.
  const bool chaos_eligible = msg.type != MsgType::kAck;
  if (chaos_eligible && chaos_.should_drop(msg, attempt)) {
    dropped_.add();
    return;
  }
  const std::uint32_t delay_us = chaos_eligible ? chaos_.delay_us(msg, attempt) : 0;

  msg.arrival_time =
      msg.send_time + link_.cost(msg.src, msg.dst, msg.wire_size()) +
      static_cast<VirtualTime>(attempt) * reliability_.rto_virtual_ns +
      static_cast<VirtualTime>(delay_us) * 1000;

  if (chaos_eligible && chaos_.should_duplicate(msg, attempt)) {
    // The clone takes the direct path, so a delayed original is overtaken —
    // the reorder buffer and dedup both get exercised.
    transport_->ship(msg, attempt);
  }
  if (delay_us > 0) {
    delayed_count_.add();
    defer(std::move(msg), attempt,
          realclock::now() + std::chrono::microseconds(delay_us),
          /*pre_wire=*/true);
    return;
  }
  transport_->ship(std::move(msg), attempt);
}

void Network::arrive(Message msg, std::uint32_t attempt) {
  {
    const MutexLock lock(flight_mutex_);
    const SteadyTime paused = pause_until_[msg.dst];
    if (paused > realclock::now()) {
      delayed_.push_back(Delayed{paused, std::move(msg), attempt, /*pre_wire=*/false});
      std::push_heap(delayed_.begin(), delayed_.end(), DelayedOrder{});
      flight_cv_.notify_one();
      return;
    }
  }
  if (chaos_.should_pause_dst(msg, attempt)) {
    pauses_.add();
    inject_pause(msg.dst, chaos_.config().pause_us);
  }

  // A piggybacked cumulative ack completes reverse-link flight entries no
  // matter what happens to the carrying message below (the header arrived).
  if (msg.ack_upto > 0 && reliability_.enabled) {
    complete_upto(link_index(msg.dst, msg.src), msg.ack_upto);
  }
  if (msg.type == MsgType::kAck) return;  // transport-internal, never delivered

  if (msg.seq == Message::kNoSeq || !reliability_.enabled) {
    deliver(std::move(msg));
    return;
  }

  // Transport-level ack: completing the sender's in-flight entry. A lost
  // ack leaves the entry live — the daemon retransmits, we dedup below.
  // In piggyback mode the ack is recorded per link instead and rides the
  // next reverse-direction send (or a delayed standalone kAck). On a
  // wire-ack transport (UDP) the sender's flight table may be in another
  // process — the ack must travel as a kAck datagram (below) either way.
  const bool ack_lost = chaos_.should_drop_ack(msg, attempt);
  if (ack_lost) {
    acks_dropped_.add();
  } else if (!wire_.piggyback_acks && !transport_->wire_acks()) {
    complete_inflight(msg);
  }

  const std::size_t link = link_index(msg.src, msg.dst);
  std::uint64_t ack_basis = 0;
  {
    const MutexLock lock(links_mutex_);
    LinkState& st = links_[link];
    const std::uint64_t span = msg.type == MsgType::kBatch ? batch_count(msg) : 1;
    if (msg.seq + span <= st.expected) {
      dups_suppressed_.add();
    } else if (msg.seq > st.expected) {
      // Hole in the link: park until the gap fills (retransmit or delayed
      // original). emplace refuses duplicates of an already-parked seq.
      if (!st.reorder.emplace(msg.seq, std::move(msg)).second) dups_suppressed_.add();
    } else {
      // Envelopes are retransmitted whole with a stable span, so an arrival
      // is either fully duplicate, fully future, or lands exactly on
      // `expected` — partial overlap means transport corruption.
      DSM_CHECK_MSG(msg.seq == st.expected,
                    "seq range straddles expected=" << st.expected);
      accept_front(st, std::move(msg));
      while (!st.reorder.empty() && st.reorder.begin()->first == st.expected) {
        Message next = std::move(st.reorder.begin()->second);
        st.reorder.erase(st.reorder.begin());
        accept_front(st, std::move(next));
      }
    }
    ack_basis = st.expected;
  }
  if (ack_lost) return;
  if (wire_.piggyback_acks) {
    note_pending_ack(link, ack_basis);
  } else if (transport_->wire_acks()) {
    // One cumulative ack per accepted datagram; duplicates re-ack, so a
    // lost ack is recovered by the very next retransmit round-trip.
    send_wire_ack(link, ack_basis);
  }
}

void Network::send_wire_ack(std::size_t link, std::uint64_t upto) {
  if (upto == 0) return;  // 0 is the header's "no ack" sentinel
  const std::size_t n = mailboxes_.size();
  Message ack;
  ack.type = MsgType::kAck;
  ack.src = static_cast<NodeId>(link % n);  // data receiver
  ack.dst = static_cast<NodeId>(link / n);  // data sender
  ack.seq = Message::kNoSeq;
  ack.ack_upto = upto;
  acks_wire_.add();
  datagrams_.add();
  wire_attempt(std::move(ack), 0);
}

void Network::accept_front(LinkState& st, Message msg) {
  if (msg.type == MsgType::kBatch) {
    std::vector<Message> inner = unpack_batch(msg);
    if (batch_hook_) batch_hook_(msg, static_cast<std::uint32_t>(inner.size()));
    if (tracer_ != nullptr) {
      tracer_->instant(msg.dst, TraceCat::kNet, "batch", msg.send_time, "src", msg.src,
                       "count", static_cast<std::uint64_t>(inner.size()));
    }
    st.expected += inner.size();
    for (Message& m : inner) deliver(std::move(m));
    return;
  }
  ++st.expected;
  deliver(std::move(msg));
}

void Network::deliver(Message msg) {
  // FT: protocol traffic addressed to a dead node is dropped at the door
  // (a crashed machine receives nothing). Control and liveness posts still
  // land — the dead node's service thread is the restart executor.
  if (ft_ && msg.src != msg.dst && !liveness_.alive(msg.dst) &&
      msg.type != MsgType::kShutdown && msg.type != MsgType::kWakeup &&
      msg.type != MsgType::kExitReady && msg.type != MsgType::kExitGo &&
      msg.type != MsgType::kPeerDown && msg.type != MsgType::kPeerUp) {
    dead_dropped_.add();
    return;
  }
  // kShutdown is excluded from the quiescence count: the service loop keeps
  // draining after it (multi-process arrivals can trail the local stop), so
  // counting it would skew messages_sent vs processed across runs.
  if (msg.type != MsgType::kShutdown) messages_sent_.add();
  if (msg.type == MsgType::kShutdown || msg.type == MsgType::kWakeup ||
      msg.type == MsgType::kExitReady || msg.type == MsgType::kExitGo) {
    // Runtime control, not protocol traffic: deliver but do not account.
    mailboxes_[msg.dst].push(std::move(msg));
    return;
  }
  if (delivery_hook_) delivery_hook_(msg);
  const std::size_t bytes = msg.wire_size();
  if (tracer_ != nullptr) {
    // The transit leg: virtual span from the sender's stamp to the modeled
    // arrival, on the destination's "net" track. to_string returns a
    // literal, so .data() is a stable NUL-terminated name.
    tracer_->complete(msg.dst, TraceCat::kNet, to_string(msg.type).data(),
                      msg.send_time, msg.arrival_time, "src", msg.src, "seq", msg.seq);
  }
  msgs_.add();
  bytes_.add(bytes);
  msgs_of(msg.type).add();
  msg_size_.record(bytes);
  if (log_enabled(LogLevel::kTrace)) {
    DSM_LOG_TRACE << "deliver " << to_string(msg.type) << ' ' << msg.src << "->"
                  << msg.dst << " seq=" << msg.seq << " bytes=" << bytes
                  << " t=" << msg.send_time;
  }
  mailboxes_[msg.dst].push(std::move(msg));
}

Counter& Network::msgs_of(MsgType type) {
  std::atomic<Counter*>& slot = msgs_by_type_[static_cast<std::size_t>(type)];
  Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Racing first deliveries look up the same registry entry.
    counter = &stats_->counter("net.msgs." + std::string(to_string(type)));
    slot.store(counter, std::memory_order_release);
  }
  return *counter;
}

void Network::complete_inflight(const Message& msg) {
  const MutexLock lock(flight_mutex_);
  if (in_flight_.erase(FlightKey{link_index(msg.src, msg.dst), msg.seq}) > 0) {
    acks_.add();
  }
}

void Network::complete_upto(std::size_t link, std::uint64_t upto) {
  const MutexLock lock(flight_mutex_);
  auto it = in_flight_.lower_bound(FlightKey{link, 0});
  while (it != in_flight_.end() && it->first.first == link &&
         it->first.second + it->second.count <= upto) {
    it = in_flight_.erase(it);
    acks_.add();
  }
}

void Network::note_pending_ack(std::size_t link, std::uint64_t upto) {
  bool armed = false;
  {
    const MutexLock lock(flight_mutex_);
    const auto due = realclock::now() +
                     std::chrono::microseconds(wire_.delayed_ack_us);
    const auto [it, inserted] = pending_acks_.try_emplace(link, PendingAck{upto, due});
    if (!inserted) {
      it->second.upto = std::max(it->second.upto, upto);
    }
    armed = inserted;
  }
  // A newly armed delayed-ack timer can be earlier than anything the daemon
  // is currently waiting on.
  if (armed) flight_cv_.notify_one();
}

void Network::defer(Message msg, std::uint32_t attempt, SteadyTime due, bool pre_wire) {
  {
    const MutexLock lock(flight_mutex_);
    delayed_.push_back(Delayed{due, std::move(msg), attempt, pre_wire});
    std::push_heap(delayed_.begin(), delayed_.end(), DelayedOrder{});
  }
  flight_cv_.notify_one();
}

void Network::inject_pause(NodeId node, std::uint32_t us) {
  DSM_CHECK(node < mailboxes_.size());
  const MutexLock lock(flight_mutex_);
  pause_until_[node] = std::max(
      pause_until_[node], realclock::now() + std::chrono::microseconds(us));
}

void Network::daemon_loop() {
  RelockableMutexLock lock(flight_mutex_);
  while (!stopping_) {
    SteadyTime next = kNever;
    if (!delayed_.empty()) next = std::min(next, delayed_.front().due);
    for (const auto& [key, entry] : in_flight_) next = std::min(next, entry.deadline);
    for (const auto& [link, ack] : pending_acks_) next = std::min(next, ack.due);

    if (next == kNever) {
      flight_cv_.wait(flight_mutex_);
    } else {
      flight_cv_.wait_until(flight_mutex_, next);
    }
    if (stopping_) break;

    const auto now = realclock::now();

    std::vector<Delayed> due_now;
    while (!delayed_.empty() && delayed_.front().due <= now) {
      std::pop_heap(delayed_.begin(), delayed_.end(), DelayedOrder{});
      due_now.push_back(std::move(delayed_.back()));
      delayed_.pop_back();
    }

    // Delayed acks whose timer expired with no reverse traffic to ride:
    // emit standalone kAck datagrams.
    std::vector<std::pair<std::size_t, std::uint64_t>> acks_due;
    for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
      if (it->second.due <= now) {
        acks_due.emplace_back(it->first, it->second.upto);
        it = pending_acks_.erase(it);
      } else {
        ++it;
      }
    }

    std::vector<std::pair<Message, std::uint32_t>> resends;
    std::vector<NodeId> dead_peers;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      InFlight& entry = it->second;
      if (entry.deadline > now) {
        ++it;
        continue;
      }
      if (entry.attempt >= reliability_.max_retries) {
        gave_up_.add();
        DSM_LOG_WARN << "reliable: giving up on " << to_string(entry.msg.type) << ' '
                     << entry.msg.src << "->" << entry.msg.dst << " seq="
                     << entry.msg.seq << " after " << entry.attempt << " retransmits";
        // FT: exhausted retries are the failure detector — the destination
        // is declared dead (outside the lock, below) instead of the give-up
        // being a bare counter bump.
        if (ft_) dead_peers.push_back(entry.msg.dst);
        it = in_flight_.erase(it);
        continue;
      }
      ++entry.attempt;
      const double scaled = static_cast<double>(reliability_.rto_ms) *
                            std::pow(kRtoBackoff, entry.attempt);
      const auto rto_ms = std::min<double>(scaled, reliability_.rto_max_ms);
      entry.deadline = now + std::chrono::microseconds(
                                 static_cast<std::int64_t>(rto_ms * 1000.0));
      resends.emplace_back(entry.msg, entry.attempt);
      ++it;
    }

    const std::size_t n = mailboxes_.size();
    lock.unlock();
    for (auto& d : due_now) {
      // A chaos delay held the attempt before the transport; it crosses the
      // wire now. A pause held an arrived message; it re-enters the
      // receiver side directly.
      if (d.pre_wire) {
        transport_->ship(std::move(d.msg), d.attempt);
      } else {
        arrive(std::move(d.msg), d.attempt);
      }
    }
    for (const auto& [link, upto] : acks_due) {
      // `link` indexes the data direction src→dst; the ack travels dst→src.
      Message ack;
      ack.type = MsgType::kAck;
      ack.src = static_cast<NodeId>(link % n);
      ack.dst = static_cast<NodeId>(link / n);
      ack.seq = Message::kNoSeq;
      ack.ack_upto = upto;
      acks_standalone_.add();
      datagrams_.add();
      wire_attempt(std::move(ack), 0);
    }
    for (auto& [msg, attempt] : resends) {
      retransmits_.add();
      if (tracer_ != nullptr) {
        tracer_->instant(msg.src, TraceCat::kNet, "retransmit", msg.send_time, "seq",
                         msg.seq, "attempt", attempt);
      }
      wire_attempt(msg, attempt);
    }
    for (const NodeId d : dead_peers) {
      if (liveness_.alive(d)) announce_death(d, /*restart=*/false);
    }
    lock.lock();
  }
}

void Network::purge_flight_state(NodeId node) {
  const std::size_t n = mailboxes_.size();
  const MutexLock lock(flight_mutex_);
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const std::size_t link = it->first.first;
    if (link / n == node || link % n == node) {
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(delayed_, [node](const Delayed& d) {
    return d.msg.src == node || d.msg.dst == node;
  });
  std::make_heap(delayed_.begin(), delayed_.end(), DelayedOrder{});
  for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
    if (it->first / n == node || it->first % n == node) {
      it = pending_acks_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<NodeId> Network::hosted_nodes() const {
  if (transport_cfg_.multiprocess()) return {transport_cfg_.local_node};
  std::vector<NodeId> all(mailboxes_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  return all;
}

void Network::post_local(NodeId dst, Message msg) {
  msg.dst = dst;
  msg.seq = Message::kNoSeq;
  msg.arrival_time = msg.send_time;
  deliver(std::move(msg));
}

void Network::announce_death(NodeId node, bool restart) {
  DSM_CHECK(node < mailboxes_.size());
  if (liveness_.alive(node)) peer_dead_.add();
  liveness_.mark_worker_dead(node);
  liveness_.mark_dead(node);
  purge_flight_state(node);
  DSM_LOG_WARN << "liveness: node " << node << " declared dead"
               << (restart ? " (restart pending)" : "");
  for (const NodeId host : hosted_nodes()) {
    Message msg;
    msg.type = MsgType::kPeerDown;
    msg.src = host;
    msg.payload = pack_peer_event(node, restart);
    post_local(host, std::move(msg));
  }
}

void Network::announce_alive(NodeId node) {
  for (const NodeId host : hosted_nodes()) {
    Message msg;
    msg.type = MsgType::kPeerUp;
    msg.src = host;
    msg.payload = pack_peer_event(node, /*restart=*/false);
    post_local(host, std::move(msg));
  }
}

void Network::reset_links_for(NodeId node) {
  purge_flight_state(node);
  const MutexLock lock(links_mutex_);
  const std::size_t n = mailboxes_.size();
  for (std::size_t p = 0; p < n; ++p) {
    for (const std::size_t link : {link_index(static_cast<NodeId>(p), node),
                                   link_index(node, static_cast<NodeId>(p))}) {
      LinkState& st = links_[link];
      st.reorder.clear();
      // The sender-side counters persist across an in-process restart, so
      // the receiver resumes at whatever the sender will assign next.
      st.expected = send_seq_[link].load(std::memory_order_relaxed);
    }
  }
}

void Network::peer_restarted(NodeId src) {
  purge_flight_state(src);
  {
    const MutexLock lock(links_mutex_);
    const std::size_t n = mailboxes_.size();
    for (std::size_t p = 0; p < n; ++p) {
      for (const std::size_t link : {link_index(static_cast<NodeId>(p), src),
                                     link_index(src, static_cast<NodeId>(p))}) {
        links_[link].reorder.clear();
        links_[link].expected = 0;
        // The respawned process counts from 0 in both directions.
        send_seq_[link].store(0, std::memory_order_relaxed);
      }
    }
  }
  liveness_.mark_restarted(src);
  DSM_LOG_WARN << "liveness: node " << src << " rejoined with a fresh incarnation";
  announce_alive(src);
}

std::vector<std::byte> pack_peer_event(NodeId peer, bool restart) {
  std::vector<std::byte> out(5);
  const std::uint32_t p = peer;
  std::memcpy(out.data(), &p, sizeof p);
  out[4] = static_cast<std::byte>(restart ? 1 : 0);
  return out;
}

void unpack_peer_event(std::span<const std::byte> payload, NodeId* peer, bool* restart) {
  DSM_CHECK_MSG(payload.size() >= 5, "short peer-event payload");
  std::uint32_t p = 0;
  std::memcpy(&p, payload.data(), sizeof p);
  *peer = static_cast<NodeId>(p);
  *restart = payload[4] != std::byte{0};
}

void Network::stop_daemon() {
  {
    const MutexLock lock(flight_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  flight_cv_.notify_all();
  if (daemon_.joinable()) daemon_.join();
}

void Network::multicast(std::span<const NodeId> destinations, const Message& prototype) {
  for (const NodeId dst : destinations) {
    Message copy = prototype;
    copy.dst = dst;
    send(std::move(copy));
  }
}

std::optional<Message> Network::recv(NodeId node) {
  DSM_CHECK(node < mailboxes_.size());
  return mailboxes_[node].pop();
}

std::deque<Message> Network::recv_all(NodeId node) {
  DSM_CHECK(node < mailboxes_.size());
  return mailboxes_[node].drain();
}

bool Network::idle() const {
  const MutexLock lock(flight_mutex_);
  return in_flight_.empty() && delayed_.empty() && pending_acks_.empty();
}

void Network::debug_dump(std::ostream& os) const {
  // Best-effort: the dump runs on abort and watchdog paths while other
  // threads may be wedged *holding* fabric locks — e.g. a delivery hook
  // blocked on the checker's mutex, which the aborting thread holds while
  // it dumps. Waiting here turns a diagnostic into an ABBA deadlock (the
  // RacyLitmus death test hung exactly this way), so a busy section is
  // skipped, never waited for.
  transport_->debug_dump(os);
  if (!flight_mutex_.try_lock()) {
    os << "  net: flight state busy — skipped\n";
  } else {
    os << "  net: in-flight=" << in_flight_.size() << " delayed=" << delayed_.size()
       << " pending-acks=" << pending_acks_.size() << '\n';
    for (const auto& [key, entry] : in_flight_) {
      os << "    unacked " << to_string(entry.msg.type) << ' ' << entry.msg.src << "->"
         << entry.msg.dst << " seq=" << entry.msg.seq;
      if (entry.count > 1) os << "+" << entry.count;
      os << " attempt=" << entry.attempt << '\n';
    }
    flight_mutex_.unlock();
  }
  if (!links_mutex_.try_lock()) {
    os << "    link state busy — skipped\n";
  } else {
    const std::size_t n = mailboxes_.size();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const LinkState& st = links_[i];
      const std::uint64_t sent = send_seq_[i].load(std::memory_order_relaxed);
      if (sent == 0 && st.reorder.empty()) continue;
      if (!st.reorder.empty() || st.expected != sent) {
        os << "    link " << i / n << "->" << i % n << ": sent=" << sent
           << " delivered=" << st.expected << " parked=" << st.reorder.size() << '\n';
      }
    }
    links_mutex_.unlock();
  }
  for (std::size_t node = 0; node < mailboxes_.size(); ++node) {
    os << "    mailbox[" << node << "] backlog=" << mailboxes_[node].size() << '\n';
  }
}

void Network::shutdown() {
  transport_->stop();
  stop_daemon();
  {
    const MutexLock lock(flight_mutex_);
    in_flight_.clear();
    delayed_.clear();
    pending_acks_.clear();
  }
  for (auto& mb : mailboxes_) mb.close();
}

}  // namespace dsm
