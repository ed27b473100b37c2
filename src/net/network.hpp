// The simulated interconnect: one mailbox per node, explicit messages, a
// configurable link cost model, per-type traffic accounting, and a reliable
// delivery sublayer (per-link sequence numbers, ack/retransmit with
// exponential backoff, duplicate suppression, in-order reassembly) driven
// against a seeded chaos injector. This is the substitution for the 1992
// workstation network — see DESIGN.md "Substitutions" and "Reliable
// transport & chaos".
//
// On top of the reliable sublayer sits an optional wire-optimisation layer
// (WireConfig): per-link message coalescing into kBatch envelopes via a
// scoped-batch API, and piggybacked cumulative acks with a delayed-ack
// fallback. Both default off; with every knob off the wire behaviour is
// bit-identical to the unbatched transport. See DESIGN.md "Wire-level
// batching & compression".
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/lock_order.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/liveness.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace dsm {

class Tracer;

/// Virtual-time cost of moving a message across one link.
struct LinkModel {
  /// Per-message base latency (wire + protocol stack), nanoseconds.
  VirtualTime latency_ns = 10'000;  // 10 µs, a fast early-90s LAN
  /// Per-byte transfer cost, nanoseconds (100 ns/B ≈ 10 MB/s).
  VirtualTime ns_per_byte = 100;
  /// Cost of a node messaging itself (loopback through the DSM layer).
  VirtualTime loopback_ns = 500;

  VirtualTime cost(NodeId src, NodeId dst, std::size_t bytes) const {
    if (src == dst) return loopback_ns;
    return latency_ns + ns_per_byte * static_cast<VirtualTime>(bytes);
  }
};

/// Ack/retransmit policy of the reliable sublayer. Timeouts are *real* time
/// (a lost message produces no virtual-time event to wait on); each
/// retransmit additionally charges `rto_virtual_ns` to the message's virtual
/// arrival so modeled completion times degrade with loss, like the real
/// thing. At zero loss no retransmit ever fires and virtual results are
/// bit-identical to an unreliable fabric.
struct ReliabilityConfig {
  /// Master switch. Off = the seed's fire-and-forget fabric (any lost
  /// message wedges its waiter forever); kept for overhead measurement.
  bool enabled = true;
  /// Base retransmit timeout, real milliseconds.
  std::uint32_t rto_ms = 5;
  /// Backoff ceiling, real milliseconds (the timeout doubles per retry).
  std::uint32_t rto_max_ms = 200;
  /// Retransmits before the sender gives up (net.gave_up). A permanently
  /// lost protocol message hangs its waiter — that is the watchdog's cue.
  std::uint32_t max_retries = 12;
  /// Virtual-time charge per retransmit (a 90s-era timeout constant).
  VirtualTime rto_virtual_ns = 200'000;
};

/// Max summed wire bytes per kBatch envelope. Also the payload budget of
/// LRC's packed settle-up push, so neither comes near UDP's
/// kMaxDatagramSize.
inline constexpr std::size_t kMaxBatchBytes = 16 * 1024;

/// Wire-level optimisation knobs (all default off; defaults are
/// bit-identical to the unbatched, un-piggybacked, uncompressed wire).
struct WireConfig {
  /// Coalesce messages staged under a Network::BatchScope into kBatch
  /// envelopes: one datagram (one link latency) per same-(src,dst) group.
  bool batching = false;
  /// Max inner messages per envelope; a group larger than this is chunked.
  std::size_t max_batch_msgs = 16;
  /// Piggyback cumulative acks on reverse-direction traffic instead of
  /// completing in-flight entries instantly on accept. A quiet link falls
  /// back to a standalone kAck datagram after `delayed_ack_us`.
  bool piggyback_acks = false;
  /// Delayed-ack timer, real microseconds. Must stay well under the RTO or
  /// quiet-link acks lose the race against the retransmit daemon.
  std::uint32_t delayed_ack_us = 1000;
  /// Zero-run RLE for full-page transfers (consulted by proto/page_io).
  bool compress_pages = false;
  /// XOR-vs-twin + zero-run RLE coding for diffs (consulted by the ERC
  /// update path).
  bool compress_diffs = false;
};

/// Blocking MPSC queue of messages for one node's service thread.
class Mailbox {
 public:
  void push(Message msg);
  /// Blocks until a message is available or the mailbox is closed.
  /// Returns nullopt only after close() with an empty queue.
  std::optional<Message> pop();
  /// Blocks like pop() but takes *everything* queued under one lock
  /// acquisition. Returns an empty deque only after close() with an empty
  /// queue. Burst dispatch for the service loop: one lock + one wakeup per
  /// burst instead of per message.
  std::deque<Message> drain();
  void close();
  std::size_t size() const;

 private:
  // Innermost fabric lock: pushed to under links_/flight_mutex_, and the
  // delivery hook fires checker hooks from under it.
  mutable Mutex mutex_ ACQUIRED_AFTER(lock_order::mailbox_gate)
      ACQUIRED_BEFORE(lock_order::checker_gate);
  CondVar cv_;
  std::deque<Message> queue_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

/// N-endpoint fabric with reliable, per-link-FIFO delivery.
///
/// Delivery order: messages from the same (src,dst) pair are delivered in
/// send order (link FIFO), matching what DSM protocols of this era assumed
/// from their transport. The reliable sublayer preserves this invariant
/// under loss, duplication, and reordering: receivers suppress duplicate
/// sequence numbers and hold out-of-order arrivals until the gap fills.
/// A kBatch envelope occupies the seq range [seq, seq+count) and is deduped,
/// reordered, and retransmitted as a unit; on accept it unpacks into `count`
/// in-order deliveries. Cross-source interleaving at a destination is
/// arbitrary, as on a real network.
///
/// Acknowledgements are internal to the fabric (the in-process analogue of
/// a transport-level ack): accepting an eligible message completes the
/// sender's in-flight entry directly, unless chaos decides the ack was lost
/// — in which case the retransmit daemon resends and the receiver dedups.
/// With `wire.piggyback_acks` the receiver instead records a cumulative ack
/// for the link and attaches it to the next reverse-direction send
/// (Message::ack_upto), emitting a standalone kAck datagram only when the
/// delayed-ack timer expires first.
class Network {
 public:
  Network(std::size_t n_nodes, LinkModel link, StatsRegistry* stats,
          ReliabilityConfig reliability = {}, ChaosConfig chaos = {},
          WireConfig wire = {}, Tracer* tracer = nullptr,
          TransportConfig transport = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::size_t size() const { return mailboxes_.size(); }
  const LinkModel& link() const { return link_; }
  const ReliabilityConfig& reliability() const { return reliability_; }
  const WireConfig& wire() const { return wire_; }
  const Transport& transport() const { return *transport_; }
  const TransportConfig& transport_config() const { return transport_cfg_; }

  /// Receiver-side entry point for transport backends: a wire attempt has
  /// crossed the fabric and enters ack/dedup/reorder/delivery. Called by
  /// InprocTransport synchronously from the sender and by UdpTransport from
  /// its receiver threads.
  void receive(Message msg, std::uint32_t attempt);

  /// RAII batching window. While the calling thread holds an active scope,
  /// reliable-eligible sends on this network are staged instead of
  /// transmitted; closing the scope (or calling flush()) groups them by
  /// destination and ships each group as one kBatch envelope. Inert when
  /// batching is off, when `net` is null, or when nested inside another
  /// active scope on the same thread.
  class BatchScope {
   public:
    explicit BatchScope(Network* net);
    ~BatchScope();
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;
    /// Ships everything staged so far; the scope stays open for more.
    void flush();

   private:
    friend class Network;
    Network* net_ = nullptr;  // null when inert
    std::vector<Message> staged_;
  };

  /// Assigns a sequence number (protocol traffic between distinct nodes),
  /// tracks the message for retransmission, and attempts the wire transfer.
  /// Chaos may drop/duplicate/delay the attempt; the retransmit daemon
  /// recovers dropped attempts until `max_retries` is exhausted. Under an
  /// active BatchScope on this thread, eligible messages are staged instead.
  void send(Message msg);

  /// Ships the calling thread's staged batch (if a scope is open on this
  /// network); no-op otherwise.
  void flush();

  /// Sends a copy of `prototype` to every node in `destinations`
  /// (dst/arrival stamped per copy). Models point-to-point multicast.
  void multicast(std::span<const NodeId> destinations, const Message& prototype);

  /// Blocking receive for `node`'s service thread.
  std::optional<Message> recv(NodeId node);

  /// Blocking burst receive: everything queued for `node`, in order.
  /// Empty only after shutdown with an empty mailbox.
  std::deque<Message> recv_all(NodeId node);

  /// Stops the retransmit daemon and closes every mailbox, releasing all
  /// blocked receivers.
  void shutdown();

  /// Wire-level fault filter for deterministic tests: return true to drop
  /// this attempt. Applied before chaos; the reliable sublayer still
  /// retransmits. Install before traffic starts.
  void set_drop_hook(std::function<bool(const Message&)> hook) {
    drop_hook_ = std::move(hook);
  }

  /// Observer invoked for every message accepted into a mailbox (after
  /// dedup/reorder, in final delivery order). Used by dsmcheck to verify
  /// per-link sequence contiguity. Runs under internal locks — the hook
  /// must not call back into the Network. Install before traffic starts.
  void set_delivery_hook(std::function<void(const Message&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Observer invoked once per accepted kBatch envelope, before its inner
  /// messages are delivered. Used by dsmcheck to verify the envelope lands
  /// exactly at the link's expected seq. Same locking caveats as the
  /// delivery hook.
  void set_batch_hook(std::function<void(const Message&, std::uint32_t)> hook) {
    batch_hook_ = std::move(hook);
  }

  /// Injects a node stall: deliveries to `node` are held for `us` real
  /// microseconds from now (the chaos pause injector's explicit form).
  void inject_pause(NodeId node, std::uint32_t us);

  // --- peer liveness (crash fault tolerance) -------------------------------
  /// The fabric-wide liveness table. Always present; only consulted for
  /// dead-drops and give-up announcements when FT mode is on (set_ft).
  Liveness& liveness() { return liveness_; }
  const Liveness& liveness() const { return liveness_; }

  /// Enables FT behaviour: sends touching a dead endpoint are dropped
  /// (net.dead_dropped) instead of retransmitted into the void, and a link
  /// whose bounded retries are exhausted marks its peer dead and announces
  /// kPeerDown to every hosted node (net.peer_dead) — the observable
  /// dead-peer state behind the former count-only net.gave_up.
  void set_ft(bool enabled) { ft_ = enabled; }

  /// Declares `node` dead: marks the liveness table, purges all in-flight /
  /// delayed traffic touching it, and posts kPeerDown(node, restart) to every
  /// hosted node's mailbox (local post, never the wire). Idempotent.
  void announce_death(NodeId node, bool restart);

  /// Posts kPeerUp(node) to every hosted node. The caller (restart path)
  /// must have reset protocol/link state and marked the liveness table
  /// *before* this so observers of the announcement see consistent state.
  void announce_alive(NodeId node);

  /// Resets both directions of every link touching `node` to "next send seq"
  /// and clears reorder buffers — the in-process restart path, where send
  /// counters persist across the death.
  void reset_links_for(NodeId node);

  /// A peer's UDP datagrams arrived under a higher incarnation: the process
  /// behind `src` was respawned. Purges old flight state, zeroes both seq
  /// directions (the new process counts from 0 and expects us to), marks the
  /// peer alive again, and posts kPeerUp to the hosted node.
  void peer_restarted(NodeId src);

  /// Messages accepted into mailboxes so far (dedup-suppressed duplicates
  /// and dropped attempts excluded) — the count the service loops will see.
  std::uint64_t messages_sent() const { return messages_sent_.value(); }

  /// True when no unacked message awaits retransmission, no delayed
  /// delivery is pending, and no delayed ack is armed; with
  /// `messages_sent() == processed` this makes the fabric quiescent (see
  /// System::drain).
  bool idle() const;

  /// One-line-per-item diagnostic dump of in-flight and delayed messages
  /// and per-link reassembly state (watchdog reports).
  void debug_dump(std::ostream& os) const;

 private:
  using SteadyTime = realclock::TimePoint;

  /// Per-(src,dst) receiver-side reliable-channel state: `expected` is the
  /// next seq to deliver; later arrivals park in `reorder`. (The sender
  /// side is the lock-free `send_seq_` array.)
  struct LinkState {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Message> reorder;
  };

  /// An unacked reliable message awaiting (re)transmission. A kBatch
  /// envelope covers `count` consecutive seqs with one entry.
  struct InFlight {
    Message msg;
    std::uint32_t count = 1;    // seqs covered: [msg.seq, msg.seq + count)
    std::uint32_t attempt = 0;  // retransmits so far
    SteadyTime deadline;
  };
  /// Key: (src*n_nodes + dst, seq).
  using FlightKey = std::pair<std::size_t, std::uint64_t>;

  /// A chaos-delayed or pause-held delivery. `pre_wire` distinguishes the
  /// two: a chaos delay holds the attempt *before* it crosses the transport
  /// (re-shipped when due), a pause holds an already-arrived message on the
  /// receiver side (re-enters arrive when due).
  struct Delayed {
    SteadyTime due;
    Message msg;
    std::uint32_t attempt = 0;
    bool pre_wire = false;
  };

  /// A cumulative ack waiting to piggyback on reverse traffic; if nothing
  /// travels the reverse link by `due`, the daemon emits a standalone kAck.
  struct PendingAck {
    std::uint64_t upto = 0;  // acks every seq < upto on the keyed link
    SteadyTime due;
  };

  /// True for traffic the reliable sublayer covers: protocol messages
  /// between distinct nodes. Control (Shutdown/Wakeup) and loopback are
  /// delivered directly — an in-process self-send cannot be lost.
  static bool reliable_eligible(const Message& msg) {
    return msg.src != msg.dst && msg.type != MsgType::kShutdown &&
           msg.type != MsgType::kWakeup;
  }

  std::size_t link_index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * mailboxes_.size() + dst;
  }

  /// The non-staging send path: seq assignment, flight tracking, attempt 0.
  void send_now(Message msg);
  /// Groups staged messages by destination and ships each group as kBatch
  /// envelopes (singleton groups go out as plain messages).
  void flush_staged(std::vector<Message>& staged);
  /// Inserts the flight entry, attaches any pending reverse-link ack, and
  /// wakes the daemon — one flight_mutex_ critical section.
  void track_inflight(Message& msg, std::uint32_t count);
  /// One transfer attempt: test hook + chaos (drop/duplicate/delay), then
  /// arrival. Called from send paths (attempt 0) and the daemon.
  void wire_attempt(Message msg, std::uint32_t attempt);
  /// Receiver side: ack (unless chaos eats it), dedup, reorder, deliver.
  void arrive(Message msg, std::uint32_t attempt);
  /// Accepts the in-order message at the head of its link (caller holds
  /// links_mutex_): unpacks kBatch envelopes, advances `expected` by the
  /// seq span, and delivers.
  void accept_front(LinkState& st, Message msg) REQUIRES(links_mutex_);
  /// Final step: traffic accounting + mailbox push, in-order per link.
  void deliver(Message msg);
  /// The net.msgs.<type> counter, registered on the type's first delivery.
  Counter& msgs_of(MsgType type);
  /// Completes (erases) the sender's in-flight entry — the internal ack.
  void complete_inflight(const Message& msg);
  /// Completes every in-flight entry on `link` fully below `upto`
  /// (cumulative ack, piggybacked or standalone).
  void complete_upto(std::size_t link, std::uint64_t upto);
  /// Records/extends the pending cumulative ack for `link` (piggyback
  /// mode), arming the delayed-ack timer on first record.
  void note_pending_ack(std::size_t link, std::uint64_t upto);
  /// Emits a cumulative kAck datagram for `link` (data direction src→dst;
  /// the ack travels dst→src). Wire-ack transports only; upto == 0 (nothing
  /// delivered yet — 0 is the header's "no ack" sentinel) is skipped.
  void send_wire_ack(std::size_t link, std::uint64_t upto);
  /// Queues a delivery for the daemon at `due`.
  void defer(Message msg, std::uint32_t attempt, SteadyTime due, bool pre_wire);

  /// FT: true (and counted) when `msg` touches a dead endpoint and is not
  /// exempt control traffic — the send is dropped instead of tracked.
  bool dead_drop(const Message& msg);
  /// Purges in-flight / delayed entries and pending acks touching `node`.
  void purge_flight_state(NodeId node);
  /// Local-post helper: stamps arrival = send time and delivers directly to
  /// `dst`'s mailbox, bypassing seq assignment and the wire.
  void post_local(NodeId dst, Message msg);
  /// The nodes whose mailboxes live in this process (all of them inproc;
  /// just the local rank under dsmrun).
  std::vector<NodeId> hosted_nodes() const;

  void daemon_loop();
  void stop_daemon();

  static thread_local BatchScope* active_scope_;

  LinkModel link_;
  StatsRegistry* stats_;
  Tracer* tracer_;  // null when tracing is off
  ReliabilityConfig reliability_;
  ChaosEngine chaos_;
  WireConfig wire_;
  TransportConfig transport_cfg_;
  Liveness liveness_;
  bool ft_ = false;
  std::vector<Mailbox> mailboxes_;
  std::function<bool(const Message&)> drop_hook_;
  std::function<void(const Message&)> delivery_hook_;
  std::function<void(const Message&, std::uint32_t)> batch_hook_;

  // Sender-side seq assignment: lock-free per-link counters. Out-of-order
  // wire attempts that a race here could produce are already handled by the
  // receiver's reorder buffer.
  std::vector<std::atomic<std::uint64_t>> send_seq_;

  // Receiver channel state (dedup, reorder). Fabric layer: acquired under
  // entry/protocol locks (sends from the fault path) and above the mailbox
  // lock (accept_front delivers while holding it). Never nested with
  // flight_mutex_ — both sit in the same lock-order bracket.
  mutable Mutex links_mutex_ ACQUIRED_AFTER(lock_order::fabric_gate)
      ACQUIRED_BEFORE(lock_order::mailbox_gate);
  std::vector<LinkState> links_ GUARDED_BY(links_mutex_);

  // Retransmit daemon state: unacked messages, delayed deliveries, pending
  // delayed acks, pauses.
  mutable Mutex flight_mutex_ ACQUIRED_AFTER(lock_order::fabric_gate)
      ACQUIRED_BEFORE(lock_order::mailbox_gate);
  CondVar flight_cv_;
  std::map<FlightKey, InFlight> in_flight_ GUARDED_BY(flight_mutex_);
  std::vector<Delayed> delayed_ GUARDED_BY(flight_mutex_);  // min-heap by `due`
  std::unordered_map<std::size_t, PendingAck> pending_acks_
      GUARDED_BY(flight_mutex_);
  std::vector<SteadyTime> pause_until_ GUARDED_BY(flight_mutex_);
  bool stopping_ GUARDED_BY(flight_mutex_) = false;
  std::thread daemon_;

  /// The backend moving wire attempts. Constructed (and started) last in the
  /// ctor, stopped first in shutdown()/~Network: its receiver threads call
  /// back into a fully-built Network and must be joined before mailboxes
  /// close or fabric state is torn down.
  std::unique_ptr<Transport> transport_;

  // Cached hot counters (StatsRegistry lookup is a lock + map walk).
  Counter messages_sent_;
  Counter& dropped_;
  Counter& retransmits_;
  Counter& dups_suppressed_;
  Counter& acks_;
  Counter& acks_dropped_;
  Counter& gave_up_;
  Counter& delayed_count_;
  Counter& pauses_;
  Counter& datagrams_;
  Counter& batches_;
  Counter& batched_msgs_;
  Counter& acks_piggybacked_;
  Counter& acks_standalone_;
  Counter& acks_wire_;
  Counter& bytes_saved_;
  Counter& dead_dropped_;
  Counter& peer_dead_;
  Counter& msgs_;
  Counter& bytes_;
  Histogram& msg_size_;
  /// net.msgs.<type> by MsgType; null until the type is first delivered, so
  /// a snapshot lists only the types that travelled.
  std::array<std::atomic<Counter*>, static_cast<std::size_t>(MsgType::kCount_)> msgs_by_type_{};
};

/// kPeerDown / kPeerUp payload codec: u32 peer | u8 restart-intent.
std::vector<std::byte> pack_peer_event(NodeId peer, bool restart);
void unpack_peer_event(std::span<const std::byte> payload, NodeId* peer, bool* restart);

}  // namespace dsm
