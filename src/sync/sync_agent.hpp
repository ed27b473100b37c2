// Distributed synchronization: queue-based locks (two policies) and a
// centralized sense-counting barrier. The SyncAgent owns the mechanics;
// consistency protocols piggyback their payloads (write notices, bound data)
// through the Protocol hooks at well-defined points:
//
//   acquire:  fill_lock_request ──request──▶ grantor: fill_lock_grant
//             ◀──grant── on_lock_granted (service thread) → app resumes
//   release:  before_release (flush/interval close), then grant or release
//   barrier:  before_barrier + fill_barrier_arrive ──▶ manager collects
//             (on_barrier_collect), then fill_barrier_release ──▶ everyone
//             runs on_barrier_release.
//
// Lock policies (compared by bench_locks, F5):
//   * kCentralized — request/grant/release all via the lock's home node;
//     the home stores the last release payload and ships it with grants.
//     A centralized mutex is the write mode of the home-managed
//     reader-writer lock: one home state machine serves both.
//   * kForwardChain — the home only remembers the chain tail and forwards
//     each request to it; grants flow holder → next holder directly, and an
//     uncontended re-acquire by the last holder is free (lock caching).
#pragma once

#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "core/context.hpp"
#include "net/message.hpp"
#include "proto/protocol.hpp"

namespace dsm {

class SyncAgent {
 public:
  SyncAgent(NodeContext& ctx, Protocol& protocol);

  // --- application-thread operations --------------------------------------
  void acquire(LockId lock);
  void release(LockId lock);
  /// Reader-writer mode: any number of concurrent readers OR one writer.
  /// Managed at the lock's home under every policy; queued writers block new
  /// readers. Grants carry the same consistency payload as write grants, so
  /// a reader sees everything the last writer released.
  void acquire_read(LockId lock);
  void release_read(LockId lock);
  /// The writer side of reader-writer mode. (Distinct from acquire() under
  /// forward-chain: rw locks are always home-managed and never cache the
  /// token. Under kCentralized the two are the same operation.)
  void acquire_write(LockId lock);
  void release_write(LockId lock);
  void barrier(BarrierId barrier);

  /// True for message types this agent dispatches (the runtime routes all
  /// other types to the protocol).
  static bool handles(MsgType type);

  // --- service-thread dispatch ---------------------------------------------
  void on_message(const Message& msg);

  // --- peer liveness (crash fault tolerance) -------------------------------
  /// Service thread, every node: `peer` died. The lock home (node 0 under
  /// FT) regenerates tokens the dead holder held, purges its queued
  /// requests, and re-checks barrier rounds against the shrunk live worker
  /// set. Idempotent (the detector may announce a death twice).
  void on_peer_down(NodeId peer);
  /// Service thread: `peer` rejoined the memory fabric. Its worker stays
  /// dead (restarted nodes serve pages; they do not rejoin the computation),
  /// so lock and barrier state need no changes — kept for symmetry.
  void on_peer_up(NodeId peer);
  /// Restarting node's own service thread: wipe local lock state.
  void on_self_restart();

 private:
  struct HomeLock {
    // Home-managed modes. A lock id is used in either mutex mode or rw mode
    // by the application, not both at once.
    NodeId writer = kNoNode;
    std::set<NodeId> readers;  // one hold per node: its gate orders them
    std::deque<NodeId> read_queue;            // requester ids, FIFO
    std::deque<NodeId> write_queue;
    std::vector<std::byte> release_payload;   // last release's payload
    NodeId tail = kNoNode;                    // forward-chain: last requester
  };
  struct LocalLock {
    bool have_token = false;            // forward-chain: the token is here
    std::optional<std::uint8_t> held;   // request mode, acquire() return to release()
    bool granted = false;               // grant arrived; app thread may resume
    std::optional<Message> successor;   // forwarded request awaiting our release
    // Multi-threaded nodes: at most one app thread per (node, lock) may be
    // between acquire entry and release exit at a time. The gate keeps the
    // single request/grant/token plumbing above valid with N app threads —
    // a second local acquirer waits here and then rides the normal path
    // (for forward-chain, usually the cached-token fast path). `owner_ktid`
    // distinguishes a recursive acquire by the holding thread (still a bug,
    // still aborts) from a different thread waiting its turn.
    bool busy = false;
    std::uint32_t owner_ktid = 0;
  };

  /// The request mode acquire()/release() use under the lock policy.
  std::uint8_t mutex_mode() const;
  /// App side, every mode: pass the node's per-lock gate, then take the
  /// cached forward-chain token or request the lock and wait for the grant.
  void acquire_as(LockId lock, std::uint8_t mode, const char* span_name);
  /// App side, every mode: flush, then hand a forward-chain token to its
  /// successor or return a home-managed grant (with the release payload),
  /// and only then open the node's per-lock gate.
  void release_as(LockId lock, std::uint8_t mode);

  void handle_lock_request(const Message& msg);
  void handle_lock_grant(const Message& msg);
  void handle_lock_release(const Message& msg);
  /// Home side: takes every queued request now admissible off its queue and
  /// records its holder. Writer preference: a queued writer goes next once
  /// readers drain; otherwise every queued reader is admitted at once.
  std::vector<NodeId> admit(HomeLock& H) REQUIRES(mutex_);
  /// Home side: grants `to` with the last release payload.
  void send_home_grants(LockId lock, const std::vector<NodeId>& to);
  void handle_barrier_arrive(const Message& msg);
  void handle_barrier_release(const Message& msg);
  /// Manager: has every live worker arrived (phase 0) / acked (phase 1)?
  /// Completes the round if so. Called on arrival and on a peer death.
  void maybe_complete_barrier(BarrierId barrier);
  void broadcast_barrier_release(BarrierId barrier, std::uint8_t phase,
                                 std::vector<std::byte> payload);

  /// ThreadId of the calling app thread for checker epochs: the current
  /// thread's attachment if it belongs to this node, else 0 (service
  /// threads and single-thread runs).
  ThreadId self_tid() const;

  /// Home-side (forward-chain): route a fresh request to the chain tail.
  void route_to_tail(LockId lock, NodeId origin, std::span<const std::byte> payload);
  /// Holder-side (forward-chain): grant the token to `origin` now.
  void send_grant(LockId lock, NodeId origin, std::span<const std::byte> request_payload);

  NodeContext& ctx_;
  Protocol& protocol_;

  // Held across checker lock/barrier hooks (sync → checker is a real
  // nesting edge) but never across sends — grants and broadcasts are
  // composed and shipped outside the guard scopes.
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar cv_;
  std::vector<HomeLock> home_ GUARDED_BY(mutex_);   // by LockId; home == self
  std::vector<LocalLock> local_ GUARDED_BY(mutex_); // indexed by LockId
  std::vector<std::uint64_t> barrier_gen_
      GUARDED_BY(mutex_);                           // client: generations released
  std::vector<std::uint64_t> barrier_entered_
      GUARDED_BY(mutex_);                           // client: generations entered
  // Multi-threaded nodes: serializes this node's app threads through a
  // barrier id one rendezvous at a time. The home collapses arrivals into a
  // per-round identity set, so two concurrent arrivals from one node would
  // merge into a single round and strand the second thread; gating turns
  // them into sequential rounds instead (every node must then enter the
  // barrier the same total number of times, the usual SPMD contract).
  std::vector<bool> barrier_busy_ GUARDED_BY(mutex_);
  // Manager-side rendezvous state, per barrier id. Identity sets instead of
  // counters so a round can settle against the *live* worker set when a
  // participant dies mid-round (a dead arrival must not stand in for a live
  // worker that has yet to arrive).
  std::vector<std::set<NodeId>> barrier_arrived_
      GUARDED_BY(mutex_);                           // manager: arrivals this round
  std::vector<std::set<NodeId>> barrier_acked_
      GUARDED_BY(mutex_);                           // manager: settlement acks
};

}  // namespace dsm
