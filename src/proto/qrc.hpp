// Quorum-replicated release consistency (QRC) — the crash-fault-tolerant
// protocol family member. Page authority is not one home node but a replica
// group of `Config::ft.replication` consecutive nodes starting at the page's
// home; the group's first *live* member acts as primary. Clients (every
// node) fault pages in from the primary and, ERC-style, write locally behind
// twins, flushing value-form diffs to the primary at every release/barrier.
// The primary serializes writes per page, stamps each with a monotone tag
// (the SC-ABD-style write tag), pushes the diff to every live backup, and
// acks the writer only once every live group member stores the tagged value
// — a read-one/write-all-live quorum whose recovery protocol (kReplRecover:
// poll the group, adopt the max tag) preserves every acknowledged write as
// long as at most floor((replication-1)/2) group members are down at once.
//
// Failover is eager: on a kPeerDown announcement the next live member
// recovers primaryship (parking requests meanwhile), clients self-invalidate
// copies served by the dead primary and re-send outstanding fetches and
// flushes, and a restarted member resyncs through the same recovery flow
// before serving again. Diffs are always the value form (never XOR): a
// re-sent flush or replayed sync must be idempotent against any base.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "proto/protocol.hpp"
#include "proto/twin_set.hpp"

namespace dsm {

class QrcProtocol final : public Protocol {
 public:
  explicit QrcProtocol(NodeContext& ctx);

  std::string_view name() const override { return "qrc"; }
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

  void before_release(LockId) override { flush_dirty(); }
  void before_barrier(BarrierId) override { flush_dirty(); }

  void on_peer_down(NodeId peer) override;
  void on_peer_up(NodeId peer) override;
  void on_self_restart() override;

  /// Replica-group membership (tests): the `replication` nodes starting at
  /// the page's home.
  bool in_group(PageId page, NodeId node) const;
  /// First live group member — the acting primary (tests).
  NodeId primary_of(PageId page) const;

 private:
  /// One member's durable copy of a page: the tagged value the quorum
  /// protocol replicates. Strictly off-view — a node's *client* copy of the
  /// same page lives in the view like any other protocol's.
  struct Replica {
    std::uint64_t tag = 0;
    std::vector<std::byte> data;
  };

  /// Primary-side per-page write transaction (one at a time per page; later
  /// writers park). `pending_*` are node sets, not counts, so a member's
  /// death can retire exactly its outstanding acks.
  struct Txn {
    NodeId writer = kNoNode;
    std::uint64_t tag = 0;
    std::vector<std::byte> diff;     // value form
    std::set<NodeId> pending_sync;   // backups + keeper pushes awaiting ack
    std::set<NodeId> pending_inval;  // copyset holders awaiting invalidate ack
    std::vector<NodeId> keepers;     // dirty holders to push the diff to
    bool keeper_phase = false;       // invalidations done, keeper pushes sent
  };

  /// An in-progress primaryship takeover or restart resync for one page.
  struct Recovery {
    std::set<NodeId> pending;
    realclock::TimePoint started;
  };

  std::size_t repl() const;
  std::vector<NodeId> group_of(PageId page) const;
  std::vector<NodeId> live_members(PageId page, bool exclude_self) const;

  void flush_dirty();
  void send_fetch(PageId page);
  /// A read or write request this node must serve as the page's primary;
  /// otherwise parks it behind a recovery or forwards it to the primary.
  bool at_primary(const Message& msg, PageId page);

  // Service-thread handlers. All primary-side state (store_, txns_, parked_,
  // copyset_, recovering_) is touched by this node's service thread only —
  // single-threaded by construction, no locking needed.
  void handle_read(const Message& msg);
  void handle_read_reply(const Message& msg);
  void handle_write(const Message& msg);
  void handle_write_ack(const Message& msg);
  void handle_sync(const Message& msg);
  void handle_sync_ack(const Message& msg);
  void handle_invalidate_ack(const Message& msg);
  void handle_recover(const Message& msg);
  void handle_recover_reply(const Message& msg);

  /// Advance the txn state machine: start the keeper phase when
  /// invalidations settle, finish (ack writer, replay parked) when all
  /// pending sets drain.
  void txn_advance(PageId page);
  void txn_finish(PageId page);
  void replay_parked(PageId page);
  /// Begin recovering primaryship / membership for `page` by polling every
  /// other live group member.
  void start_recovery(PageId page);
  void finish_recovery(PageId page);

  // --- replica-group state (service thread only) ---------------------------
  std::map<PageId, Replica> store_;
  std::map<PageId, Txn> txns_;
  std::map<PageId, std::deque<Message>> parked_;
  std::map<PageId, std::set<NodeId>> copyset_;
  std::map<PageId, Recovery> recovering_;
  std::map<PageId, std::deque<Message>> parked_syncs_;  // backup mid-resync
  std::set<NodeId> dead_handled_;  // failover ran; makes kPeerDown idempotent

  // --- client state ---------------------------------------------------------
  TwinSet twins_;

  // One ack per flushed page, from its primary once every live group member
  // stores the write.
  AckCount flush_acks_;
  // Each flush with the primary it was sent to, so a failover can re-aim it.
  Unacked unacked_;

  // Outstanding page fetches and who they were sent to, so a failover can
  // re-aim them (app thread registers, service thread retires/re-sends).
  Mutex client_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::map<PageId, NodeId> fetching_ GUARDED_BY(client_mutex_);
};

}  // namespace dsm
