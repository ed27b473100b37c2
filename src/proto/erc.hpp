// Eager release consistency (Munin's write-shared protocol, home-based).
// Writers modify local copies freely between synchronization points (twins
// track their changes); at every release/barrier the writer flushes diffs to
// each page's *home*, whose copy is always authoritative, and the release
// does not complete until the home has either
//   * invalidated every other copy (invalidate mode), or
//   * propagated the diff to every other copy (update mode — this is the
//     multiple-writer protocol that defeats false sharing, see F2).
// Acquire moves no data: a node that lost its copy re-fetches from the home
// on its next fault.
#pragma once

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

class ErcProtocol final : public Protocol {
 public:
  enum class Mode { kInvalidate, kUpdate };

  ErcProtocol(NodeContext& ctx, Mode mode);

  std::string_view name() const override;
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

  void before_release(LockId) override { flush_dirty(); }
  void before_barrier(BarrierId) override { flush_dirty(); }

  // Crash fault tolerance (invalidate mode, Config::ft): the cheap
  // checkpoint/recovery path. Every Nth home version of a page is
  // snapshotted to the home's buddy (the next node); a restarted home
  // replays the buddy's snapshots — losing at most checkpoint_period - 1
  // versions per page — while parking requests behind the restore.
  void on_peer_down(NodeId peer) override;
  void on_peer_up(NodeId peer) override;
  void on_self_restart() override;

  /// The node holding this node's checkpoints (tests).
  NodeId buddy() const {
    return static_cast<NodeId>((ctx_.id + 1) % ctx_.n_nodes);
  }

 private:
  /// Sends every dirty page's diff to its home and blocks until all homes
  /// acknowledge — the "eager" in eager release consistency.
  void flush_dirty();

  void handle_page_request(const Message& msg);  // at the home
  void handle_page_reply(const Message& msg);    // at the faulter
  void handle_update(const Message& msg);        // home (from writer) or holder (from home)
  void handle_update_ack(const Message& msg);    // home (from holder) or writer (final)
  void handle_invalidate_ack(const Message& msg);// at the home

  /// Home-side per-page release transaction. Invalidate mode may run two
  /// phases: invalidate clean copies, then push the diff to dirty "keepers"
  /// (concurrent writers whose copies cannot be destroyed but must still
  /// observe the released words — the correctness hole naive invalidation
  /// leaves under false sharing). `pending` is a node set, not a count, so
  /// a member's death can retire exactly its outstanding acks.
  struct HomeTxn {
    NodeId writer = kNoNode;
    std::set<NodeId> pending;
    bool keeper_phase = false;
    std::vector<NodeId> keepers;
    std::vector<std::byte> diff;
  };

  /// One buddy-held page snapshot (kCkptStore payload).
  struct Ckpt {
    std::uint32_t version = 0;
    std::vector<std::byte> bytes;
  };

  /// Home-side: begin (or park) the transaction for a writer's diff.
  void home_begin_transaction(const Message& msg);
  /// Home-side: transaction finished — ack the writer, replay parked.
  void home_finish_transaction(PageId page);
  /// Home-side: all invalidate acks in; either finish or push to keepers.
  void home_after_invalidations(PageId page);
  /// Home-side: retires `from`'s ack (a keeper joins the keeper phase).
  void retire_ack(PageId page, NodeId from, bool keeper);
  /// Home-side: an ack set drained — next phase or finish.
  void home_txn_advance(PageId page);
  /// Home-side, after a transaction: snapshot the page to the buddy when its
  /// version hits a checkpoint boundary.
  void maybe_checkpoint(PageId page);

  void handle_ckpt_store(const Message& msg);  // at the buddy
  void handle_ckpt_fetch(const Message& msg);  // at the buddy
  void handle_ckpt_data(const Message& msg);   // at the restarted home

  bool ft() const { return ctx_.cfg->ft.enabled; }

  Mode mode_;
  TwinSet twins_;

  Mutex txn_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::map<PageId, HomeTxn> txns_ GUARDED_BY(txn_mutex_);

  // One ack per flushed page, from its home once the release transaction
  // completed there.
  AckCount flush_acks_;
  // FT only: flushes to other homes, each with the home's incarnation at the
  // send, so a flush the home's crash lost is re-sent to its restart.
  Unacked unacked_;

  // --- checkpoint state (service thread only) -------------------------------
  std::map<PageId, Ckpt> ckpt_store_;  // snapshots held for our predecessor
  bool restoring_ = false;             // home pages not yet replayed
  std::deque<Message> restore_parked_;
  realclock::TimePoint restore_started_{};
};

}  // namespace dsm
