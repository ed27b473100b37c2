// Lazy release consistency (TreadMarks). Nothing moves at release time;
// instead each sync operation closes an *interval* whose modified pages are
// recorded as *write notices*. A lock grant piggybacks only the notices the
// acquirer has not seen (filtered by its vector clock); the acquirer
// invalidates those pages and fetches the actual *diffs* lazily, on its next
// fault, directly from the writers: the fault sends the first request (a
// base copy from the home, or the diffs) and the service thread completes
// the base-and-diff fetch as the replies land. Barriers are the global
// settle-up: every node ships its intervals *with* diffs to the manager,
// which broadcasts the merged set; everyone applies, and all protocol
// metadata is garbage collected.
//
// Diffs are applied in stamp order: a diff is stamped with the sum of its
// interval's vector clock, which strictly grows along happens-before, so
// any two happens-before-related diffs apply in that order (concurrent ones
// break ties by writer). For data-race-free programs (the only programs LRC
// gives guarantees for) this reproduces the happens-before order of
// conflicting writes.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "proto/notice_log.hpp"
#include "proto/protocol.hpp"
#include "proto/twin_set.hpp"

namespace dsm {

class LrcProtocol final : public Protocol {
 public:
  explicit LrcProtocol(NodeContext& ctx);

  std::string_view name() const override;
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

  // Lock payloads are the notice log's; barrier payloads prefix it with
  // the settle flag (see lrc.cpp).
  void fill_lock_request(LockId, WireWriter& out) override { log_.fill_request(out); }
  void fill_lock_grant(LockId, NodeId, std::span<const std::byte> request_payload,
                       WireWriter& out) override {
    log_.fill_grant(request_payload, out);
  }
  void on_lock_granted(LockId, WireReader& in) override { log_.on_grant(in); }
  void before_release(LockId) override { close_interval(); }
  void before_barrier(BarrierId) override;
  void fill_barrier_arrive(BarrierId, WireWriter& out) override;
  void on_barrier_collect(BarrierId, NodeId from, WireReader& in) override;
  void fill_barrier_release(BarrierId, WireWriter& out) override;
  void on_barrier_release(BarrierId, WireReader& in) override;
  /// Two-phase completion is required exactly for settle-up rounds (see
  /// Config::lrc_gc_period): after a GC the pending notices are gone, so a
  /// cold fault must not reach a home that has not applied the diffs yet.
  /// Lazy rounds retain notices and diff caches, making early resumption
  /// safe. The flag reflects the release processed last on this node's
  /// service thread, which is the thread that queries it.
  bool barrier_needs_settlement() const override { return last_release_was_settle_; }

  /// Test hooks.
  const VectorClock& vclock() const { return log_.vclock(); }
  std::size_t cached_diffs() const;

 private:
  /// An unapplied write notice parked at a page.
  struct WriteNotice {
    NodeId writer = kNoNode;
    std::uint32_t interval = 0;
  };
  /// A cached or fetched diff.
  struct DiffRecord {
    std::uint32_t interval = 0;
    std::uint64_t stamp = 0;  // NoticeLog::stamp() at its interval's close
    NodeId writer = kNoNode;
    std::vector<std::byte> bytes;
  };

  /// Closes the current interval if any pages are dirty: encodes and caches
  /// diffs, downgrades pages to read-only, records the interval. App thread.
  void close_interval();

  /// A fault's fetch (run_fault, with the page busy): asks the home for a
  /// base copy or, with a base there, the pending notices' writers for
  /// their diffs.
  void fetch(PageId page);
  /// Takes the page's pending notices into the transaction and sends one
  /// diff request per writer, or with none completes it.
  void request_diffs(PageId page, PageEntry& e) REQUIRES(e.mutex);
  /// Applies the fetched diffs in stamp order and ends the transaction. The
  /// copy becomes readable (writable if its interval is still open) unless
  /// a notice arrived during the fetch; then it stays invalid and the fault
  /// fetches again.
  void complete(PageId page, PageEntry& e) REQUIRES(e.mutex);

  void handle_page_request(const Message& msg);
  void handle_page_reply(const Message& msg);
  void handle_diff_request(const Message& msg);
  void handle_diff_reply(const Message& msg);

  /// A notice parks at its page and invalidates the copy; guards the diff
  /// state below.
  NoticeLog log_;
  /// My own diffs: page → records ascending by interval.
  std::map<PageId, std::vector<DiffRecord>> diff_cache_ GUARDED_BY(log_.mutex);

  // ---- per page, guarded by that page's entry mutex ----
  /// Notices learned and not yet requested.
  std::vector<std::vector<WriteNotice>> pending_;
  /// The in-flight fetch's diff replies so far.
  std::vector<std::vector<DiffRecord>> inbox_;

  TwinSet twins_;

  /// Settle round, app-thread side: unicast every cached diff to its page's
  /// home, packed per home into kUpdates of at most kMaxBatchBytes, and
  /// block until all are acknowledged. Runs in before_barrier, so every home
  /// holds the complete epoch before any node arrives.
  void push_diffs_to_homes();

  // ---- barrier bookkeeping ----
  /// Generations per barrier id (app thread only): deterministic and equal
  /// on every node, so all nodes agree on which rounds settle.
  std::map<BarrierId, std::uint64_t> barrier_gen_;
  /// Set in before_barrier (app thread), read by fill_barrier_arrive on the
  /// same thread: this round is a settle-up.
  bool arriving_at_settle_ = false;
  /// Set by on_barrier_release, read by barrier_needs_settlement() on the
  /// same service thread.
  bool last_release_was_settle_ = false;

  /// Home-side buffer of diffs pushed for the current settle round,
  /// applied in stamp order at the release.
  std::map<PageId, std::vector<DiffRecord>> settle_buffer_ GUARDED_BY(log_.mutex);
  /// Push-acknowledgement rendezvous (app thread ↔ service thread).
  AckCount push_acks_;

  /// Barrier manager: the arrivals' settle flag, which must agree.
  std::optional<bool> barrier_settle_round_;
};

}  // namespace dsm
