// The write-notice log of the lazy release-consistent protocols (lrc, hlrc):
// TreadMarks' intervals and vector timestamps. Every release or barrier
// that dirtied pages closes one *interval* of its node; the interval's
// record names the pages it modified. A lock grant carries the records the
// acquirer's clock has not covered, and a barrier release carries every
// arrival's records, so an acquirer learns exactly the writes that
// happened before it. What a learned notice does to a page — park it for a
// lazy diff fetch, or simply invalidate the copy — is the protocol's own
// callback.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/lock_order.hpp"
#include "common/serialize.hpp"
#include "common/thread_annotations.hpp"
#include "common/vclock.hpp"
#include "core/context.hpp"

namespace dsm {

class NoticeLog {
 public:
  /// One closed interval of one node: which pages it modified.
  struct Record {
    NodeId node = kNoNode;
    std::uint32_t interval = 0;  // that node's clock entry at the close
    std::vector<PageId> pages;
  };

  /// What learning one notice (writer's interval modified page) does here.
  /// Runs under `mutex`, once per page of every record this node had not
  /// seen, before the clock covers it.
  using OnNotice = std::function<void(NodeId writer, std::uint32_t interval, PageId page)>;

  NoticeLog(const NodeContext& ctx, OnNotice on_notice);

  /// Guards the clock and the log. The owning protocol keeps its
  /// notice-time state (diff caches, flush-then-log sections) under it too.
  mutable Mutex mutex ACQUIRED_BEFORE(lock_order::fabric_gate);

  /// The start-of-run picture: a zero clock and empty logs.
  void reset() REQUIRES(mutex);

  /// Closes this node's next interval over `pages`; returns its number.
  std::uint32_t close(std::vector<PageId> pages) REQUIRES(mutex);
  /// Order stamp of the clock: the sum of its entries. An interval closed
  /// after another in happens-before has a dominating clock with its own
  /// entry ticked, so stamps strictly grow along happens-before.
  std::uint64_t stamp() const REQUIRES(mutex);

  /// Payloads, all `u32 n | n × u32 clock | u32 nrec |
  /// nrec × { u32 node | u32 interval | u32 npages | npages × u32 page }`,
  /// except the lock request (the clock alone).
  void fill_request(WireWriter& out);
  /// Grant: this node's clock and the records the requester's lacks.
  void fill_grant(std::span<const std::byte> request, WireWriter& out);
  /// Learns a grant; an empty one (a first-ever grant) carries nothing.
  void on_grant(WireReader& in);
  /// Barrier arrival: this node's clock and its own records.
  void fill_arrive(WireWriter& out);
  /// Barrier manager's service thread: merges one arrival, then composes
  /// the release from every arrival's records.
  void collect(WireReader& in);
  void fill_release(WireWriter& out);

  /// Logs the records this node had not seen, running the notice callback
  /// for their pages, and merges the sender's clock.
  void learn(WireReader& in) REQUIRES(mutex);
  /// Forgets every record: everyone has seen them (a settling barrier).
  void collect_garbage() REQUIRES(mutex);

  /// Test hook.
  const VectorClock& vclock() const { return vc_; }

 private:
  const NodeContext& ctx_;
  const OnNotice on_notice_;
  VectorClock vc_ GUARDED_BY(mutex);
  /// log_[n] = records of node n's intervals known here, ascending.
  std::vector<std::vector<Record>> log_ GUARDED_BY(mutex);

  // Barrier manager scratch (its service thread only).
  std::vector<Record> barrier_records_;
  VectorClock barrier_vc_;
};

}  // namespace dsm
