// The multiple-writer core shared by erc, lrc, hlrc and qrc: Munin's
// write-shared pages and TreadMarks' twins. Writers modify their local
// copies freely between synchronization points; the first write of an
// interval snapshots a pristine twin, and at the next release each dirty
// page's diff against its twin is what travels. Who receives the diffs,
// and what state a page is left in afterwards, stays each protocol's own.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "core/context.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {

/// Release-side ack rendezvous between an app thread and the service
/// thread: register the acks a release expects before sending anything
/// (the first can arrive while later diffs are still being encoded), count
/// them back, and wait for zero.
class AckCount {
 public:
  void expect(int n);
  void ack();
  void wait();
  /// Forgets every expected ack and wakes the waiters (node restart).
  void reset();

 private:
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar cv_;
  int outstanding_ GUARDED_BY(mutex_) = 0;
};

/// A node's open write intervals: the twins in its page entries plus the
/// list of pages dirtied since the last release.
class TwinSet {
 public:
  explicit TwinSet(const NodeContext& ctx) : ctx_(ctx) {}

  /// Write upgrade of a read-only copy: twin it (unless its interval is
  /// still open), make it writable and list it dirty. Zero messages.
  void upgrade(PageId page, PageEntry& e) REQUIRES(e.mutex);

  /// The write fault of erc, lrc, hlrc and qrc: a read-only copy upgrades in
  /// place; otherwise `fetch()` brings a copy first, fetching again if a
  /// racing invalidation revokes it before this thread runs. Counted once
  /// per fault and untimed.
  template <class Fetch>
  void write_fault(PageId page, Fetch&& fetch) {
    run_fault(
        ctx_, page, PageState::kReadWrite, /*timed=*/false,
        [&](PageEntry& e) REQUIRES(e.mutex) {
          if (e.state != PageState::kReadOnly) return false;
          upgrade(page, e);
          return true;
        },
        fetch);
  }

  /// Swaps out the pages dirtied since the last take. Whoever takes a page
  /// owns flushing it; another app thread may be dirtying or flushing
  /// concurrently.
  std::vector<PageId> take();
  void clear();

  /// A page's closed interval: its diff against the twin, and the twin.
  struct Closed {
    std::vector<std::byte> diff;
    std::unique_ptr<std::byte[]> twin;
  };

  /// The release flush of erc, hlrc and qrc: takes the dirty list, then
  /// closes each page to `after` and sends its flush, `message(page,
  /// closed)`, which runs under `e.mutex`. Every flush of the release
  /// leaves at one instant, the clock read before the first: a send costs
  /// no virtual time, so no ack can land inside the loop, and one the
  /// service thread handles meanwhile must not stamp later sends. Counts
  /// proto.flushes when it closes a page; returns the pages.
  template <class Message_>
  std::vector<PageId> flush(AckCount& acks, PageState after, Message_&& message) {
    std::vector<PageId> pages;
    {
      // One expected ack per taken page, registered under the list's guard:
      // a racing release that takes an empty list then finds these acks and
      // waits them out, so no release completes before every page dirtied
      // under it is acknowledged.
      const MutexLock lock(mutex_);
      pages.swap(dirty_);
      acks.expect(static_cast<int>(pages.size()));
    }
    if (pages.empty()) return pages;
    ctx_.stats->counter("proto.flushes").add();
    const VirtualTime departs = ctx_.clock->now();
    Network::BatchScope batch(ctx_.net);
    for (const PageId page : pages) {
      auto& e = ctx_.table->entry(page);
      const MutexLock lock(e.mutex);
      Message msg = message(page, close(page, e, after));
      msg.send_time = departs;
      ctx_.net->send(std::move(msg));
    }
    return pages;
  }

  /// Ends the page's interval: moves a readable copy to `after` (its
  /// protocol's post-release state; an invalid copy stays invalid), then
  /// encodes its diff and drops the twin and the dirty bit. Protect before
  /// encode: another app thread of this node may still be storing to the
  /// page, and a store between the encode and the protect would land in
  /// neither this diff nor a new twin. Reads through the service window —
  /// the copy may have been revoked while dirty, and a fault here would
  /// self-deadlock.
  Closed close(PageId page, PageEntry& e, PageState after) REQUIRES(e.mutex);

  /// Applies `diff` to the page's bytes and, mid-write, to its twin, so the
  /// writer's own next diff excludes these words. Through the service
  /// window: relaxing the app view's protection to write would let a
  /// concurrent app-thread store retire without faulting (a lost update).
  void apply(PageId page, PageEntry& e, std::span<const std::byte> diff) REQUIRES(e.mutex);

  /// Copy-holder side of kInvalidate (erc, qrc). A dirty copy is kept:
  /// dropping it would lose a concurrent writer's unflushed words, which
  /// are race-free by DRF, and its own flush will settle the page. The ack
  /// says which (kInvalidateAck: u32 page | u8 kept).
  void serve_invalidate(const Message& msg);

  /// Drops every clean, idle read-only copy of the pages `pred` selects:
  /// copies a failed or returning authority may have left stale. Dirty
  /// copies stay; their flush re-sends.
  template <class Pred>
  void drop_clean(Pred&& pred) {
    for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
      if (!pred(p)) continue;
      auto& e = ctx_.table->entry(p);
      const MutexLock lock(e.mutex);
      if (e.state == PageState::kReadOnly && !e.dirty && !e.busy) {
        page_io::set_state(ctx_, p, e, PageState::kInvalid);
      }
    }
  }

 private:
  const NodeContext& ctx_;
  // Appended under a page's entry mutex by whichever thread services a
  // write fault (uffd executors run several concurrently), swapped out by
  // a release that then takes protocol mutexes: its own mutex, held only
  // around the list and, in flush(), an AckCount's.
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::vector<PageId> dirty_ GUARDED_BY(mutex_);
};

/// Release flushes sent and not yet acknowledged (erc under FT, qrc), kept
/// so a failover or restart can re-send them verbatim: value-form diffs make
/// a re-send idempotent. One record per sent flush, added before the send;
/// a page's final ack retires its oldest record, so two flushes of one page
/// each wait for their own ack.
class Unacked {
 public:
  struct Flush {
    NodeId target = kNoNode;        // where it was last sent
    std::uint32_t incarnation = 0;  // of `target` then (erc)
    std::vector<std::byte> field;   // the encoded diff
  };
  void add(PageId page, Flush flush);
  /// Retires the page's oldest record; false if none is left: the ack is
  /// a duplicate, from a flush that reached its target and was re-sent.
  bool retire(PageId page);
  /// Runs `fn(page, flush)` on every record under the store's mutex; `fn`
  /// may re-aim the record and re-send it.
  template <class Fn>
  void for_each(Fn&& fn) {
    const MutexLock lock(mutex_);
    for (auto& [page, flush] : records_) fn(page, flush);
  }
  void clear();

 private:
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::multimap<PageId, Flush> records_ GUARDED_BY(mutex_);
};

}  // namespace dsm
