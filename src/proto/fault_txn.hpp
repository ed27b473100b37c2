// The application-side fault transaction shared by every page-fetching
// protocol (erc, lrc, hlrc, qrc, ivy-manager, ivy-dynamic), and sequential
// prefetch.
#pragma once

#include "common/thread_annotations.hpp"
#include "core/context.hpp"
#include "proto/page_io.hpp"

namespace dsm {

/// Runs one fault until `page` is at least `need`. Each attempt first waits
/// out a transaction already in flight. Then, under the entry lock,
/// `local(entry)` may handle the attempt without a fetch — complete the
/// access, or start a transaction of its own by setting busy — and return
/// true.
/// Otherwise the page is marked busy and `fetch()` sends the request with
/// the lock released. Either way the service thread completes the
/// transaction (busy = false). The loop waits for *its transaction*, not
/// for the state (DESIGN.md design note 1): the service thread may complete
/// it and grant a parked transfer away again at once, and then the fault
/// simply fetches again.
///
/// The fault counts under proto.read_faults or proto.write_faults and
/// advances kFaultNs. A `timed` fault does so on every attempt that
/// finds the page idle and records proto.fault_service_ns and a
/// proto/fault-txn span per attempt; an untimed one (the multiple-writer
/// write fault, TwinSet::write_fault) counts once on entry.
template <class Local, class Fetch>
void run_fault(const NodeContext& ctx, PageId page, PageState need, bool timed, Local&& local,
               Fetch&& fetch) {
  const auto charge = [&] {
    ctx.stats->counter(need == PageState::kReadWrite ? "proto.write_faults" : "proto.read_faults")
        .add();
    ctx.clock->advance(kFaultNs);
  };
  if (!timed) charge();
  auto& e = ctx.table->entry(page);
  RelockableMutexLock lock(e.mutex);
  for (;;) {
    if (e.state >= need) return;
    if (e.busy) {
      e.cv.wait(e.mutex);
      continue;
    }
    if (timed) charge();
    const VirtualTime t0 = ctx.clock->now();
    if (!local(e)) {
      e.busy = true;
      lock.unlock();
      fetch();
      lock.lock();
    }
    while (e.busy) e.cv.wait(e.mutex);
    if (timed) {
      ctx.stats->histogram("proto.fault_service_ns").record(ctx.clock->now() - t0);
      if (ctx.trace != nullptr)
        ctx.trace->complete(ctx.id, TraceCat::kProto, "fault-txn", t0, ctx.clock->now(),
                            "page", page);
    }
  }
}

/// Reply side of a read fetch: installs `bytes` read-only, completes the
/// transaction and wakes the faulting threads.
inline void complete_fetch(const NodeContext& ctx, PageId page, std::span<const std::byte> bytes) {
  auto& e = ctx.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    page_io::install_page(ctx, page, e, bytes, PageState::kReadOnly);
    e.busy = false;
  }
  e.cv.notify_all();
}

/// Fire-and-forget read fetches of the next Config::prefetch_pages pages:
/// each invalid, idle one is marked busy and requested with `type` from
/// `target(next, entry)` (called under the entry lock). The normal reply
/// path completes it; a later fault on that page simply joins the wait.
template <class Target>
void prefetch_sequential(const NodeContext& ctx, PageId page, MsgType type, Target&& target) {
  for (std::size_t k = 1; k <= ctx.cfg->prefetch_pages; ++k) {
    const PageId next = page + static_cast<PageId>(k);
    if (next >= ctx.table->n_pages()) return;
    auto& e = ctx.table->entry(next);
    NodeId to = kNoNode;
    {
      const MutexLock lock(e.mutex);
      if (e.state != PageState::kInvalid || e.busy) continue;
      e.busy = true;
      to = target(next, e);
    }
    ctx.stats->counter("proto.prefetches").add();
    ctx.send(type, to, page_io::encode_req(next, ctx.id));
  }
}

/// The home-based fetch (erc, hlrc, lrc's base copy): a kPageRequest to the
/// page's home, and sequential prefetch when `prefetch` (read faults).
inline void fetch_from_home(const NodeContext& ctx, PageId page, bool prefetch) {
  ctx.send(MsgType::kPageRequest, ctx.home_of(page), page_io::encode_req(page, ctx.id));
  if (prefetch) {
    prefetch_sequential(ctx, page, MsgType::kPageRequest,
                        [&](PageId next, PageEntry&) { return ctx.home_of(next); });
  }
}

/// The read fault of the home-based protocols (erc, hlrc).
inline void home_read_fault(const NodeContext& ctx, PageId page) {
  run_fault(
      ctx, page, PageState::kReadOnly, /*timed=*/true, [](PageEntry&) { return false; },
      [&] { fetch_from_home(ctx, page, /*prefetch=*/true); });
}

}  // namespace dsm
