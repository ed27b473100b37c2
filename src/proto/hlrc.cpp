#include "proto/hlrc.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {

// Payload layouts:
//   lock request/grant, barrier arrive/release: the notice log's
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kUpdate (flush)      : u32 page | bytes diff
//   kUpdateAck           : (empty)

HlrcProtocol::HlrcProtocol(NodeContext& ctx)
    : Protocol(ctx),
      log_(ctx,
           [this](NodeId, std::uint32_t, PageId page) REQUIRES(log_.mutex) {
             if (ctx_.home_of(page) == ctx_.id) return;  // home copy is kept current
             auto& e = ctx_.table->entry(page);
             const MutexLock lock(e.mutex);
             if (e.state != PageState::kInvalid) {
               page_io::set_state(ctx_, page, e, PageState::kInvalid);
               ctx_.stats->counter("hlrc.notice_invalidations").add();
             }
           }),
      twins_(ctx) {}

std::string_view HlrcProtocol::name() const { return "hlrc"; }

void HlrcProtocol::init_pages() {
  page_io::reset_pages(ctx_, PageState::kReadOnly, PageState::kInvalid);
  twins_.clear();
  flush_acks_.reset();
  const MutexLock meta(log_.mutex);
  log_.reset();
}

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

void HlrcProtocol::on_read_fault(PageId page) { home_read_fault(ctx_, page); }

void HlrcProtocol::on_write_fault(PageId page) {
  twins_.write_fault(page, [&] { fetch_from_home(ctx_, page, /*prefetch=*/false); });
}

// --------------------------------------------------------------------------
// Intervals and flushes
// --------------------------------------------------------------------------

void HlrcProtocol::close_and_flush() {
  {
    // The flush registers its acks as it takes the list, so a racer that
    // takes an empty list still waits them out below, then fills its grant
    // under the log's mutex, which this flush holds until its interval is
    // logged: no release completes before every page dirtied under it is
    // home-acknowledged. The copies stay readable: their content is exactly
    // what was flushed. A later write re-twins; remote writes arrive as
    // notices.
    const MutexLock meta(log_.mutex);
    auto pages = twins_.flush(
        flush_acks_, PageState::kReadOnly, [&](PageId page, const TwinSet::Closed& closed) {
          ctx_.stats->counter("hlrc.flush_bytes").add(closed.diff.size());
          WireWriter w(closed.diff.size() + 16);
          w.put(page);
          w.put_bytes(closed.diff);
          return ctx_.make(MsgType::kUpdate, ctx_.home_of(page), std::move(w).take());
        });
    if (!pages.empty()) log_.close(std::move(pages));
  }
  // Eager half of HLRC: the release is not complete (and no grant can be
  // filled) until every home acknowledged — homes are then hb-current.
  flush_acks_.wait();
}

void HlrcProtocol::handle_flush(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto diff = r.get_bytes();
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "hlrc: flush at non-home");
    // Arrival order is happens-before-consistent: an hb-later writer could
    // only have started after this diff was acknowledged.
    twins_.apply(page, e, diff);
  }
  ctx_.send(MsgType::kUpdateAck, msg.src, {});
}

// --------------------------------------------------------------------------
// Page fetches
// --------------------------------------------------------------------------

void HlrcProtocol::handle_page_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (e.twin != nullptr) {
      // We were mid-write when the copy was invalidated: preserve the
      // unflushed local words (disjoint from remote ones under DRF) by
      // re-applying our local diff over the fetched page. All moves go
      // through the service window — the page is PROT_NONE right now, and
      // a fault on the service thread would deadlock.
      const auto local = encode_diff(ctx_.view->alias_span(page),
                                     {e.twin.get(), ctx_.cfg->page_size});
      page_io::write_page(ctx_, page, bytes);
      std::memcpy(e.twin.get(), bytes.data(), bytes.size());
      apply_diff(ctx_.view->alias_span(page), local);
      page_io::set_state(ctx_, page, e, PageState::kReadWrite);
    } else {
      page_io::install_page(ctx_, page, e, bytes, PageState::kReadOnly);
    }
    e.busy = false;
  }
  e.cv.notify_all();
}

// --------------------------------------------------------------------------
// Notices (locks and barriers)
// --------------------------------------------------------------------------

void HlrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const MutexLock meta(log_.mutex);
  log_.learn(in);
  // All homes were flushed before anyone arrived and everyone has now seen
  // every notice: the interval logs can be collected. (No diff caches exist
  // to collect — that is the point of HLRC.)
  log_.collect_garbage();
}

// --------------------------------------------------------------------------

void HlrcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPageRequest:
      page_io::serve_home_copy(ctx_, msg, [](PageEntry&, NodeId) {});
      return;
    case MsgType::kPageReply: handle_page_reply(msg); return;
    case MsgType::kUpdate: handle_flush(msg); return;
    case MsgType::kUpdateAck: flush_acks_.ack(); return;
    default:
      DSM_CHECK_MSG(false, "hlrc: unexpected message " << to_string(msg.type));
  }
}

}  // namespace dsm
