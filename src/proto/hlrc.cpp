#include "proto/hlrc.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   lock request payload : u32 n | n×u32 vclock
//   lock grant payload   : u32 n | vclock | u32 nrec |
//                          nrec × { u32 node | u32 interval | u32 npages | pages }
//   barrier arrive/release: same as grant payload
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kUpdate (flush)      : u32 page | bytes diff
//   kUpdateAck           : (empty)

}  // namespace

HlrcProtocol::HlrcProtocol(NodeContext& ctx)
    : Protocol(ctx),
      vc_(ctx.n_nodes),
      interval_log_(ctx.n_nodes),
      twins_(ctx),
      barrier_vc_(ctx.n_nodes) {}

std::string_view HlrcProtocol::name() const { return "hlrc"; }

void HlrcProtocol::init_pages() {
  page_io::reset_pages(ctx_, PageState::kReadOnly, PageState::kInvalid);
  twins_.clear();
  flush_acks_.reset();
  const MutexLock meta(meta_mutex_);
  vc_ = VectorClock(ctx_.n_nodes);
  for (auto& log : interval_log_) log.clear();
  barrier_records_.clear();
  barrier_vc_ = VectorClock(ctx_.n_nodes);
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
  // take() registers this flush's acks along with the swap, so a racer that
  // takes an empty list still waits them out below, then fills its grant
  // under meta_mutex_, which this flush holds from before its first diff
  // until its interval is logged — no release completes before every page
  // dirtied under it is home-acknowledged.
  const std::vector<PageId> dirty = twins_.take(flush_acks_);
  if (!dirty.empty()) {
    IntervalRecord rec;
    rec.node = ctx_.id;
    rec.pages = dirty;
    const MutexLock meta(meta_mutex_);
    vc_.tick(ctx_.id);
    if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
    rec.interval = vc_[ctx_.id];
    for (const PageId page : dirty) {
      auto& e = ctx_.table->entry(page);
      const MutexLock lock(e.mutex);
      // The copy stays readable: its content is exactly what we flushed.
      // A later write re-twins; remote writes arrive as notices.
      const auto diff = twins_.close(page, e, PageState::kReadOnly).diff;
      ctx_.stats->counter("hlrc.flush_bytes").add(diff.size());
      WireWriter w(diff.size() + 16);
      w.put(page);
      w.put_bytes(diff);
      ctx_.send(MsgType::kUpdate, ctx_.home_of(page), std::move(w).take());
    }
    interval_log_[ctx_.id].push_back(std::move(rec));
  }

  // Eager half of HLRC: the release is not complete (and no grant can be
  // filled) until every home acknowledged — homes are then hb-current.
  flush_acks_.wait();
}

void HlrcProtocol::before_release(LockId) { close_and_flush(); }
void HlrcProtocol::before_barrier(BarrierId) { close_and_flush(); }

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

void HlrcProtocol::fill_lock_request(LockId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  write_vclock(vc_, out);
}

void HlrcProtocol::write_records_after(const VectorClock& horizon, WireWriter& out) {
  // meta_mutex_ held by the caller.
  std::uint32_t count = 0;
  for (const auto& log : interval_log_) {
    for (const auto& rec : log) {
      if (rec.interval > horizon[rec.node]) ++count;
    }
  }
  out.put(count);
  for (const auto& log : interval_log_) {
    for (const auto& rec : log) {
      if (rec.interval <= horizon[rec.node]) continue;
      out.put(rec.node);
      out.put(rec.interval);
      out.put_vector(rec.pages);
    }
  }
}

void HlrcProtocol::fill_lock_grant(LockId, NodeId /*to*/,
                                   std::span<const std::byte> request_payload,
                                   WireWriter& out) {
  VectorClock horizon(ctx_.n_nodes);
  if (!request_payload.empty()) {
    WireReader r(request_payload);
    horizon = read_vclock(r);
  }
  const MutexLock meta(meta_mutex_);
  write_vclock(vc_, out);
  write_records_after(horizon, out);
}

void HlrcProtocol::ingest_records(WireReader& in, std::size_t count) {
  // meta_mutex_ held by the caller.
  for (std::size_t i = 0; i < count; ++i) {
    IntervalRecord rec;
    rec.node = in.get<NodeId>();
    rec.interval = in.get<std::uint32_t>();
    rec.pages = in.get_vector<PageId>();
    if (vc_.covers(rec.node, rec.interval)) continue;
    for (const PageId page : rec.pages) {
      if (ctx_.home_of(page) == ctx_.id) continue;  // home copy is kept current
      auto& e = ctx_.table->entry(page);
      const MutexLock lock(e.mutex);
      if (e.state != PageState::kInvalid) {
        page_io::set_state(ctx_, page, e, PageState::kInvalid);
        ctx_.stats->counter("hlrc.notice_invalidations").add();
      }
    }
    interval_log_[rec.node].push_back(std::move(rec));
  }
}

void HlrcProtocol::on_lock_granted(LockId, WireReader& in) {
  if (in.remaining() == 0) return;
  const VectorClock granter_vc = read_vclock(in);
  const auto count = in.get<std::uint32_t>();
  const MutexLock meta(meta_mutex_);
  ingest_records(in, count);
  vc_.merge(granter_vc);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
}

void HlrcProtocol::fill_barrier_arrive(BarrierId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  write_vclock(vc_, out);
  const auto& mine = interval_log_[ctx_.id];
  out.put(static_cast<std::uint32_t>(mine.size()));
  for (const auto& rec : mine) {
    out.put(rec.node);
    out.put(rec.interval);
    out.put_vector(rec.pages);
  }
}

void HlrcProtocol::on_barrier_collect(BarrierId, NodeId /*from*/, WireReader& in) {
  const VectorClock vc = read_vclock(in);
  const auto count = in.get<std::uint32_t>();
  barrier_vc_.merge(vc);
  for (std::uint32_t i = 0; i < count; ++i) {
    IntervalRecord rec;
    rec.node = in.get<NodeId>();
    rec.interval = in.get<std::uint32_t>();
    rec.pages = in.get_vector<PageId>();
    barrier_records_.push_back(std::move(rec));
  }
}

void HlrcProtocol::fill_barrier_release(BarrierId, WireWriter& out) {
  write_vclock(barrier_vc_, out);
  out.put(static_cast<std::uint32_t>(barrier_records_.size()));
  for (const auto& rec : barrier_records_) {
    out.put(rec.node);
    out.put(rec.interval);
    out.put_vector(rec.pages);
  }
  barrier_records_.clear();
}

void HlrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const VectorClock merged = read_vclock(in);
  const auto count = in.get<std::uint32_t>();
  const MutexLock meta(meta_mutex_);
  ingest_records(in, count);
  vc_.merge(merged);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
  // All homes were flushed before anyone arrived and everyone has now seen
  // every notice: the interval logs can be collected. (No diff caches exist
  // to collect — that is the point of HLRC.)
  for (auto& log : interval_log_) log.clear();
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
