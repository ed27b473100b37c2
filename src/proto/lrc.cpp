#include "proto/lrc.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "net/network.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   lock request/grant   : the notice log's
//   barrier arrive/release: u8 settle | the notice log's
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kDiffRequest         : u32 page | u32 requester | u32 n | n×u32 intervals
//   kDiffReply           : u32 page | u32 n | n × { u32 interval | u64 stamp |
//                                                   bytes diff }
//   kUpdate (settle push): u32 n | n × { u32 page | u32 interval | u64 stamp |
//                                        bytes diff }, at most kMaxBatchBytes
//                          unless n = 1
//   kUpdateAck           : (empty), one per kUpdate

// A kUpdate record's bytes besides its diff: page, interval, stamp, length.
constexpr std::size_t kPushRecordHeader = 20;

// Diff application order: stamp, then writer between concurrent intervals.
constexpr auto by_stamp = [](const auto& a, const auto& b) {
  return a.stamp != b.stamp ? a.stamp < b.stamp : a.writer < b.writer;
};

}  // namespace

LrcProtocol::LrcProtocol(NodeContext& ctx)
    : Protocol(ctx),
      log_(ctx,
           [this](NodeId writer, std::uint32_t interval, PageId page) REQUIRES(log_.mutex) {
             auto& e = ctx_.table->entry(page);
             const MutexLock lock(e.mutex);
             pending_[page].push_back(WriteNotice{writer, interval});
             if (e.state != PageState::kInvalid) {
               page_io::set_state(ctx_, page, e, PageState::kInvalid);
               ctx_.stats->counter("lrc.notice_invalidations").add();
             }
           }),
      pending_(ctx.cfg->n_pages),
      inbox_(ctx.cfg->n_pages),
      twins_(ctx) {}

std::string_view LrcProtocol::name() const { return "lrc"; }

void LrcProtocol::init_pages() {
  page_io::reset_pages(ctx_, PageState::kReadOnly, PageState::kInvalid);
  for (auto& notices : pending_) notices.clear();
  for (auto& records : inbox_) records.clear();
  twins_.clear();
  push_acks_.reset();
  barrier_gen_.clear();
  barrier_settle_round_.reset();
  arriving_at_settle_ = false;
  last_release_was_settle_ = false;
  const MutexLock meta(log_.mutex);
  log_.reset();
  diff_cache_.clear();
  settle_buffer_.clear();
}

// --------------------------------------------------------------------------
// Faults: the app thread starts a fetch, the service thread completes it
// --------------------------------------------------------------------------

void LrcProtocol::on_read_fault(PageId page) {
  run_fault(
      ctx_, page, PageState::kReadOnly, /*timed=*/true, [](PageEntry&) { return false; },
      [&] { fetch(page); });
}

void LrcProtocol::on_write_fault(PageId page) {
  twins_.write_fault(page, [&] { fetch(page); });
}

void LrcProtocol::fetch(PageId page) {
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (e.has_base) return request_diffs(page, e);
  }
  fetch_from_home(ctx_, page, /*prefetch=*/false);
}

void LrcProtocol::request_diffs(PageId page, PageEntry& e) {
  // Take the notices learned so far, grouped by writer, and fetch each
  // writer's diffs.
  std::map<NodeId, std::vector<std::uint32_t>> by_writer;
  for (const auto& n : std::exchange(pending_[page], {})) {
    by_writer[n.writer].push_back(n.interval);
  }
  if (by_writer.empty()) return complete(page, e);
  e.acks_outstanding = static_cast<int>(by_writer.size());
  for (const auto& [writer, intervals] : by_writer) {
    WireWriter w(16 + intervals.size() * 4);
    w.put(page);
    w.put(ctx_.id);
    w.put(static_cast<std::uint32_t>(intervals.size()));
    for (const auto i : intervals) w.put(i);
    ctx_.send(MsgType::kDiffRequest, writer, std::move(w).take());
    ctx_.stats->counter("lrc.diff_requests").add();
  }
}

void LrcProtocol::complete(PageId page, PageEntry& e) {
  auto& records = inbox_[page];
  std::sort(records.begin(), records.end(), by_stamp);
  // Service window: the page stays PROT_NONE while the diffs land.
  for (const auto& rec : records) twins_.apply(page, e, rec.bytes);
  records.clear();
  // Mid-write when the page was invalidated: restore write access.
  if (pending_[page].empty()) {
    page_io::set_state(ctx_, page, e,
                       e.twin != nullptr ? PageState::kReadWrite : PageState::kReadOnly);
  }
  e.busy = false;
  e.cv.notify_all();
}

// --------------------------------------------------------------------------
// Intervals and diffs
// --------------------------------------------------------------------------

void LrcProtocol::close_interval() {
  // Take the list under the log's mutex: a racing release that takes an
  // empty list then cannot fill its grant before this interval is recorded.
  const MutexLock meta(log_.mutex);
  const std::vector<PageId> dirty = twins_.take();
  if (dirty.empty()) return;
  const std::uint32_t interval = log_.close(dirty);
  const std::uint64_t stamp = log_.stamp();

  for (const PageId page : dirty) {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    DiffRecord d;
    d.interval = interval;
    d.stamp = stamp;
    d.writer = ctx_.id;
    // Unseen remote writes exist: go invalid so the next access fetches
    // their diffs before reading.
    const PageState after = pending_[page].empty() ? PageState::kReadOnly : PageState::kInvalid;
    d.bytes = twins_.close(page, e, after).diff;
    ctx_.stats->counter("lrc.diff_bytes_created").add(d.bytes.size());
    diff_cache_[page].push_back(std::move(d));
  }
  ctx_.stats->counter("lrc.intervals").add();
}

void LrcProtocol::before_barrier(BarrierId barrier) {
  close_interval();
  const auto gen = ++barrier_gen_[barrier];
  arriving_at_settle_ =
      ctx_.cfg->lrc_gc_period <= 1 || gen % ctx_.cfg->lrc_gc_period == 0;
  if (arriving_at_settle_) push_diffs_to_homes();
}

void LrcProtocol::push_diffs_to_homes() {
  // Unicast every diff this node created this epoch to its page's home;
  // block until all are acknowledged. Every home therefore holds the whole
  // epoch before any node can arrive at the barrier — the release can then
  // move notices only, instead of broadcasting O(data × nodes). Each home's
  // records travel packed, and a message leaves as soon as the next record
  // would take it past kMaxBatchBytes, so at most one message per home is
  // open at a time.
  {
    const MutexLock meta(log_.mutex);
    if (diff_cache_.empty()) return;
    struct Packing {
      std::vector<std::pair<PageId, const DiffRecord*>> records;
      std::size_t bytes = sizeof(std::uint32_t);
    };
    std::vector<Packing> open(ctx_.n_nodes);
    std::uint64_t diff_bytes = 0;
    const auto send = [&](NodeId home) {
      Packing& p = open[home];
      WireWriter w(p.bytes);
      w.put(static_cast<std::uint32_t>(p.records.size()));
      for (const auto& [page, rec] : p.records) {
        w.put(page);
        w.put(rec->interval);
        w.put(rec->stamp);
        w.put_bytes(rec->bytes);
      }
      push_acks_.expect(1);
      ctx_.send(MsgType::kUpdate, home, std::move(w).take());
      p = Packing{};
    };
    for (const auto& [page, records] : diff_cache_) {
      const NodeId home = ctx_.home_of(page);
      for (const auto& rec : records) {
        const std::size_t bytes = kPushRecordHeader + rec.bytes.size();
        if (!open[home].records.empty() && open[home].bytes + bytes > kMaxBatchBytes) {
          send(home);
        }
        open[home].records.emplace_back(page, &rec);
        open[home].bytes += bytes;
        diff_bytes += rec.bytes.size();
      }
    }
    for (NodeId home = 0; home < open.size(); ++home) {
      if (!open[home].records.empty()) send(home);
    }
    ctx_.stats->counter("lrc.settle_push_bytes").add(diff_bytes);
  }
  push_acks_.wait();
}

// --------------------------------------------------------------------------
// Service-thread message handlers
// --------------------------------------------------------------------------

void LrcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPageRequest: handle_page_request(msg); return;
    case MsgType::kPageReply: handle_page_reply(msg); return;
    case MsgType::kDiffRequest: handle_diff_request(msg); return;
    case MsgType::kDiffReply: handle_diff_reply(msg); return;
    case MsgType::kUpdate: {
      // A settle-round diff push: buffer its records for stamp-ordered
      // application at the barrier release, and acknowledge it once.
      WireReader r(msg.payload);
      const auto n = r.get<std::uint32_t>();
      {
        const MutexLock meta(log_.mutex);
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto page = r.get<PageId>();
          DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "lrc: diff push at non-home");
          DiffRecord rec;
          rec.interval = r.get<std::uint32_t>();
          rec.stamp = r.get<std::uint64_t>();
          rec.writer = msg.src;
          const auto bytes = r.get_bytes();
          rec.bytes.assign(bytes.begin(), bytes.end());
          settle_buffer_[page].push_back(std::move(rec));
        }
      }
      ctx_.send(MsgType::kUpdateAck, msg.src, {});
      return;
    }
    case MsgType::kUpdateAck: push_acks_.ack(); return;
    default:
      DSM_CHECK_MSG(false, "lrc: unexpected message " << to_string(msg.type));
  }
}

void LrcProtocol::handle_page_request(const Message& msg) {
  // The home's bytes are always *some* consistent base (its applied-diff
  // prefix respects happens-before); the faulter layers its pending diffs
  // on top.
  page_io::serve_home_copy(ctx_, msg,
                           [](PageEntry& e, NodeId) REQUIRES(e.mutex) { DSM_CHECK(e.has_base); });
}

void LrcProtocol::handle_page_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  const MutexLock lock(e.mutex);
  DSM_CHECK(!e.has_base && e.twin == nullptr);
  page_io::write_page(ctx_, page, bytes);
  e.has_base = true;
  request_diffs(page, e);
}

void LrcProtocol::handle_diff_request(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto requester = r.get<NodeId>();
  const auto n = r.get<std::uint32_t>();
  std::vector<std::uint32_t> intervals(n);
  for (auto& i : intervals) i = r.get<std::uint32_t>();

  WireWriter w(256);
  w.put(page);
  w.put(n);
  {
    const MutexLock meta(log_.mutex);
    const auto it = diff_cache_.find(page);
    DSM_CHECK_MSG(it != diff_cache_.end(), "lrc: no cached diffs for page " << page);
    for (const auto interval : intervals) {
      const auto rec = std::find_if(it->second.begin(), it->second.end(),
                                    [&](const DiffRecord& d) { return d.interval == interval; });
      DSM_CHECK_MSG(rec != it->second.end(),
                    "lrc: diff for page " << page << " interval " << interval << " missing");
      w.put(rec->interval);
      w.put(rec->stamp);
      w.put_bytes(rec->bytes);
    }
  }
  ctx_.send(MsgType::kDiffReply, requester, std::move(w).take());
}

void LrcProtocol::handle_diff_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto n = r.get<std::uint32_t>();
  auto& e = ctx_.table->entry(page);
  const MutexLock lock(e.mutex);
  DSM_CHECK(e.acks_outstanding > 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    DiffRecord rec;
    rec.interval = r.get<std::uint32_t>();
    rec.stamp = r.get<std::uint64_t>();
    rec.writer = msg.src;
    const auto bytes = r.get_bytes();
    rec.bytes.assign(bytes.begin(), bytes.end());
    inbox_[page].push_back(std::move(rec));
  }
  if (--e.acks_outstanding == 0) complete(page, e);
}

// --------------------------------------------------------------------------
// Barriers: the global settle-up and GC point
// --------------------------------------------------------------------------

// Barrier payloads (both directions, both round kinds) carry notices only,
// after a u8 settle flag: at a settle round the actual diffs were already
// unicast to each page's home (push_diffs_to_homes) before anyone arrived.

void LrcProtocol::fill_barrier_arrive(BarrierId, WireWriter& out) {
  out.put(static_cast<std::uint8_t>(arriving_at_settle_ ? 1 : 0));
  log_.fill_arrive(out);
}

void LrcProtocol::on_barrier_collect(BarrierId, NodeId /*from*/, WireReader& in) {
  const bool settle = in.get<std::uint8_t>() != 0;
  DSM_CHECK_MSG(barrier_settle_round_.value_or(settle) == settle,
                "lrc: nodes disagree about the settle round");
  barrier_settle_round_ = settle;
  log_.collect(in);
}

void LrcProtocol::fill_barrier_release(BarrierId, WireWriter& out) {
  out.put(static_cast<std::uint8_t>(barrier_settle_round_.value_or(false) ? 1 : 0));
  barrier_settle_round_.reset();
  log_.fill_release(out);
}

void LrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const bool settle = in.get<std::uint8_t>() != 0;
  last_release_was_settle_ = settle;

  // First learn the merged write notices (marks pages stale). A lazy round
  // stops there: data stays where it is until someone faults, and diff
  // caches and pending notices are retained. A settle-up then
  //   * home pages: applies the epoch's pushed diffs in stamp order — every
  //     home is current afterwards;
  //   * other copies with unapplied notices: drops them to cold (refetch
  //     later);
  // and garbage-collects every piece of epoch metadata.
  std::map<PageId, std::vector<DiffRecord>> pushed;
  {
    const MutexLock meta(log_.mutex);
    log_.learn(in);
    if (!settle) {
      ctx_.stats->counter("lrc.lazy_barriers").add();
      return;
    }
    pushed = std::move(settle_buffer_);
    settle_buffer_.clear();
    log_.collect_garbage();
    diff_cache_.clear();
  }

  for (auto& [page, records] : pushed) {
    std::sort(records.begin(), records.end(), by_stamp);
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    DSM_CHECK_MSG(e.twin == nullptr && !e.dirty, "lrc: open interval at barrier");
    DSM_CHECK(e.has_base);
    for (const auto& rec : records) {
      apply_diff(ctx_.view->alias_span(page), rec.bytes);
    }
  }

  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    if (ctx_.home_of(p) == ctx_.id) {
      // Home: current after the diff application above.
      pending_[p].clear();
      if (e.state == PageState::kInvalid) {
        page_io::set_state(ctx_, p, e, PageState::kReadOnly);
      }
      continue;
    }
    if (!pending_[p].empty()) {
      // A copy with unapplied epoch writes — and the diffs are about to be
      // collected. Drop to cold; the next access refetches from the home.
      pending_[p].clear();
      if (e.state != PageState::kInvalid) {
        page_io::set_state(ctx_, p, e, PageState::kInvalid);
      }
      e.has_base = false;
      ctx_.stats->counter("lrc.settle_dropped_copies").add();
    }
    // else: this copy applied everything it ever heard of — still current.
  }
  ctx_.stats->counter("lrc.settle_barriers").add();
}

std::size_t LrcProtocol::cached_diffs() const {
  const MutexLock meta(log_.mutex);
  std::size_t n = 0;
  for (const auto& [page, records] : diff_cache_) n += records.size();
  return n;
}

}  // namespace dsm
