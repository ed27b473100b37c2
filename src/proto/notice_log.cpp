#include "proto/notice_log.hpp"

#include <numeric>

#include "check/checker.hpp"

namespace dsm {
namespace {

void write_vclock(const VectorClock& vc, WireWriter& out) {
  out.put(static_cast<std::uint32_t>(vc.size()));
  for (const std::uint32_t c : vc.components()) out.put(c);
}

VectorClock read_vclock(WireReader& in) {
  const auto n = in.get<std::uint32_t>();
  VectorClock vc(n);
  for (std::uint32_t i = 0; i < n; ++i) vc.set(i, in.get<std::uint32_t>());
  return vc;
}

void put_record(const NoticeLog::Record& rec, WireWriter& out) {
  out.put(rec.node);
  out.put(rec.interval);
  out.put_vector(rec.pages);
}

NoticeLog::Record get_record(WireReader& in) {
  NoticeLog::Record rec;
  rec.node = in.get<NodeId>();
  rec.interval = in.get<std::uint32_t>();
  rec.pages = in.get_vector<PageId>();
  return rec;
}

void put_records(const std::vector<NoticeLog::Record>& records, WireWriter& out) {
  out.put(static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) put_record(rec, out);
}

}  // namespace

NoticeLog::NoticeLog(const NodeContext& ctx, OnNotice on_notice)
    : ctx_(ctx),
      on_notice_(std::move(on_notice)),
      vc_(ctx.n_nodes),
      log_(ctx.n_nodes),
      barrier_vc_(ctx.n_nodes) {}

void NoticeLog::reset() {
  vc_ = VectorClock(ctx_.n_nodes);
  collect_garbage();
  barrier_records_.clear();
  barrier_vc_ = VectorClock(ctx_.n_nodes);
}

std::uint32_t NoticeLog::close(std::vector<PageId> pages) {
  vc_.tick(ctx_.id);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
  log_[ctx_.id].push_back(Record{ctx_.id, vc_[ctx_.id], std::move(pages)});
  return vc_[ctx_.id];
}

std::uint64_t NoticeLog::stamp() const {
  const auto& c = vc_.components();
  return std::accumulate(c.begin(), c.end(), std::uint64_t{0});
}

void NoticeLog::fill_request(WireWriter& out) {
  const MutexLock lock(mutex);
  write_vclock(vc_, out);
}

void NoticeLog::fill_grant(std::span<const std::byte> request, WireWriter& out) {
  VectorClock horizon(ctx_.n_nodes);
  if (!request.empty()) {
    WireReader r(request);
    horizon = read_vclock(r);
  }
  const MutexLock lock(mutex);
  write_vclock(vc_, out);
  std::uint32_t count = 0;
  for (const auto& log : log_) {
    for (const auto& rec : log) {
      if (rec.interval > horizon[rec.node]) ++count;
    }
  }
  out.put(count);
  for (const auto& log : log_) {
    for (const auto& rec : log) {
      if (rec.interval > horizon[rec.node]) put_record(rec, out);
    }
  }
}

void NoticeLog::on_grant(WireReader& in) {
  if (in.remaining() == 0) return;
  const MutexLock lock(mutex);
  learn(in);
}

void NoticeLog::fill_arrive(WireWriter& out) {
  const MutexLock lock(mutex);
  write_vclock(vc_, out);
  put_records(log_[ctx_.id], out);
}

void NoticeLog::collect(WireReader& in) {
  barrier_vc_.merge(read_vclock(in));
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) barrier_records_.push_back(get_record(in));
}

void NoticeLog::fill_release(WireWriter& out) {
  write_vclock(barrier_vc_, out);
  put_records(barrier_records_, out);
  barrier_records_.clear();
}

void NoticeLog::learn(WireReader& in) {
  const VectorClock sender = read_vclock(in);
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    Record rec = get_record(in);
    if (vc_.covers(rec.node, rec.interval)) continue;  // already known
    for (const PageId page : rec.pages) on_notice_(rec.node, rec.interval, page);
    log_[rec.node].push_back(std::move(rec));
  }
  vc_.merge(sender);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
}

void NoticeLog::collect_garbage() {
  for (auto& log : log_) log.clear();
}

}  // namespace dsm
