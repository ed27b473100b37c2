#include "proto/twin_set.hpp"

#include "mem/diff.hpp"
#include "proto/page_io.hpp"

namespace dsm {

void TwinSet::upgrade(PageId page, PageEntry& e) {
  if (e.twin == nullptr) e.twin = make_twin(ctx_.view->alias_span(page));
  page_io::set_state(ctx_, page, e, PageState::kReadWrite);
  if (!e.dirty) {
    e.dirty = true;
    const MutexLock lock(mutex_);
    dirty_.push_back(page);
  }
}

std::vector<PageId> TwinSet::take() {
  std::vector<PageId> out;
  const MutexLock lock(mutex_);
  out.swap(dirty_);
  return out;
}

void TwinSet::clear() {
  const MutexLock lock(mutex_);
  dirty_.clear();
}

TwinSet::Closed TwinSet::close(PageId page, PageEntry& e, PageState after) {
  DSM_CHECK(e.dirty && e.twin != nullptr);
  if (e.state != PageState::kInvalid) page_io::set_state(ctx_, page, e, after);
  Closed out;
  out.diff = encode_diff(ctx_.view->alias_span(page), {e.twin.get(), ctx_.cfg->page_size});
  out.twin = std::move(e.twin);
  e.dirty = false;
  return out;
}

void TwinSet::apply(PageId page, PageEntry& e, std::span<const std::byte> diff) {
  apply_diff(ctx_.view->alias_span(page), diff);
  if (e.twin != nullptr) apply_diff({e.twin.get(), ctx_.cfg->page_size}, diff);
}

void TwinSet::serve_invalidate(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  auto& e = ctx_.table->entry(page);
  std::uint8_t kept = 0;
  {
    const MutexLock lock(e.mutex);
    if (e.dirty) {
      kept = 1;
    } else if (e.state != PageState::kInvalid) {
      page_io::set_state(ctx_, page, e, PageState::kInvalid);
    }
  }
  WireWriter w(8);
  w.put(page);
  w.put(kept);
  ctx_.send(MsgType::kInvalidateAck, msg.src, std::move(w).take());
}

void AckCount::expect(int n) {
  const MutexLock lock(mutex_);
  outstanding_ += n;
}

void AckCount::ack() {
  bool done = false;
  {
    const MutexLock lock(mutex_);
    DSM_CHECK(outstanding_ > 0);
    done = --outstanding_ == 0;
  }
  if (done) cv_.notify_all();
}

void AckCount::wait() {
  const MutexLock lock(mutex_);
  while (outstanding_ != 0) cv_.wait(mutex_);
}

void AckCount::reset() {
  {
    const MutexLock lock(mutex_);
    outstanding_ = 0;
  }
  cv_.notify_all();
}

void Unacked::add(PageId page, Flush flush) {
  const MutexLock lock(mutex_);
  records_.emplace(page, std::move(flush));  // after the page's older records
}

bool Unacked::retire(PageId page) {
  const MutexLock lock(mutex_);
  const auto it = records_.lower_bound(page);
  if (it == records_.end() || it->first != page) return false;
  records_.erase(it);
  return true;
}

void Unacked::clear() {
  const MutexLock lock(mutex_);
  records_.clear();
}

}  // namespace dsm
