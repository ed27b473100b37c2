#include "core/watchdog.hpp"

#include <cstdlib>
#include <iostream>

#include "common/assert.hpp"
#include "common/clock.hpp"

namespace dsm {

namespace {

std::int64_t steady_now_ns() {
  return static_cast<std::int64_t>(realclock::now_ns());
}

}  // namespace

Watchdog::Watchdog(std::size_t n_nodes, std::size_t threads_per_node,
                   std::uint32_t bound_ms, DumpFn dump)
    : bound_ms_(bound_ms),
      dump_(std::move(dump)),
      threads_per_node_(threads_per_node == 0 ? 1 : threads_per_node),
      slots_(n_nodes * (threads_per_node == 0 ? 1 : threads_per_node)) {
  if (enabled()) scanner_ = std::thread([this] { scan_loop(); });
}

void Watchdog::bind_thread(std::size_t slot, std::uint32_t ktid) {
  slots_[slot].ktid.store(ktid, std::memory_order_relaxed);
}

std::uint32_t Watchdog::bound_thread(std::size_t slot) const {
  return slots_[slot].ktid.load(std::memory_order_relaxed);
}

Watchdog::~Watchdog() {
  if (!scanner_.joinable()) return;
  stopping_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
  scanner_.join();
}

Watchdog::Guard::Guard(Watchdog* wd, std::size_t slot, const char* what,
                       std::uint64_t detail)
    : wd_(wd), slot_(slot) {
  if (wd_ != nullptr) frame_ = wd_->push(slot, what, detail);
}

Watchdog::Guard::~Guard() {
  if (wd_ != nullptr) wd_->pop(slot_, frame_);
}

int Watchdog::push(std::size_t slot, const char* what, std::uint64_t detail) {
  const std::int64_t now = steady_now_ns();
  for (int i = 0; i < kMaxDepth; ++i) {
    Slot::Frame& f = slots_[slot].frames[i];
    std::int64_t free = 0;
    if (!f.since_ns.compare_exchange_strong(free, now, std::memory_order_relaxed)) continue;
    f.what.store(what, std::memory_order_relaxed);
    f.detail.store(detail, std::memory_order_relaxed);
    return i;
  }
  DSM_CHECK_MSG(false, "watchdog guard stack overflow on slot " << slot);
  return -1;
}

void Watchdog::pop(std::size_t slot, int frame) {
  slots_[slot].frames[frame].since_ns.store(0, std::memory_order_relaxed);
}

void Watchdog::scan_loop() {
  const auto bound = std::chrono::milliseconds(bound_ms_);
  const auto tick = std::min<std::chrono::milliseconds>(bound / 4 + std::chrono::milliseconds(1),
                                                        std::chrono::milliseconds(250));
  const MutexLock lock(mutex_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    cv_.wait_for(mutex_, tick);
    if (stopping_.load(std::memory_order_relaxed)) return;

    const std::int64_t now = steady_now_ns();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      const Slot::Frame* newest = nullptr;
      std::int64_t since = 0;
      for (const Slot::Frame& f : s.frames) {
        const std::int64_t t = f.since_ns.load(std::memory_order_relaxed);
        if (t > since) {
          newest = &f;
          since = t;
        }
      }
      if (newest == nullptr) continue;
      const std::int64_t stuck_ms = (now - since) / 1'000'000;
      if (stuck_ms < static_cast<std::int64_t>(bound_ms_)) continue;

      const Slot::Frame& f = *newest;
      const char* what = f.what.load(std::memory_order_relaxed);
      std::cerr << "[tutordsm] WATCHDOG: node " << i / threads_per_node_;
      if (threads_per_node_ > 1) {
        std::cerr << " thread " << i % threads_per_node_;
        const std::uint32_t ktid = s.ktid.load(std::memory_order_relaxed);
        if (ktid != 0) std::cerr << " (ktid " << ktid << ")";
      }
      std::cerr << " stuck in " << (what != nullptr ? what : "?") << " (detail="
                << f.detail.load(std::memory_order_relaxed) << ") for " << stuck_ms
                << " ms (bound " << bound_ms_ << " ms) — dumping state and aborting\n";
      if (dump_) dump_(std::cerr);
      std::cerr.flush();
      std::abort();
    }
  }
}

}  // namespace dsm
