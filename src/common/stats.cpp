#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace dsm {
namespace {

// Sample in [2^(i-1), 2^i); the last bucket also takes every sample >= 2^63.
int bucket_index(std::uint64_t sample) {
  return std::min(static_cast<int>(std::bit_width(sample)), Histogram::kBuckets - 1);
}

std::uint64_t bucket_upper(int index) {
  if (index == 0) return 0;
  if (index >= 63) return ~0ULL;
  return (1ULL << index) - 1;
}

}  // namespace

void Histogram::record(std::uint64_t sample) {
  buckets_[bucket_index(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < sample &&
         !max_.compare_exchange_weak(prev, sample, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const auto n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::quantile(double q) const {
  const auto n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return std::min(bucket_upper(i), max());
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::uint64_t StatsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::string StatsSnapshot::to_string() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << "  " << name << " = " << value << '\n';
  }
  for (const auto& [name, h] : histograms) {
    out << "  " << name << ": n=" << h.count << " mean=" << h.mean
        << " p50=" << h.p50 << " p99=" << h.p99 << " max=" << h.max << '\n';
  }
  return out.str();
}

Counter& StatsRegistry::counter(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

StatsSnapshot StatsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  StatsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  for (const auto& [name, h] : histograms_) {
    StatsSnapshot::HistView v;
    v.count = h->count();
    v.sum = h->sum();
    v.max = h->max();
    v.mean = h->mean();
    v.p50 = h->quantile(0.5);
    v.p99 = h->quantile(0.99);
    snap.histograms.emplace(name, v);
  }
  return snap;
}

void StatsRegistry::reset() {
  const MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace dsm
