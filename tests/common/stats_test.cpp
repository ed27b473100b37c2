#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace dsm {
namespace {

TEST(Counter, StartsAtZero) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, AddAccumulates) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ResetClears) {
  Counter c;
  c.add(7);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, SingleSample) {
  Histogram h;
  h.record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 100.0);
}

TEST(Histogram, MaxTracksLargest) {
  Histogram h;
  h.record(5);
  h.record(500);
  h.record(50);
  EXPECT_EQ(h.max(), 500u);
}

TEST(Histogram, QuantilesAreMonotone) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i);
  const auto p50 = h.quantile(0.5);
  const auto p90 = h.quantile(0.9);
  const auto p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Log2 buckets: p50 of 1..1000 must land within a factor of 2 of 500.
  EXPECT_GE(p50, 255u);
  EXPECT_LE(p50, 1023u);
}

TEST(Histogram, ZeroSamplesLandInZeroBucket) {
  Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, QuantileOnEmptyHistogramIsZeroForAllQ) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Histogram, QuantileSingleSampleIsThatSampleAtBothEnds) {
  Histogram h;
  h.record(100);
  EXPECT_EQ(h.quantile(0.0), 100u);
  EXPECT_EQ(h.quantile(0.5), 100u);
  EXPECT_EQ(h.quantile(1.0), 100u);
}

TEST(Histogram, QuantileOneIsExactMax) {
  // quantile(1.0) must return max() exactly, not a bucket upper bound.
  Histogram h;
  h.record(1);
  h.record(1000);  // bucket upper bound 1023
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(Histogram, QuantileZeroBoundsTheSmallestSample) {
  Histogram h;
  h.record(5);
  h.record(100);
  // q=0 lands in the smallest occupied bucket: [4,7] for sample 5.
  EXPECT_GE(h.quantile(0.0), 5u);
  EXPECT_LE(h.quantile(0.0), 7u);
}

TEST(Histogram, QuantileClampsOutOfRangeQ) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, LargeSamplesSaturateWithoutOverflow) {
  Histogram h;
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), ~0ULL);
  EXPECT_EQ(h.quantile(1.0), ~0ULL);
}

TEST(StatsRegistry, SnapshotDeterministicAfterConcurrentRecord) {
  StatsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      auto& h = reg.histogram("lat");
      for (std::uint64_t i = 1; i <= kPerThread; ++i) h.record(i);
    });
  }
  for (auto& t : threads) t.join();

  // Every concurrent record landed, and repeated snapshots agree exactly.
  const auto a = reg.snapshot();
  const auto b = reg.snapshot();
  const auto& ha = a.histograms.at("lat");
  const auto& hb = b.histograms.at("lat");
  EXPECT_EQ(ha.count, kThreads * kPerThread);
  EXPECT_EQ(ha.sum, kThreads * kPerThread * (kPerThread + 1) / 2);
  EXPECT_EQ(ha.max, kPerThread);
  EXPECT_EQ(ha.count, hb.count);
  EXPECT_EQ(ha.sum, hb.sum);
  EXPECT_EQ(ha.p50, hb.p50);
  EXPECT_EQ(ha.p99, hb.p99);
}

TEST(StatsRegistry, SnapshotUnderLiveWritersIsInternallyBounded) {
  // A snapshot may straddle concurrent records; it must still be sane:
  // counts never go backwards and no value escapes the sample domain.
  StatsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto& h = reg.histogram("live");
    std::uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) h.record(i++ % 4096);
  });
  std::uint64_t last_count = 0;
  for (int k = 0; k < 200; ++k) {
    const auto snap = reg.snapshot();
    const auto it = snap.histograms.find("live");
    if (it == snap.histograms.end()) continue;
    EXPECT_GE(it->second.count, last_count);
    last_count = it->second.count;
    EXPECT_LE(it->second.max, 4095u);
    EXPECT_LE(it->second.p50, it->second.p99);
  }
  stop.store(true);
  writer.join();
}

TEST(StatsRegistry, CounterIsStableAcrossLookups) {
  StatsRegistry reg;
  reg.counter("x").add(3);
  reg.counter("x").add(4);
  EXPECT_EQ(reg.snapshot().counter("x"), 7u);
}

TEST(StatsRegistry, UnknownCounterReadsZero) {
  StatsRegistry reg;
  EXPECT_EQ(reg.snapshot().counter("never-touched"), 0u);
}

TEST(StatsRegistry, SnapshotCapturesHistograms) {
  StatsRegistry reg;
  reg.histogram("h").record(10);
  reg.histogram("h").record(30);
  const auto snap = reg.snapshot();
  const auto it = snap.histograms.find("h");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_DOUBLE_EQ(it->second.mean, 20.0);
}

TEST(StatsRegistry, ResetClearsEverything) {
  StatsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h").record(5);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(StatsRegistry, ToStringMentionsNames) {
  StatsRegistry reg;
  reg.counter("net.msgs").add(12);
  const auto text = reg.snapshot().to_string();
  EXPECT_NE(text.find("net.msgs"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
}

TEST(StatsRegistry, ConcurrentRegistrationIsSafe) {
  StatsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 100; ++i) {
        reg.counter("shared").add();
        reg.counter("own." + std::to_string(t)).add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counter("shared"), 800u);
}

}  // namespace
}  // namespace dsm
