// Randomized data-race-free program generator: K counters, each guarded by
// its own lock, hammered by every node in random order, with barrier rounds
// in between. A host-side shadow array (updated while holding the same DSM
// lock) is the oracle: any protocol that loses, duplicates, or mis-orders a
// write trips the comparison. This is the suite's broadest property test —
// one schedule-dependent consistency bug anywhere in the stack shows up
// here as a counter mismatch.
//
// The Siblings/ cases add real intra-node concurrency: each node's primary
// thread spawns sibling app threads every round, all incrementing the same
// lock-protected counters, so protocol faults, dirty-list flushes and the
// SyncAgent's per-lock gate are entered by several threads of one node.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "core/dsm.hpp"

#include "../gtest_util.hpp"
#include "../test_util.hpp"

namespace dsm {
namespace {

struct DrfCase {
  ProtocolKind protocol;
  std::size_t n_nodes;
  bool shared_pages;  ///< counters packed onto shared pages (false sharing)
  std::uint64_t seed;
  std::size_t threads = 1;  ///< app threads per node (> 1: uffd engine)
  LockPolicy lock_policy = LockPolicy::kForwardChain;
};

std::string case_name(const ::testing::TestParamInfo<DrfCase>& pi) {
  std::string s = to_string(pi.param.protocol);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_n" + std::to_string(pi.param.n_nodes) +
         (pi.param.shared_pages ? "_packed" : "_padded") + "_s" +
         std::to_string(pi.param.seed) +
         (pi.param.lock_policy == LockPolicy::kCentralized ? "_central" : "");
}

class RandomDrfTest : public ::testing::TestWithParam<DrfCase> {
 protected:
  void SetUp() override {
    TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
    std::string reason;
    if (GetParam().threads > 1 && !uffd_available(&reason)) {
      GTEST_SKIP() << "[uffd unavailable] " << reason;
    }
  }
};

// The generated program is DRF by construction, so it doubles as a negative
// control for dsmcheck: every case runs once plain and once under
// check_level=assert, where a single false race report or invariant
// violation would abort the whole binary.
void run_drf_case(const DrfCase& param, CheckLevel check_level,
                  bool batched_wire = false) {
  constexpr std::size_t kVars = 6;
  constexpr int kRounds = 4;
  constexpr int kOpsPerRound = 12;

  Config cfg;
  cfg.n_nodes = param.n_nodes;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.n_pages = 32;
  cfg.protocol = param.protocol;
  cfg.check_level = check_level;
  cfg.lock_policy = param.lock_policy;
  if (param.threads > 1) {
    cfg.fault_engine = FaultEngineKind::kUffd;
    cfg.app_threads = param.threads;
  }
  if (batched_wire) {
    cfg.wire.batching = true;
    cfg.wire.piggyback_acks = true;
    cfg.wire.compress_pages = true;
    cfg.wire.compress_diffs = true;
  }
  System sys(cfg);

  // Layout: packed = all counters on one page (maximum interference);
  // padded = one page per counter.
  std::vector<Shared<std::uint64_t>> vars(kVars);
  if (param.shared_pages) {
    const auto block = sys.alloc_page_aligned<std::uint64_t>(kVars);
    for (std::size_t v = 0; v < kVars; ++v) vars[v] = block + v;
  } else {
    for (std::size_t v = 0; v < kVars; ++v) {
      vars[v] = sys.alloc_page_aligned<std::uint64_t>();
    }
  }

  std::array<std::atomic<std::uint64_t>, kVars> shadow = {};
  std::atomic<std::uint64_t> mismatches{0};

  sys.run([&](Worker& w) {
    if (cfg.protocol == ProtocolKind::kEc) {
      for (std::size_t v = 0; v < kVars; ++v) {
        w.bind(static_cast<LockId>(v), vars[v]);
      }
    }
    w.barrier(0);
    // One generator per app thread of this node; thread 0 is the primary.
    std::vector<SplitMix64> rngs;
    for (std::size_t t = 0; t < param.threads; ++t) {
      rngs.emplace_back(param.seed * 1000003 + w.id() + t * 65536);
    }
    const auto increments = [&](Worker& self, SplitMix64& rng) {
      for (int op = 0; op < kOpsPerRound; ++op) {
        const auto v = static_cast<std::size_t>(rng.next_below(kVars));
        const auto lock = static_cast<LockId>(v);
        self.acquire(lock);
        // The DSM counter and the host shadow must agree while the lock is
        // held — this is the consistency oracle.
        const std::uint64_t dsm_value = test::force_read(self.get(vars[v]));
        const std::uint64_t shadow_value = shadow[v].load(std::memory_order_relaxed);
        if (dsm_value != shadow_value) mismatches++;
        *self.get(vars[v]) = dsm_value + 1;
        shadow[v].store(shadow_value + 1, std::memory_order_relaxed);
        self.compute(rng.next_below(500));
        self.release(lock);
      }
    };

    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::thread> siblings;
      for (std::size_t t = 1; t < param.threads; ++t) {
        siblings.push_back(w.spawn([&, t](Worker& s) { increments(s, rngs[t]); }));
      }
      increments(w, rngs[0]);
      for (auto& s : siblings) s.join();
      w.barrier(0);
      // Post-barrier, re-check every counter under its lock (EC requires
      // the lock; for the others it also exercises acquire-path metadata).
      for (std::size_t v = 0; v < kVars; ++v) {
        w.acquire(static_cast<LockId>(v));
        if (test::force_read(w.get(vars[v])) != shadow[v].load()) mismatches++;
        w.release(static_cast<LockId>(v));
      }
      w.barrier(1);
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  std::uint64_t total = 0;
  for (const auto& s : shadow) total += s.load();
  EXPECT_EQ(total, param.n_nodes * param.threads * kRounds * kOpsPerRound);

  if (check_level != CheckLevel::kOff) {
    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_EQ(sys.checker()->violations(), 0u);
    // The detector saw real traffic (EC never faults — its pages are
    // writable everywhere — so it contributes no observed accesses).
    if (param.protocol != ProtocolKind::kEc) {
      EXPECT_GT(sys.stats().counter("check.accesses"), 0u);
    }
  } else {
    EXPECT_EQ(sys.checker(), nullptr);
    EXPECT_EQ(sys.stats().counter("check.accesses"), 0u);
  }
}

TEST_P(RandomDrfTest, LockProtectedCountersMatchShadow) {
  run_drf_case(GetParam(), CheckLevel::kOff);
}

TEST_P(RandomDrfTest, StaysSilentUnderCheckAssert) {
  run_drf_case(GetParam(), CheckLevel::kAssert);
}

TEST_P(RandomDrfTest, BatchedWireStaysExactUnderCheckAssert) {
  // The full wire-optimisation stack (coalescing + piggybacked acks +
  // compression) under the checker: batching must never reorder, drop, or
  // corrupt — any slip shows as a shadow mismatch or a dsmcheck abort.
  run_drf_case(GetParam(), CheckLevel::kAssert, /*batched_wire=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDrfTest,
    ::testing::Values(
        DrfCase{ProtocolKind::kIvyCentral, 4, true, 1},
        DrfCase{ProtocolKind::kIvyFixed, 4, true, 2},
        DrfCase{ProtocolKind::kIvyDynamic, 4, true, 3},
        DrfCase{ProtocolKind::kIvyDynamic, 8, true, 4},
        DrfCase{ProtocolKind::kIvyDynamic, 8, false, 5},
        DrfCase{ProtocolKind::kErcInvalidate, 4, true, 6},
        DrfCase{ProtocolKind::kErcInvalidate, 8, true, 7},
        DrfCase{ProtocolKind::kErcUpdate, 4, true, 8},
        DrfCase{ProtocolKind::kErcUpdate, 8, false, 9},
        DrfCase{ProtocolKind::kLrc, 4, true, 10},
        DrfCase{ProtocolKind::kLrc, 8, true, 11},
        DrfCase{ProtocolKind::kLrc, 8, false, 12},
        DrfCase{ProtocolKind::kHlrc, 4, true, 15},
        DrfCase{ProtocolKind::kHlrc, 8, false, 16},
        DrfCase{ProtocolKind::kEc, 4, true, 13},
        DrfCase{ProtocolKind::kEc, 8, true, 14}),
    case_name);

// Four app threads per node, one page per counter: concurrent faults and
// flushes on protocol pages. Kept out of the env-driven .udp/.uffd/.mt*
// copies (their filters select Sweep/ only), whose TUTORDSM_APP_THREADS
// would override the explicit thread count. ivy-dynamic, a single-writer
// protocol with no dirty list, is the control. The centralized cases run
// the home-managed lock path (acquire/release as the write mode) under the
// same sibling contention.
INSTANTIATE_TEST_SUITE_P(
    Siblings, RandomDrfTest,
    ::testing::Values(
        DrfCase{ProtocolKind::kErcInvalidate, 8, false, 21, 4},
        DrfCase{ProtocolKind::kErcUpdate, 8, false, 22, 4},
        DrfCase{ProtocolKind::kHlrc, 8, false, 23, 4},
        DrfCase{ProtocolKind::kLrc, 8, false, 24, 4},
        DrfCase{ProtocolKind::kQrc, 4, false, 25, 4},
        DrfCase{ProtocolKind::kQrc, 8, false, 26, 4},
        DrfCase{ProtocolKind::kIvyDynamic, 8, false, 27, 4},
        DrfCase{ProtocolKind::kErcInvalidate, 8, false, 28, 4, LockPolicy::kCentralized},
        DrfCase{ProtocolKind::kLrc, 8, false, 29, 4, LockPolicy::kCentralized},
        DrfCase{ProtocolKind::kHlrc, 8, false, 30, 4, LockPolicy::kCentralized}),
    case_name);

}  // namespace
}  // namespace dsm
