// The cross-protocol correctness matrix: every protocol × several node
// counts × two page sizes, each running small workloads with exact expected
// results. If a protocol mis-orders, loses, or duplicates a write, these
// checksums break.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string_view>
#include <tuple>

#include "apps/kernels.hpp"
#include "core/dsm.hpp"

#include "../gtest_util.hpp"
#include "../test_util.hpp"

namespace dsm {
namespace {

struct MatrixCase {
  ProtocolKind protocol;
  std::size_t n_nodes;
  std::size_t os_pages_per_dsm_page;
};

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& pi) {
  std::string s = to_string(pi.param.protocol);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_n" + std::to_string(pi.param.n_nodes) + "_p" +
         std::to_string(pi.param.os_pages_per_dsm_page);
}

class ProtocolMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }

  Config make_config(std::size_t n_pages = 32) const {
    Config cfg;
    cfg.n_nodes = GetParam().n_nodes;
    cfg.page_size = GetParam().os_pages_per_dsm_page * ViewRegion::os_page_size();
    cfg.n_pages = n_pages;
    cfg.protocol = GetParam().protocol;
    // Every matrix case also runs under dsmcheck's strictest mode: the
    // workloads are DRF, so any race report or invariant violation aborts.
    cfg.check_level = CheckLevel::kAssert;
    return cfg;
  }
};

TEST_P(ProtocolMatrixTest, ScatterThenGather) {
  System sys(make_config());
  const std::size_t n = GetParam().n_nodes;
  const std::size_t stride = sys.config().page_size / sizeof(std::uint64_t);
  const auto slots = sys.alloc_page_aligned<std::uint64_t>(n * stride);
  std::uint64_t gathered = 0;
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) {
      w.bind_barrier(0, slots, n * stride);
    }
    w.get(slots)[w.id() * stride] = 100 + w.id();
    w.barrier(0);
    if (w.id() == 0) {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < n; ++i) sum += w.get(slots)[i * stride];
      gathered = sum;
    }
    w.barrier(0);
  });
  EXPECT_EQ(gathered, 100u * n + n * (n - 1) / 2);
}

TEST_P(ProtocolMatrixTest, BroadcastReadAfterBarrier) {
  System sys(make_config());
  const auto data = sys.alloc_page_aligned<std::uint64_t>(512);
  std::atomic<int> errors{0};
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind_barrier(0, data, 512);
    if (w.id() == 0) {
      for (std::uint64_t i = 0; i < 512; ++i) w.get(data)[i] = i * i;
    }
    w.barrier(0);
    for (std::uint64_t i = 0; i < 512; ++i) {
      if (w.get(data)[i] != i * i) errors++;
    }
    w.barrier(0);
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST_P(ProtocolMatrixTest, FalseSharingKernelExactCounts) {
  System sys(make_config());
  apps::FalseSharingParams params;
  params.counters_per_node = 4;
  params.iterations = 6;
  const auto result = apps::run_false_sharing(sys, params);
  EXPECT_EQ(result.checksum,
            static_cast<std::uint64_t>(params.iterations) * params.counters_per_node *
                GetParam().n_nodes);
}

TEST_P(ProtocolMatrixTest, MigratoryCounterExact) {
  System sys(make_config());
  apps::MigratoryParams params;
  params.rounds = 5;
  const auto result = apps::run_migratory(sys, params);
  EXPECT_EQ(result.checksum, 5u * GetParam().n_nodes);
}

TEST_P(ProtocolMatrixTest, ReductionExact) {
  System sys(make_config());
  apps::ReduceParams params;
  params.elements_per_node = 500;
  const auto result = apps::run_reduce(sys, params);
  const std::uint64_t total = 500u * GetParam().n_nodes;
  EXPECT_EQ(result.checksum, total * (total - 1) / 2);
}

TEST_P(ProtocolMatrixTest, PingPongThroughLock) {
  System sys(make_config());
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::uint64_t final_value = 0;
  constexpr int kRounds = 30;
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(0, cell);
    w.barrier(0);
    for (int i = 0; i < kRounds; ++i) {
      w.acquire(0);
      *w.get(cell) += 1;
      w.release(0);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(0);
      final_value = *w.get(cell);
      w.release(0);
    }
  });
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(kRounds) * GetParam().n_nodes);
}

TEST_P(ProtocolMatrixTest, TraceInvariantsHold) {
  Config cfg = make_config();
  cfg.trace.enabled = true;
  cfg.trace.buffer_spans = 1 << 16;  // invariants need every span: no drops
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::uint64_t final_value = 0;
  std::atomic<std::uint64_t> initial_sum{0};
  constexpr int kRounds = 5;
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(0, cell);
    w.barrier(0);
    // A plain read first, so every page-fault protocol runs a read fault
    // transaction (an increment may fault as a write straight away).
    initial_sum += *w.get(cell);
    w.barrier(0);
    for (int i = 0; i < kRounds; ++i) {
      w.acquire(0);
      *w.get(cell) += 1;
      w.release(0);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(0);
      final_value = *w.get(cell);
      w.release(0);
    }
  });
  EXPECT_EQ(initial_sum.load(), 0u);
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(kRounds) * GetParam().n_nodes);

  ASSERT_NE(sys.tracer(), nullptr);
  const Tracer& tracer = *sys.tracer();
  // 1. Balance: every fault/proto/sync span closed; nothing outlives the
  //    drain inside System::run.
  EXPECT_EQ(tracer.open_spans(), 0);
  ASSERT_EQ(tracer.dropped(), 0u);

  // 2. Message lifecycle: every non-loopback send instant has exactly one
  //    matching transit (deliver) span by (src, dst, seq) — the fabric
  //    neither loses nor duplicates under zero chaos.
  std::multiset<std::tuple<NodeId, NodeId, std::uint64_t>> sends, delivers;
  std::size_t fault_spans = 0;
  std::size_t fault_txn_spans = 0;
  for (const auto& ev : tracer.all_events()) {
    EXPECT_LE(ev.vstart, ev.vend);
    if (ev.cat == TraceCat::kFault) ++fault_spans;
    if (ev.cat == TraceCat::kProto && std::string_view(ev.name) == "fault-txn") {
      ++fault_txn_spans;
    }
    if (ev.cat != TraceCat::kNet) continue;
    const std::string_view name(ev.name);
    if (name == "send") {
      const auto dst = static_cast<NodeId>(ev.val0);
      if (dst != ev.node) sends.insert({ev.node, dst, ev.val1});
    } else if (name != "retransmit") {
      const auto src = static_cast<NodeId>(ev.val0);
      if (src != ev.node) delivers.insert({src, ev.node, ev.val1});
    }
  }
  EXPECT_EQ(sends, delivers);
  EXPECT_GT(sends.size(), 0u);

  // 3. Fault coverage: the page-fault protocols record fault spans and
  //    their fault transactions; EC moves data with its lock and must
  //    record no fault spans.
  if (GetParam().protocol == ProtocolKind::kEc) {
    EXPECT_EQ(fault_spans, 0u);
  } else {
    EXPECT_GT(fault_spans, 0u);
    EXPECT_GT(fault_txn_spans, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolMatrixTest,
    ::testing::Values(
        MatrixCase{ProtocolKind::kIvyCentral, 2, 1}, MatrixCase{ProtocolKind::kIvyCentral, 5, 1},
        MatrixCase{ProtocolKind::kIvyFixed, 3, 1}, MatrixCase{ProtocolKind::kIvyFixed, 4, 2},
        MatrixCase{ProtocolKind::kIvyDynamic, 2, 1}, MatrixCase{ProtocolKind::kIvyDynamic, 6, 1},
        MatrixCase{ProtocolKind::kIvyDynamic, 4, 2},
        MatrixCase{ProtocolKind::kErcInvalidate, 2, 1},
        MatrixCase{ProtocolKind::kErcInvalidate, 5, 1},
        MatrixCase{ProtocolKind::kErcUpdate, 3, 1}, MatrixCase{ProtocolKind::kErcUpdate, 4, 2},
        MatrixCase{ProtocolKind::kLrc, 2, 1}, MatrixCase{ProtocolKind::kLrc, 5, 1},
        MatrixCase{ProtocolKind::kLrc, 4, 2},
        MatrixCase{ProtocolKind::kHlrc, 2, 1}, MatrixCase{ProtocolKind::kHlrc, 5, 1},
        MatrixCase{ProtocolKind::kHlrc, 4, 2}, MatrixCase{ProtocolKind::kEc, 3, 1},
        MatrixCase{ProtocolKind::kEc, 5, 1}),
    case_name);

// A write to a read-only copy is one write fault in every multiple-writer
// protocol: the upgrade twins the page locally, counts one
// proto.write_faults and charges exactly one kFaultNs.
class UpgradeChargeTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(UpgradeChargeTest, ReadOnlyToWritableChargesOneFault) {
  Config cfg;
  cfg.n_nodes = 1;
  cfg.n_pages = 4;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = GetParam();
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  VirtualTime charged = 0;
  std::uint64_t write_faults = 0;
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));  // a read-only copy
    const auto faults_before = sys.stats().counter("proto.write_faults");
    const VirtualTime t0 = w.now();
    *w.get(cell) = 1;
    charged = w.now() - t0;
    write_faults = sys.stats().counter("proto.write_faults") - faults_before;
  });
  EXPECT_EQ(charged, kFaultNs);
  EXPECT_EQ(write_faults, 1u);
}

INSTANTIATE_TEST_SUITE_P(MultipleWriters, UpgradeChargeTest,
                         ::testing::Values(ProtocolKind::kLrc, ProtocolKind::kErcInvalidate,
                                           ProtocolKind::kErcUpdate, ProtocolKind::kHlrc,
                                           ProtocolKind::kQrc),
                         [](const ::testing::TestParamInfo<ProtocolKind>& pi) {
                           std::string s = to_string(pi.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace dsm
