// Quorum-replicated RC (QRC) tests: replica-group membership, baseline
// coherence across replication factors, and the tentpole crash guarantees —
// a seeded kill mid-run loses no acknowledged write, the next live group
// member takes over a dead primary's pages, and a killed-and-restarted
// member resyncs through kReplRecover before serving again.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>

#include "core/dsm.hpp"
#include "proto/qrc.hpp"

#include "../gtest_util.hpp"
#include "../test_util.hpp"

namespace dsm {
namespace {

Config qrc_config(std::size_t nodes, std::size_t repl) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kQrc;
  cfg.ft.enabled = true;
  cfg.ft.replication = repl;
  cfg.check_level = CheckLevel::kAssert;
  return cfg;
}

TEST(QrcTest, ReplicaGroupsAreConsecutiveFromTheHome) {
  System sys(qrc_config(4, 2));
  const auto& qrc = dynamic_cast<const QrcProtocol&>(sys.protocol(0));
  // Page 1 is homed at node 1: group {1, 2}.
  EXPECT_TRUE(qrc.in_group(1, 1));
  EXPECT_TRUE(qrc.in_group(1, 2));
  EXPECT_FALSE(qrc.in_group(1, 3));
  EXPECT_FALSE(qrc.in_group(1, 0));
  // Groups wrap: page 3's group is {3, 0}.
  EXPECT_TRUE(qrc.in_group(3, 3));
  EXPECT_TRUE(qrc.in_group(3, 0));
  // With everyone alive the primary is the home itself.
  EXPECT_EQ(qrc.primary_of(1), 1u);
  EXPECT_EQ(qrc.primary_of(3), 3u);
}

TEST(QrcTest, ColdReadRecordsItsFaultTransaction) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = qrc_config(2, 2);
  cfg.trace.enabled = true;
  cfg.trace.buffer_spans = 1 << 16;
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::uint64_t seen = 1;
  sys.run([&](Worker& w) {
    if (w.id() == 1) seen = *w.get(cell);
  });
  EXPECT_EQ(seen, 0u);
  std::uint64_t spans = 0;
  for (const auto& ev : sys.tracer()->all_events()) {
    if (ev.node == 1 && ev.cat == TraceCat::kProto && std::string_view(ev.name) == "fault-txn") {
      ++spans;
    }
  }
  const std::uint64_t faults = sys.stats().counter("proto.read_faults");
  EXPECT_GE(faults, 1u);
  EXPECT_EQ(spans, faults);
}

// Two sibling threads of node 2 write different words of page 0 under
// different locks and release one after the other, so two flushes of the
// page are in flight. The primary (node 0) serializes them; node 1's sync
// acks are held so that the first write is acknowledged only after the
// second reached the primary. That first ack must not complete the second
// release: each flush waits for its own ack.
TEST(QrcTest, SamePageFlushesEachWaitForTheirOwnAck) {
  std::string reason;
  if (!uffd_available(&reason)) GTEST_SKIP() << "[uffd unavailable] " << reason;
  Config cfg = qrc_config(3, 2);  // page 0: primary node 0, backup node 1
  cfg.fault_engine = FaultEngineKind::kUffd;
  cfg.app_threads = 2;
  cfg.reliability.rto_max_ms = 10;  // held acks retry often and never give up
  cfg.reliability.max_retries = 100'000;
  std::atomic<int> writes{0};  // node 2's flushes that reached the primary
  std::atomic<bool> first_ack_out{false}, written_back{false}, release_all{false};
  std::atomic<bool> second_released{false};
  System sys(cfg);
  const auto a_word = sys.alloc_page_aligned<std::uint64_t>(2);  // page 0
  const auto b_word = a_word + 1;
  sys.network().set_drop_hook([&](const Message& msg) {
    if (msg.type == MsgType::kReplWrite && msg.src == 2) writes++;
    if (msg.type == MsgType::kReplWriteAck && msg.dst == 2) written_back = true;
    if (msg.type != MsgType::kReplSyncAck || msg.src != 1 || release_all) return false;
    bool expected = false;
    return writes.load() < 2 || !first_ack_out.compare_exchange_strong(expected, true);
  });
  bool blocked_after_200ms = false;
  std::uint64_t a_seen = 0, b_seen = 0;
  sys.run([&](Worker& w) {
    if (w.id() == 2) {
      std::thread second = w.spawn([&](Worker& s) {
        while (writes.load() < 1) std::this_thread::yield();
        s.acquire(2);
        *s.get(b_word) = 2;
        s.release(2);
        second_released = true;
      });
      w.acquire(1);
      *w.get(a_word) = 1;
      w.release(1);
      second.join();
    }
    if (w.id() == 0) {
      while (!written_back) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      blocked_after_200ms = !second_released;
      release_all = true;
    }
    w.barrier(0);
    if (w.id() == 0) {
      a_seen = test::force_read(w.get(a_word));
      b_seen = test::force_read(w.get(b_word));
    }
  });
  EXPECT_TRUE(blocked_after_200ms) << "the second release returned on the first flush's ack";
  EXPECT_EQ(a_seen, 1u);
  EXPECT_EQ(b_seen, 2u);
}

class QrcReplicationTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }
};

TEST_P(QrcReplicationTest, LockedCounterIsCoherent) {
  System sys(qrc_config(3, GetParam()));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> observed{0};
  sys.run([&](Worker& w) {
    for (int round = 0; round < 4; ++round) {
      w.acquire(0);
      *w.get(cell) += 1;
      w.release(0);
    }
    w.barrier(0);
    if (w.id() == 0) observed = test::force_read(w.get(cell));
    w.barrier(0);
  });
  EXPECT_EQ(observed.load(), 12u);
  EXPECT_GE(sys.stats().counter("proto.flushes"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Factors, QrcReplicationTest, ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<std::size_t>& pi) {
                           return "r" + std::to_string(pi.param);
                         });

// The acceptance-criteria scenario: replication 3, a seeded kill of one
// replica mid-run. Every write acknowledged before the crash must survive
// (the checker runs at kAssert and would abort on a lost update), the
// surviving fleet must complete, and the next live member must take over
// primaryship of the dead node's pages.
TEST(QrcFtTest, SeededKillLosesNoAcknowledgedWrite) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = qrc_config(4, 3);
  cfg.ft.faults = {{/*node=*/2, /*kill_at=*/1'000'000'000, /*restart=*/false}};
  System sys(cfg);
  const auto counter = sys.alloc_page_aligned<std::uint64_t>();  // page 0: group {0,1,2}
  (void)sys.alloc_page_aligned<std::uint64_t>();                 // page 1 (unused)
  const auto orphan = sys.alloc_page_aligned<std::uint64_t>();   // page 2: homed at the victim
  std::atomic<std::uint64_t> observed{0};
  std::atomic<std::uint64_t> orphan_observed{0};
  sys.run([&](Worker& w) {
    w.acquire(0);
    *w.get(counter) += 1;
    w.release(0);  // acked against the {0,1,2} quorum before anyone can die
    // The victim's virtual clock jumps past its kill_at deadline here; it
    // dies at this boundary, after its increment was acknowledged.
    if (w.id() == 2) w.compute(1'000'000'000);
    w.barrier(0);  // completes over the surviving workers only
    if (w.id() == 0) observed = test::force_read(w.get(counter));
    // Page 2's home is dead; node 3 (next live group member) must serve it.
    if (w.id() == 1) {
      w.acquire(1);
      *w.get(orphan) = 77;
      w.release(1);
    }
    w.barrier(1);
    if (w.id() == 3) orphan_observed = test::force_read(w.get(orphan));
    w.barrier(2);
  });
  EXPECT_EQ(observed.load(), 4u);  // all four increments, including the victim's
  EXPECT_EQ(orphan_observed.load(), 77u);
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("ft.kills"), 1u);
  EXPECT_EQ(snap.counter("ft.restarts"), 0u);
  EXPECT_GE(snap.counter("qrc.takeovers"), 1u);
}

TEST(QrcFtTest, KilledReplicaRestartsAndResyncs) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = qrc_config(3, 3);
  cfg.ft.faults = {{/*node=*/1, /*kill_at=*/1'000'000'000, /*restart=*/true}};
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> observed{0};
  sys.run([&](Worker& w) {
    w.acquire(0);
    *w.get(cell) += 1;
    w.release(0);
    if (w.id() == 1) w.compute(1'000'000'000);  // dies, then rejoins the fabric
    w.barrier(0);
    // Write traffic after the restart: the resynced replica must accept
    // quorum syncs again without wedging the writer.
    if (w.id() == 2) {
      w.acquire(0);
      *w.get(cell) += 10;
      w.release(0);
    }
    w.barrier(1);
    if (w.id() == 0) observed = test::force_read(w.get(cell));
    w.barrier(2);
  });
  EXPECT_EQ(observed.load(), 13u);
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("ft.kills"), 1u);
  EXPECT_EQ(snap.counter("ft.restarts"), 1u);
  EXPECT_GE(snap.counter("qrc.recoveries"), 1u);
}

}  // namespace
}  // namespace dsm
