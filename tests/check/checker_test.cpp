// Unit tests of the dsmcheck engine driven directly through its hook API —
// no System, no threads, no faults. Count mode throughout, so violations
// accumulate in counters instead of aborting.
#include "check/checker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/stats.hpp"

namespace dsm {
namespace {

class CheckerTest : public ::testing::Test {
 protected:
  std::unique_ptr<DsmChecker> make(std::size_t n_nodes = 2, bool swmr = false) {
    DsmChecker::Setup setup;
    setup.n_nodes = n_nodes;
    setup.n_pages = 8;
    setup.page_size = 4096;
    setup.n_locks = 4;
    setup.n_barriers = 2;
    setup.level = CheckLevel::kCount;
    setup.swmr = swmr;
    setup.protocol = "unit";
    setup.stats = &stats_;
    return std::make_unique<DsmChecker>(std::move(setup));
  }

  std::uint64_t races() const { return stats_.snapshot().counter("check.races"); }

  StatsRegistry stats_;
};

TEST_F(CheckerTest, UnorderedWritesToSameWordAreARace) {
  auto chk = make();
  chk->on_access(0, 3, 16, /*is_write=*/true);
  chk->on_access(1, 3, 16, /*is_write=*/true);
  EXPECT_EQ(races(), 1u);
  EXPECT_EQ(chk->violations(), 1u);
  // The report names the page, both epochs, and the missing HB edge.
  const std::string report = chk->last_violation();
  EXPECT_NE(report.find("data race on page 3"), std::string::npos) << report;
  EXPECT_NE(report.find("1@0"), std::string::npos) << report;
  EXPECT_NE(report.find("1@1"), std::string::npos) << report;
  EXPECT_NE(report.find("happens-before"), std::string::npos) << report;
}

TEST_F(CheckerTest, UnorderedWriteThenReadIsARace) {
  auto chk = make();
  chk->on_access(0, 1, 0, true);
  chk->on_access(1, 1, 0, false);
  EXPECT_EQ(races(), 1u);
}

TEST_F(CheckerTest, UnorderedReadThenWriteIsARace) {
  auto chk = make();
  chk->on_access(0, 1, 0, false);
  chk->on_access(1, 1, 0, true);
  EXPECT_EQ(races(), 1u);
}

TEST_F(CheckerTest, ConcurrentReadsAreNotARace) {
  auto chk = make();
  chk->on_access(0, 1, 0, false);
  chk->on_access(1, 1, 0, false);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, DistinctWordsOnOnePageDoNotConflict) {
  auto chk = make();
  chk->on_access(0, 1, 0, true);
  chk->on_access(1, 1, 8, true);   // next word
  chk->on_access(1, 1, 4096 - 8, true);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, SubWordOffsetsShareOneWord) {
  auto chk = make();
  chk->on_access(0, 1, 8, true);
  chk->on_access(1, 1, 13, true);  // same aligned 8-byte word as offset 8
  EXPECT_EQ(races(), 1u);
}

TEST_F(CheckerTest, SameNodeAccessesAreProgramOrdered) {
  auto chk = make();
  chk->on_access(0, 1, 0, true);
  chk->on_access(0, 1, 0, true);
  chk->on_access(0, 1, 0, false);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, ReleaseAcquireOrdersTheWrites) {
  auto chk = make();
  chk->on_lock_acquired(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_access(0, 1, 0, true);
  chk->on_lock_released(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(1, 0, DsmChecker::LockMode::kWrite);
  chk->on_access(1, 1, 0, true);
  chk->on_lock_released(1, 0, DsmChecker::LockMode::kWrite);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, ADifferentLockDoesNotOrderTheWrites) {
  auto chk = make();
  chk->on_lock_acquired(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_access(0, 1, 0, true);
  chk->on_lock_released(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(1, 1, DsmChecker::LockMode::kWrite);
  chk->on_access(1, 1, 0, true);
  chk->on_lock_released(1, 1, DsmChecker::LockMode::kWrite);
  EXPECT_EQ(races(), 1u);
}

TEST_F(CheckerTest, BarrierOrdersAllPriorWrites) {
  auto chk = make();
  chk->on_access(0, 2, 0, true);
  chk->on_barrier_arrive(0, 0);
  chk->on_barrier_arrive(1, 0);
  chk->on_barrier_depart(0, 0);
  chk->on_barrier_depart(1, 0);
  chk->on_access(1, 2, 0, true);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, SecondBarrierRoundStillOrders) {
  auto chk = make();
  for (int round = 0; round < 2; ++round) {
    const NodeId writer = static_cast<NodeId>(round % 2);
    chk->on_access(writer, 2, 0, true);
    chk->on_barrier_arrive(0, 0);
    chk->on_barrier_arrive(1, 0);
    chk->on_barrier_depart(0, 0);
    chk->on_barrier_depart(1, 0);
  }
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, TransitiveHappensBeforeIsCarried) {
  auto chk = make(3);
  chk->on_access(0, 1, 0, true);
  // 0 -> 1 via lock 0, then 1 -> 2 via lock 1: node 2 is ordered after
  // node 0's write it never directly synchronized with.
  chk->on_lock_acquired(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_released(0, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(1, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_released(1, 0, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(1, 1, DsmChecker::LockMode::kWrite);
  chk->on_lock_released(1, 1, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(2, 1, DsmChecker::LockMode::kWrite);
  chk->on_access(2, 1, 0, true);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CheckerTest, DeathOrdersTheVictimsReleasedWritesBeforeLaterBarriers) {
  // Node 2 writes under a lock, releases, writes once more and dies; the
  // survivors' barrier completes without it. Its released write was
  // acknowledged before the death, so a read after the barrier is ordered
  // after it. The write after its last release stays unordered.
  auto chk = make(3);
  chk->on_lock_acquired(2, 0, DsmChecker::LockMode::kWrite);
  chk->on_access(2, 1, 0, true);
  chk->on_lock_released(2, 0, DsmChecker::LockMode::kWrite);
  chk->on_access(2, 1, 8, true);
  chk->on_node_killed(2);
  chk->on_barrier_arrive(0, 0);
  chk->on_barrier_arrive(1, 0);
  chk->on_barrier_depart(0, 0);
  chk->on_barrier_depart(1, 0);
  chk->on_access(0, 1, 0, false);
  EXPECT_EQ(races(), 0u) << chk->last_violation();
  chk->on_access(1, 1, 8, false);
  EXPECT_EQ(races(), 1u);
}

TEST_F(CheckerTest, DoubleExclusiveGrantIsATokenViolation) {
  auto chk = make();
  chk->on_lock_acquired(0, 2, DsmChecker::LockMode::kWrite);
  chk->on_lock_acquired(1, 2, DsmChecker::LockMode::kWrite);
  EXPECT_EQ(stats_.snapshot().counter("check.token"), 1u);
}

TEST_F(CheckerTest, WriteGrantWhileReadersHoldIsATokenViolation) {
  auto chk = make();
  chk->on_lock_acquired(0, 2, DsmChecker::LockMode::kRead);
  chk->on_lock_acquired(1, 2, DsmChecker::LockMode::kWrite);
  EXPECT_EQ(stats_.snapshot().counter("check.token"), 1u);
}

TEST_F(CheckerTest, ConcurrentReadersAreLegal) {
  auto chk = make();
  chk->on_lock_acquired(0, 2, DsmChecker::LockMode::kRead);
  chk->on_lock_acquired(1, 2, DsmChecker::LockMode::kRead);
  chk->on_lock_released(0, 2, DsmChecker::LockMode::kRead);
  chk->on_lock_released(1, 2, DsmChecker::LockMode::kRead);
  EXPECT_EQ(chk->violations(), 0u);
}

TEST_F(CheckerTest, TwoWritableCopiesViolateSwmr) {
  auto chk = make(2, /*swmr=*/true);
  chk->on_page_state(0, 5, PageState::kReadWrite);
  chk->on_page_state(1, 5, PageState::kReadWrite);
  EXPECT_EQ(stats_.snapshot().counter("check.swmr"), 1u);
  EXPECT_NE(chk->last_violation().find("SWMR"), std::string::npos);
}

TEST_F(CheckerTest, ReaderBesideWriterViolatesSwmr) {
  auto chk = make(2, true);
  chk->on_page_state(0, 5, PageState::kReadWrite);
  chk->on_page_state(1, 5, PageState::kReadOnly);
  EXPECT_EQ(stats_.snapshot().counter("check.swmr"), 1u);
}

TEST_F(CheckerTest, WriterAfterInvalidationIsLegalSwmr) {
  auto chk = make(2, true);
  chk->on_page_state(0, 5, PageState::kReadWrite);
  chk->on_page_state(0, 5, PageState::kInvalid);
  chk->on_page_state(1, 5, PageState::kReadWrite);
  chk->on_page_state(1, 5, PageState::kReadOnly);
  chk->on_page_state(0, 5, PageState::kReadOnly);
  EXPECT_EQ(chk->violations(), 0u);
}

TEST_F(CheckerTest, MultiWriterProtocolsSkipSwmr) {
  auto chk = make(2, /*swmr=*/false);
  chk->on_page_state(0, 5, PageState::kReadWrite);
  chk->on_page_state(1, 5, PageState::kReadWrite);
  EXPECT_EQ(chk->violations(), 0u);
}

TEST_F(CheckerTest, PageVersionMustStrictlyIncrease) {
  auto chk = make();
  chk->on_page_version(0, 1, 1);
  chk->on_page_version(0, 1, 2);
  EXPECT_EQ(chk->violations(), 0u);
  chk->on_page_version(0, 1, 2);  // stall
  EXPECT_EQ(stats_.snapshot().counter("check.version"), 1u);
  chk->on_page_version(0, 1, 1);  // regression
  EXPECT_EQ(stats_.snapshot().counter("check.version"), 2u);
}

TEST_F(CheckerTest, LockVersionMayRepeatButNotRegress) {
  auto chk = make();
  chk->on_lock_version(0, 1, 3);
  chk->on_lock_version(0, 1, 3);
  EXPECT_EQ(chk->violations(), 0u);
  chk->on_lock_version(0, 1, 2);
  EXPECT_EQ(stats_.snapshot().counter("check.version"), 1u);
}

TEST_F(CheckerTest, VectorClockMustDominatePrevious) {
  auto chk = make();
  VectorClock a(2);
  a.tick(0);
  chk->on_vclock(0, a);
  a.tick(1);
  chk->on_vclock(0, a);
  EXPECT_EQ(chk->violations(), 0u);
  VectorClock regressed(2);  // all zeros: dominated by a, not dominating
  chk->on_vclock(0, regressed);
  EXPECT_EQ(stats_.snapshot().counter("check.vclock"), 1u);
}

TEST_F(CheckerTest, DeliverySeqMustBeContiguousPerLink) {
  auto chk = make();
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.src = 0;
  msg.dst = 1;
  msg.seq = 0;
  chk->on_deliver(msg);
  msg.seq = 1;
  chk->on_deliver(msg);
  EXPECT_EQ(chk->violations(), 0u);
  msg.seq = 3;  // hole: seq 2 skipped
  chk->on_deliver(msg);
  EXPECT_EQ(stats_.snapshot().counter("check.order"), 1u);
}

TEST_F(CheckerTest, ControlTrafficWithoutSeqIsIgnored) {
  auto chk = make();
  Message msg;
  msg.type = MsgType::kWakeup;
  msg.src = 0;
  msg.dst = 0;
  msg.seq = Message::kNoSeq;
  chk->on_deliver(msg);
  chk->on_deliver(msg);
  EXPECT_EQ(chk->violations(), 0u);
}

TEST_F(CheckerTest, LinksTrackSeqIndependently) {
  auto chk = make();
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.seq = 0;
  msg.src = 0;
  msg.dst = 1;
  chk->on_deliver(msg);
  msg.src = 1;
  msg.dst = 0;
  chk->on_deliver(msg);  // seq 0 again, different link: fine
  EXPECT_EQ(chk->violations(), 0u);
}

TEST_F(CheckerTest, DumpIncludesLastViolation) {
  auto chk = make();
  chk->on_access(0, 3, 0, true);
  chk->on_access(1, 3, 0, true);
  std::ostringstream os;
  chk->dump_last_violation(os);
  EXPECT_NE(os.str().find("data race on page 3"), std::string::npos);
  EXPECT_NE(os.str().find("[dsmcheck]"), std::string::npos);
}

TEST_F(CheckerTest, CleanRunDumpsNothing) {
  auto chk = make();
  chk->on_access(0, 3, 0, true);
  std::ostringstream os;
  chk->dump_last_violation(os);
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace dsm
