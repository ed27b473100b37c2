// White-box tests of eager release consistency: multiple-writer merging,
// release-blocking flushes, home authority, invalidate vs update modes.
#include <gtest/gtest.h>

#include <atomic>

#include "core/dsm.hpp"

#include "../test_util.hpp"

namespace dsm {
namespace {

Config erc_config(ProtocolKind mode, std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = mode;
  return cfg;
}

class ErcModeTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ErcModeTest, ConcurrentWritersToOnePageMerge) {
  System sys(erc_config(GetParam(), 4));
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(16);
  std::atomic<int> errors{0};
  sys.run([&](Worker& w) {
    // Four nodes write disjoint words of the SAME page concurrently, with no
    // lock — legal under (e)RC as long as a barrier separates writes from
    // reads. Invalidate-mode single-writer protocols cannot do this.
    for (int k = 0; k < 4; ++k) {
      w.get(arr)[w.id() * 4 + static_cast<unsigned>(k)] = w.id() * 10 + static_cast<unsigned>(k);
    }
    w.barrier(0);
    for (std::uint64_t n = 0; n < 4; ++n) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        if (w.get(arr)[n * 4 + k] != n * 10 + k) errors++;
      }
    }
    w.barrier(0);
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST_P(ErcModeTest, LocalWriteUpgradeCostsNoMessages) {
  System sys(erc_config(GetParam(), 2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));  // both nodes get read copies
    w.barrier(0);
  });
  sys.reset_stats();
  sys.run([&](Worker& w) {
    if (w.id() == 1) *w.get(cell) = 5;  // write upgrade: twin + mprotect, local
  });
  EXPECT_EQ(sys.stats().counter("net.msgs"), 0u);
  EXPECT_EQ(sys.stats().counter("proto.write_faults"), 1u);
}

TEST_P(ErcModeTest, ReleaseFlushesToHome) {
  System sys(erc_config(GetParam(), 2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home node 0
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 99;
      w.release(0);  // must push the diff home before returning
    }
    w.barrier(0);
    // Node 0 reads its OWN copy — the home is always current after a release.
    if (w.id() == 0) { EXPECT_EQ(test::force_read(w.get(cell)), 99u); }
    w.barrier(0);
  });
  EXPECT_GE(sys.stats().counter("net.msgs.Update"), 1u);
}

TEST_P(ErcModeTest, DirtyPagesFlushOnlyOnce) {
  System sys(erc_config(GetParam(), 2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      for (int i = 0; i < 100; ++i) *w.get(cell) += 1;  // many writes, one page
      w.release(0);
    }
    w.barrier(0);
  });
  // One release + one barrier with nothing further dirty ⇒ exactly 1 flush.
  EXPECT_EQ(sys.stats().counter("proto.flushes"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ErcModeTest,
                         ::testing::Values(ProtocolKind::kErcInvalidate,
                                           ProtocolKind::kErcUpdate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& pi) {
                           return pi.param == ProtocolKind::kErcInvalidate
                                      ? std::string("invalidate")
                                      : std::string("update");
                         });

TEST(ErcInvalidate, ReleaseInvalidatesOtherReaders) {
  System sys(erc_config(ProtocolKind::kErcInvalidate, 3));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home node 0
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));  // everyone holds a read copy
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 1;
      w.release(0);
    }
    w.barrier(1);
  });
  // Node 2's copy must be gone (it was neither writer nor home).
  EXPECT_EQ(sys.table(2).state_of(0), PageState::kInvalid);
  EXPECT_GE(sys.stats().counter("net.msgs.Invalidate"), 1u);
}

TEST(ErcUpdate, ReleaseUpdatesOtherReadersInPlace) {
  System sys(erc_config(ProtocolKind::kErcUpdate, 3));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> node2_value{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 42;
      w.release(0);
    }
    w.barrier(1);
    if (w.id() == 2) node2_value = test::force_read(w.get(cell));
    w.barrier(1);
  });
  // Node 2 kept its copy — refreshed, not destroyed.
  EXPECT_EQ(sys.table(2).state_of(0), PageState::kReadOnly);
  EXPECT_EQ(node2_value.load(), 42u);
  EXPECT_EQ(sys.stats().counter("net.msgs.Invalidate"), 0u);
}

TEST(ErcUpdate, UpdateModeSendsNoFaultsAfterBarrierReads) {
  // Under update mode, a stable readership never re-faults: updates arrive
  // in place. This is the update-vs-invalidate trade the tutorial teaches.
  System sys(erc_config(ProtocolKind::kErcUpdate, 3));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));
    w.barrier(0);
  });
  sys.reset_stats();
  std::atomic<int> errors{0};
  sys.run([&](Worker& w) {
    for (int round = 1; round <= 5; ++round) {
      if (w.id() == 0) {
        w.acquire(0);
        *w.get(cell) = static_cast<std::uint64_t>(round);
        w.release(0);
      }
      w.barrier(0);
      if (test::force_read(w.get(cell)) != static_cast<std::uint64_t>(round)) errors++;
      w.barrier(1);
    }
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sys.stats().counter("proto.read_faults"), 0u);
}

TEST(ErcInvalidate, DirtyKeepersReceiveTheReleasedWords) {
  // Two concurrent writers on one page (disjoint words). When A releases,
  // B's dirty copy cannot be destroyed — but B must still observe A's
  // words at its own next synchronization. The home pushes the diff to
  // exactly such "keepers" (counted by erc.keeper_updates).
  System sys(erc_config(ProtocolKind::kErcInvalidate, 3));
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(8);
  std::atomic<std::uint64_t> b_saw_a{0};
  std::atomic<bool> a_done{false};
  std::atomic<bool> b_wrote{false};
  sys.run([&](Worker& w) {
    test::force_read(w.get(arr));
    w.barrier(0);
    if (w.id() == 1) {  // writer A
      while (!b_wrote.load()) std::this_thread::yield();  // B is dirty first
      w.acquire(0);
      w.get(arr)[0] = 100;
      w.release(0);
      a_done = true;
    }
    if (w.id() == 2) {  // concurrent writer B: dirty when A's release lands
      w.get(arr)[4] = 200;  // unsynchronized write, disjoint word
      b_wrote = true;
      while (!a_done.load()) std::this_thread::yield();
      // B reads A's word from its KEPT copy without any fault: the keeper
      // update already delivered it.
      b_saw_a = test::force_read(&w.get(arr)[0]);
    }
    w.barrier(1);
  });
  EXPECT_EQ(b_saw_a.load(), 100u);
  EXPECT_GE(sys.stats().counter("erc.keeper_updates"), 1u);
}

TEST(Erc, HomeOwnWritesAreDiffedToo) {
  // The home writing its own page must still trap, twin, and propagate.
  System sys(erc_config(ProtocolKind::kErcUpdate, 2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home node 0
  std::atomic<std::uint64_t> seen{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(0);
      *w.get(cell) = 7;
      w.release(0);
    }
    w.barrier(1);
    if (w.id() == 1) seen = test::force_read(w.get(cell));
    w.barrier(1);
  });
  EXPECT_EQ(seen.load(), 7u);
}

}  // namespace
}  // namespace dsm
