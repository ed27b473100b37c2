// Reader-writer locks: concurrent readers, exclusive writers, writer
// preference, and consistency payloads riding the grants — across the
// protocols whose grant plumbing differs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/dsm.hpp"

#include "../test_util.hpp"

namespace dsm {
namespace {

Config rw_config(ProtocolKind protocol, std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = protocol;
  return cfg;
}

std::string protocol_name(const ::testing::TestParamInfo<ProtocolKind>& pi) {
  std::string s = to_string(pi.param);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class RwLockTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RwLockTest, ReadersOverlapWritersExclude) {
  System sys(rw_config(GetParam(), 6));
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<int> violations{0};

  sys.run([&](Worker& w) {
    for (int i = 0; i < 10; ++i) {
      if (w.id() % 3 == 0) {
        // Writer.
        w.acquire_write(1);
        if (writers_inside.fetch_add(1) != 0) violations++;
        if (readers_inside.load() != 0) violations++;
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        writers_inside.fetch_sub(1);
        w.release_write(1);
      } else {
        // Reader.
        w.acquire_read(1);
        const int now = readers_inside.fetch_add(1) + 1;
        int prev = max_readers.load();
        while (prev < now && !max_readers.compare_exchange_weak(prev, now)) {
        }
        if (writers_inside.load() != 0) violations++;
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        readers_inside.fetch_sub(1);
        w.release_read(1);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);
  // With 4 readers hammering, overlap should actually happen.
  EXPECT_GE(max_readers.load(), 2);
}

TEST_P(RwLockTest, ReadersSeeTheLastWritersData) {
  System sys(rw_config(GetParam(), 4));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<int> stale{0};
  std::atomic<std::uint64_t> published{0};

  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(1, cell);
    w.barrier(0);
    if (w.id() == 0) {
      for (std::uint64_t round = 1; round <= 8; ++round) {
        w.acquire_write(1);
        *w.get(cell) = round;
        published = round;
        w.release_write(1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        w.acquire_read(1);
        // Must see at least the last value published BEFORE our acquire.
        const std::uint64_t floor = published.load();
        if (test::force_read(w.get(cell)) < floor) stale++;
        w.release_read(1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  EXPECT_EQ(stale.load(), 0);
}

TEST_P(RwLockTest, WriterNotStarvedByReaderStream) {
  std::atomic<bool> writer_done{false};
  std::atomic<int> reads_after_writer_queued{0};
  std::atomic<bool> writer_queued{false};  // outlives the hook below
  System sys(rw_config(GetParam(), 5));
  // The writer counts as queued once its write-mode request (u32 lock |
  // u32 origin | u8 mode, mode 3) reaches the lock's home: reads the home
  // admitted before that are not the writer's to wait out.
  sys.network().set_delivery_hook([&](const Message& msg) {
    if (msg.type != MsgType::kLockRequest || msg.src != 0) return;
    WireReader r(msg.payload);
    const auto lock = r.get<LockId>();
    r.get<NodeId>();
    if (lock == 2 && r.get<std::uint8_t>() == 3) writer_queued = true;
  });

  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      w.acquire_write(2);
      writer_done = true;
      w.release_write(2);
    } else {
      for (int i = 0; i < 50 && !writer_done.load(); ++i) {
        w.acquire_read(2);
        if (writer_queued.load() && !writer_done.load()) reads_after_writer_queued++;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        w.release_read(2);
      }
    }
  });
  EXPECT_TRUE(writer_done.load());
  // Writer preference: once queued, at most the already-admitted readers
  // (≤ 4) plus a small scheduling window may still read.
  EXPECT_LE(reads_after_writer_queued.load(), 12);
}

TEST_P(RwLockTest, RwAndMutexLocksCoexistOnDifferentIds) {
  System sys(rw_config(GetParam(), 3));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();
  const auto b = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) {
      w.bind(3, a);
      w.bind(4, b);
    }
    w.barrier(0);
    for (int i = 0; i < 10; ++i) {
      w.acquire(3);  // plain mutex
      *w.get(a) += 1;
      w.release(3);
      w.acquire_write(4);  // rw writer
      *w.get(b) += 1;
      w.release_write(4);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(3);
      EXPECT_EQ(*w.get(a), 30u);
      w.release(3);
      w.acquire_read(4);
      EXPECT_EQ(test::force_read(w.get(b)), 30u);
      w.release_read(4);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Protocols, RwLockTest,
                         ::testing::Values(ProtocolKind::kIvyDynamic,
                                           ProtocolKind::kErcUpdate, ProtocolKind::kLrc,
                                           ProtocolKind::kHlrc, ProtocolKind::kEc),
                         protocol_name);

// Sibling app threads of one node take the read side one after another (the
// node's per-lock gate admits one at a time) while another node writes. The
// home must keep counting the node as a reader until its last read hold is
// released: admitting the writer early puts it beside a live reader, and the
// stranded release then aborts at the home.
class RwSiblingTest : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  void SetUp() override {
    std::string reason;
    if (!uffd_available(&reason)) GTEST_SKIP() << "[uffd unavailable] " << reason;
  }
};

TEST_P(RwSiblingTest, SiblingReadersExcludeARemoteWriter) {
  constexpr std::size_t kThreads = 4;
  constexpr int kReads = 100;
  constexpr std::uint64_t kWrites = 40;
  constexpr LockId kLock = 2;  // homed at node 2, away from writer and readers
  Config cfg = rw_config(GetParam(), 3);
  cfg.fault_engine = FaultEngineKind::kUffd;
  cfg.app_threads = kThreads;
  System sys(cfg);
  const auto cells = sys.alloc_page_aligned<std::uint64_t>(2);
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> published{0};

  sys.run([&](Worker& w) {
    w.barrier(0);
    if (w.id() == 0) {
      for (std::uint64_t k = 1; k <= kWrites; ++k) {
        w.acquire_write(kLock);
        if (writers_inside.fetch_add(1) != 0 || readers_inside.load() != 0) violations++;
        *w.get(cells) = k;
        *w.get(cells + 1) = k;
        published = k;
        writers_inside.fetch_sub(1);
        w.release_write(kLock);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else if (w.id() == 1) {
      const auto reads = [&](Worker& self) {
        for (int i = 0; i < kReads; ++i) {
          self.acquire_read(kLock);
          readers_inside.fetch_add(1);
          if (writers_inside.load() != 0) violations++;
          const std::uint64_t floor = published.load();
          const std::uint64_t a = test::force_read(self.get(cells));
          const std::uint64_t b = test::force_read(self.get(cells + 1));
          if (a != b || a < floor) violations++;
          readers_inside.fetch_sub(1);
          self.release_read(kLock);
        }
      };
      std::vector<std::thread> siblings;
      for (std::size_t t = 1; t < kThreads; ++t) siblings.push_back(w.spawn(reads));
      reads(w);
      for (auto& s : siblings) s.join();
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

// Kept out of the env-driven conformance copies; CI's mt job repeats it
// with the other Siblings/ suites.
INSTANTIATE_TEST_SUITE_P(Siblings, RwSiblingTest,
                         ::testing::Values(ProtocolKind::kIvyDynamic,
                                           ProtocolKind::kErcUpdate, ProtocolKind::kLrc,
                                           ProtocolKind::kHlrc),
                         protocol_name);

TEST(RwLockDeathTest, ReleaseReadWithoutAcquireAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg = rw_config(ProtocolKind::kIvyDynamic, 1);
  System sys(cfg);
  EXPECT_DEATH(sys.run([](Worker& w) { w.release_read(0); }), "not read-held");
}

}  // namespace
}  // namespace dsm
