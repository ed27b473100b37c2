// White-box tests of home-based LRC: homes are current after every release,
// faults are a single round trip to the home, notices invalidate lazily, and
// there are no diff caches to accumulate or collect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/dsm.hpp"
#include "proto/hlrc.hpp"

#include "../test_util.hpp"

namespace dsm {
namespace {

Config hlrc_config(std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kHlrc;
  return cfg;
}

TEST(Hlrc, ReleaseWaitsForHomeFlush) {
  System sys(hlrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home: node 0
  std::atomic<std::uint64_t> home_view{0};
  std::atomic<bool> released{false};
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 88;
      w.release(0);  // must block until node 0's (home's) copy is updated
      released = true;
    }
    if (w.id() == 0) {
      while (!released.load()) std::this_thread::yield();
      // The home reads its own copy with NO synchronization at all: the
      // eager flush already updated it.
      home_view = test::force_read(w.get(cell));
    }
  });
  EXPECT_EQ(home_view.load(), 88u);
  EXPECT_GE(sys.stats().counter("net.msgs.Update"), 1u);
}

TEST(Hlrc, FaultIsOneRoundTripToHome) {
  System sys(hlrc_config(4));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home: node 0
  std::atomic<bool> ready{false};
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 5;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);
      sys.reset_stats();
      EXPECT_EQ(test::force_read(w.get(cell)), 5u);
      w.release(0);
    }
  });
  const auto snap = sys.stats();
  // One PageRequest + one PageReply; crucially NO per-writer DiffRequests.
  EXPECT_EQ(snap.counter("net.msgs.PageRequest"), 1u);
  EXPECT_EQ(snap.counter("net.msgs.PageReply"), 1u);
  EXPECT_EQ(snap.counter("net.msgs.DiffRequest"), 0u);
}

TEST(Hlrc, NoticesInvalidateOnlyInvolvedPages) {
  System sys(hlrc_config(3));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();  // page 0
  const auto b = sys.alloc_page_aligned<std::uint64_t>();  // page 1
  std::atomic<int> state_a{-1}, state_b{-1};
  std::atomic<bool> ready{false};
  sys.run([&](Worker& w) {
    test::force_read(w.get(a));
    test::force_read(w.get(b));
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(a) = 1;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);
      state_a = static_cast<int>(sys.table(2).state_of(0));
      state_b = static_cast<int>(sys.table(2).state_of(1));
      w.release(0);
    }
    w.barrier(1);
  });
  EXPECT_EQ(state_a.load(), static_cast<int>(PageState::kInvalid));
  EXPECT_EQ(state_b.load(), static_cast<int>(PageState::kReadOnly));
}

TEST(Hlrc, HomeNeverInvalidatesItsOwnPages) {
  System sys(hlrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home: node 0
  std::atomic<bool> ready{false};
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 3;
      w.release(0);
      ready = true;
    }
    if (w.id() == 0) {
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);  // grant carries the notice for page 0 — homed HERE
      w.release(0);
    }
  });
  // The home's copy stayed valid (content was updated by the flush).
  EXPECT_NE(sys.table(0).state_of(0), PageState::kInvalid);
}

TEST(Hlrc, ConcurrentWriterSurvivesRefetch) {
  // Node 2 is mid-write (unflushed words) when a notice invalidates its
  // copy; the refetch from the home must preserve node 2's local words.
  System sys(hlrc_config(3));
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(8);
  std::atomic<bool> ready{false};
  std::atomic<std::uint64_t> w2_own{0}, w2_remote{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(arr));
    w.barrier(0);
    if (w.id() == 2) {
      w.get(arr)[4] = 44;  // unsynchronized concurrent write, disjoint word
    }
    w.barrier(1);  // (arr's writes by 2 flushed here)
    if (w.id() == 1) {
      w.acquire(0);
      w.get(arr)[0] = 11;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      w.get(arr)[5] = 55;  // open interval: twin exists, words unflushed
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);  // notice for arr's page → invalidate → refetch on touch
      w2_remote = test::force_read(&w.get(arr)[0]);
      w2_own = test::force_read(&w.get(arr)[5]);
      w.release(0);
    }
    w.barrier(2);
  });
  EXPECT_EQ(w2_remote.load(), 11u);  // saw the lock-protected write
  EXPECT_EQ(w2_own.load(), 55u);     // kept its own unflushed word
}

TEST(Hlrc, ReleaseOfInvalidatedDirtyPageFlushesSafely) {
  // Regression: node 2 dirties a page under lock 1, then acquires lock 0
  // whose grant invalidates that same (still dirty) page, then releases
  // lock 1 WITHOUT touching the page again. The flush must encode the diff
  // of a PROT_NONE page without the encoding itself faulting (which would
  // self-deadlock on the entry lock).
  System sys(hlrc_config(3));
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(8);
  std::atomic<bool> ready{false};
  std::atomic<std::uint64_t> final_value{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(arr));
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      w.get(arr)[0] = 10;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      w.acquire(1);
      w.get(arr)[4] = 40;  // page dirty under lock 1
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);  // notice for arr's page → invalidated while dirty
      w.release(0);
      w.release(1);  // flush of the invalid dirty page happens here
    }
    w.barrier(1);
    if (w.id() == 0) {
      w.acquire(1);
      final_value = test::force_read(&w.get(arr)[4]);
      w.release(1);
    }
    w.barrier(1);
  });
  EXPECT_EQ(final_value.load(), 40u);
}

TEST(Hlrc, SequentialPrefetchCutsDemandMisses) {
  Config cfg = hlrc_config(2);
  cfg.prefetch_pages = 2;
  System sys(cfg);
  const std::size_t per_page = cfg.page_size / sizeof(std::uint64_t);
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(12 * per_page);
  std::atomic<std::uint64_t> sum{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      for (std::size_t p = 0; p < 12; ++p) w.get(arr)[p * per_page] = p + 1;
    }
    w.barrier(0);
    if (w.id() == 1) {
      std::uint64_t s = 0;
      for (std::size_t p = 0; p < 12; ++p) {
        s += test::force_read(&w.get(arr)[p * per_page]);
        // Real-time pause between pages: prefetch hides latency behind
        // per-page work, and without any the async responses race the next
        // demand fault and the miss count is nondeterministic.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      sum = s;
    }
    w.barrier(0);
  });
  EXPECT_EQ(sum.load(), 78u);
  EXPECT_GE(sys.stats().counter("proto.prefetches"), 3u);
  EXPECT_LT(sys.stats().counter("proto.read_faults"), 6u);
}

TEST(Hlrc, BarrierClearsIntervalLogs) {
  System sys(hlrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 1;
      w.release(0);
    }
    w.barrier(0);
  });
  const auto& p1 = dynamic_cast<HlrcProtocol&>(sys.protocol(1));
  EXPECT_EQ(p1.vclock()[1], 1u);  // the interval happened...
  // ...and a second run of sync traffic shows no replayed metadata: grant
  // payloads after the barrier carry zero records (checked via bytes: a
  // fresh acquire's grant is small). Behavioural check:
  sys.reset_stats();
  std::atomic<std::uint64_t> seen{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      w.acquire(0);
      seen = test::force_read(w.get(cell));
      w.release(0);
    }
  });
  EXPECT_EQ(seen.load(), 1u);
  EXPECT_EQ(sys.stats().counter("hlrc.notice_invalidations"), 0u);
}

// Wire pin: HLRC's lock grant and barrier payloads keep the layout
// u32 n | n × u32 clock | u32 nrec |
//     nrec × { u32 node | u32 interval | u32 npages | npages × u32 page }.
TEST(Hlrc, NoticePayloadsKeepTheirWireLayout) {
  System sys(hlrc_config(2));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();  // page 0
  const auto b = sys.alloc_page_aligned<std::uint64_t>();  // page 1
  sys.run([&](Worker& w) {
    if (w.id() != 1) return;
    w.acquire(0);
    *w.get(a) = 1;
    *w.get(b) = 2;
    w.release(0);  // node 1's interval 1 over pages {0, 1}
  });
  auto& p0 = dynamic_cast<HlrcProtocol&>(sys.protocol(0));
  auto& p1 = dynamic_cast<HlrcProtocol&>(sys.protocol(1));
  const auto words = [](std::initializer_list<std::uint32_t> list) {
    WireWriter w;
    for (const std::uint32_t word : list) w.put(word);
    return std::move(w).take();
  };
  const auto payload = [](auto&& fill) {
    WireWriter w;
    fill(w);
    return std::move(w).take();
  };
  const auto with_record = words({2, 0, 1, 1, /*node*/ 1, /*interval*/ 1, /*npages*/ 2, 0, 1});

  EXPECT_EQ(payload([&](WireWriter& w) { p1.fill_lock_grant(0, 0, {}, w); }), with_record);
  const auto covered = words({2, 0, 1});  // a request whose clock saw interval 1
  EXPECT_EQ(payload([&](WireWriter& w) { p1.fill_lock_grant(0, 0, covered, w); }),
            words({2, 0, 1, 0}));

  const auto arrive1 = payload([&](WireWriter& w) { p1.fill_barrier_arrive(0, w); });
  const auto arrive0 = payload([&](WireWriter& w) { p0.fill_barrier_arrive(0, w); });
  EXPECT_EQ(arrive1, with_record);
  EXPECT_EQ(arrive0, words({2, 0, 0, 0}));
  WireReader in0(arrive0);
  p0.on_barrier_collect(0, 0, in0);
  WireReader in1(arrive1);
  p0.on_barrier_collect(0, 1, in1);
  EXPECT_EQ(payload([&](WireWriter& w) { p0.fill_barrier_release(0, w); }), with_record);
}

}  // namespace
}  // namespace dsm
