// White-box tests of lazy release consistency: laziness (no data at
// release), write-notice invalidation at acquire, on-demand diff fetching,
// vector-clock progression, and barrier garbage collection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dsm.hpp"
#include "proto/lrc.hpp"

#include "../test_util.hpp"

namespace dsm {
namespace {

Config lrc_config(std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kLrc;
  return cfg;
}

TEST(Lrc, ReleaseMovesNoPageData) {
  System sys(lrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));
    w.barrier(0);
  });
  sys.reset_stats();
  // A lock-protected write + release, with NO subsequent reader: lazily,
  // nothing but the lock messages may cross the wire.
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 1;
      w.release(0);
    }
  });
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("net.msgs.Update"), 0u);
  EXPECT_EQ(snap.counter("net.msgs.DiffRequest"), 0u);
  EXPECT_EQ(snap.counter("net.msgs.PageReply"), 0u);
}

TEST(Lrc, AcquirerInvalidatesNoticedPagesOnly) {
  System sys(lrc_config(3));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();  // page 0
  const auto b = sys.alloc_page_aligned<std::uint64_t>();  // page 1
  std::atomic<bool> ready{false};
  std::atomic<int> state_a{-1}, state_b{-1};
  sys.run([&](Worker& w) {
    test::force_read(w.get(a));
    test::force_read(w.get(b));
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(a) = 1;  // dirty page 0 only
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);  // grant carries a notice for page 0, not page 1
      state_a = static_cast<int>(sys.table(2).state_of(0));
      state_b = static_cast<int>(sys.table(2).state_of(1));
      w.release(0);
    }
    w.barrier(1);
  });
  EXPECT_EQ(state_a.load(), static_cast<int>(PageState::kInvalid));
  EXPECT_EQ(state_b.load(), static_cast<int>(PageState::kReadOnly));
}

TEST(Lrc, LockChainCarriesNoticesAndFetchesDiffs) {
  System sys(lrc_config(3));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> seen{0};
  std::atomic<bool> ready{false};
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));  // everyone holds a base copy
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 77;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      while (!ready.load()) std::this_thread::yield();  // host-side sequencing
      w.acquire(0);
      seen = test::force_read(w.get(cell));  // fault → diff fetch from node 1
      w.release(0);
    }
    w.barrier(1);
  });
  EXPECT_EQ(seen.load(), 77u);
  const auto snap = sys.stats();
  EXPECT_GE(snap.counter("lrc.notice_invalidations"), 1u);
  EXPECT_GE(snap.counter("net.msgs.DiffRequest"), 1u);
  EXPECT_GE(snap.counter("net.msgs.DiffReply"), 1u);
}

TEST(Lrc, UninvolvedNodeKeepsStaleCopyLegally) {
  System sys(lrc_config(3));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> stale_read{1234};
  std::atomic<bool> ready{false};
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));
    w.barrier(0);
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 9;
      w.release(0);
      ready = true;
    }
    if (w.id() == 2) {
      while (!ready.load()) std::this_thread::yield();
      // No acquire: node 2 never synchronized with the writer, so LRC lets
      // it read the OLD value from its still-valid copy — laziness at work.
      stale_read = test::force_read(w.get(cell));
    }
    w.barrier(1);
  });
  EXPECT_EQ(stale_read.load(), 0u);
  // Node 2's copy was never invalidated before the barrier.
}

TEST(Lrc, VectorClockAdvancesPerInterval) {
  System sys(lrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      for (int i = 0; i < 3; ++i) {
        w.acquire(0);
        *w.get(cell) += 1;
        w.release(0);  // closes one interval per release (page dirtied each time)
      }
    }
  });
  const auto& lrc1 = dynamic_cast<LrcProtocol&>(sys.protocol(1));
  EXPECT_EQ(lrc1.vclock()[1], 3u);
  EXPECT_EQ(lrc1.vclock()[0], 0u);
}

TEST(Lrc, EmptyIntervalIsFree) {
  System sys(lrc_config(2));
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);  // no writes
      w.release(0);
    }
  });
  const auto& lrc1 = dynamic_cast<LrcProtocol&>(sys.protocol(1));
  EXPECT_EQ(lrc1.vclock()[1], 0u);  // no dirty pages → no interval
}

TEST(Lrc, BarrierGarbageCollectsDiffs) {
  auto cfg = lrc_config(2);
  cfg.lrc_gc_period = 1;  // settle (and GC) on every barrier
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      w.acquire(0);
      *w.get(cell) = 1;
      w.release(0);
    }
    w.barrier(0);
  });
  const auto& lrc1 = dynamic_cast<LrcProtocol&>(sys.protocol(1));
  EXPECT_EQ(lrc1.cached_diffs(), 0u);
  // And the barrier synchronized the clocks.
  const auto& lrc0 = dynamic_cast<LrcProtocol&>(sys.protocol(0));
  EXPECT_EQ(lrc0.vclock(), lrc1.vclock());
}

TEST(Lrc, BarrierPublishesAllWrites) {
  System sys(lrc_config(4));
  const auto arr = sys.alloc_page_aligned<std::uint64_t>(8);
  std::atomic<int> errors{0};
  sys.run([&](Worker& w) {
    w.get(arr)[w.id()] = w.id() + 1;  // concurrent writers, same page
    w.barrier(0);
    for (std::uint64_t n = 0; n < 4; ++n) {
      if (w.get(arr)[n] != n + 1) errors++;
    }
    w.barrier(0);
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST(Lrc, TransitiveCausalityThroughLockChain) {
  // w0 writes A under L0; w1 acquires L0 (learns A), writes B under L1;
  // w2 acquires L1 and must see BOTH writes (vector clocks make the first
  // one's notices travel with the second grant).
  System sys(lrc_config(3));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();
  const auto b = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> got_a{0}, got_b{0};
  std::atomic<int> stage{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(a));
    test::force_read(w.get(b));
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(0);
      *w.get(a) = 11;
      w.release(0);
      stage = 1;
    }
    if (w.id() == 1) {
      while (stage.load() < 1) std::this_thread::yield();
      w.acquire(0);  // happens-after node 0's release
      w.release(0);
      w.acquire(1);
      *w.get(b) = 22;
      w.release(1);
      stage = 2;
    }
    if (w.id() == 2) {
      while (stage.load() < 2) std::this_thread::yield();
      w.acquire(1);  // transitively after node 0's interval
      got_a = test::force_read(w.get(a));
      got_b = test::force_read(w.get(b));
      w.release(1);
    }
    w.barrier(1);
  });
  EXPECT_EQ(got_a.load(), 11u);
  EXPECT_EQ(got_b.load(), 22u);
}

TEST(Lrc, BarrierIsSettledBeforeAnyoneResumes) {
  // Regression: without the two-phase barrier, a node that resumed early
  // could cold-fault to a home that had not yet applied the barrier's diffs
  // (after the write notices were GC'd) and install a permanently stale
  // base copy. 16 nodes make the race window wide.
  Config cfg;
  cfg.n_nodes = 16;
  cfg.n_pages = 64;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kLrc;
  cfg.lrc_gc_period = 1;  // settle every barrier: the race needs a GC round
  System sys(cfg);
  const std::size_t words = 24 * cfg.page_size / sizeof(std::uint64_t);
  const auto data = sys.alloc_page_aligned<std::uint64_t>(words);
  std::atomic<std::uint64_t> errors{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      for (std::size_t i = 0; i < words; ++i) w.get(data)[i] = i ^ 0xABCDu;
    }
    w.barrier(0);
    // Everyone immediately reads pages homed all over the system.
    for (std::size_t i = 0; i < words; i += 64) {
      if (w.get(data)[i] != (i ^ 0xABCDu)) errors++;
    }
    w.barrier(0);
  });
  EXPECT_EQ(errors.load(), 0u);
  // The two-phase machinery actually engaged: 2 barriers × 2 phases × 16.
  EXPECT_GE(sys.stats().counter("net.msgs.BarrierRelease"), 4u * 16u);
  EXPECT_GE(sys.stats().counter("lrc.settle_barriers"), 2u * 16u);
}

TEST(Lrc, LazyBarrierMovesNoticesNotData) {
  // Between settle-ups, a barrier ships only write notices; the data moves
  // on demand. Readers that never touch the written page cost nothing.
  Config cfg;
  cfg.n_nodes = 4;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kLrc;
  cfg.lrc_gc_period = 100;  // no settle round in this test
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<std::uint64_t> seen{0};
  sys.run([&](Worker& w) {
    test::force_read(w.get(cell));  // everyone holds a base copy
    w.barrier(0);
    if (w.id() == 1) *w.get(cell) = 7;
    sys.reset_stats();
    w.barrier(0);
    // Only node 2 reads: exactly one diff fetch, not a broadcast.
    if (w.id() == 2) seen = test::force_read(w.get(cell));
    w.barrier(1);
  });
  EXPECT_EQ(seen.load(), 7u);
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("lrc.settle_barriers"), 0u);
  EXPECT_GE(snap.counter("lrc.lazy_barriers"), 4u);
  EXPECT_EQ(snap.counter("net.msgs.DiffRequest"), 1u);
  EXPECT_EQ(snap.counter("net.msgs.DiffReply"), 1u);
}

TEST(Lrc, SettleBarrierGarbageCollects) {
  Config cfg;
  cfg.n_nodes = 2;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kLrc;
  cfg.lrc_gc_period = 3;  // barriers 1,2 lazy; barrier 3 settles
  System sys(cfg);
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    for (int round = 0; round < 3; ++round) {
      if (w.id() == 1) {
        w.acquire(0);
        *w.get(cell) += 1;
        w.release(0);
      }
      w.barrier(0);
    }
  });
  const auto& lrc1 = dynamic_cast<LrcProtocol&>(sys.protocol(1));
  EXPECT_EQ(lrc1.cached_diffs(), 0u);  // GC ran on the third barrier
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("lrc.settle_barriers"), 2u);  // 1 round × 2 nodes
  // Node 1's three intervals on the page travel to its home in one push.
  EXPECT_EQ(snap.counter("net.msgs.Update"), 1u);
}

// Node 1 rewrites every word of 8 pages homed at node 0 in each of 16
// intervals, so the settle-up pushes 16 full-page diffs per page: ~66 KB per
// page, more than one UDP datagram holds. Every kUpdate must stay within the
// packing budget unless it carries a single record.
void expect_settle_push_within_budget(TransportKind transport) {
  Config cfg = lrc_config(2);
  cfg.lrc_gc_period = 16;
  cfg.transport.kind = transport;
  System sys(cfg);
  constexpr std::size_t kPages = 8;
  constexpr std::uint64_t kIntervals = 16;
  const std::size_t words = cfg.page_size / sizeof(std::uint64_t);
  // Pages 0..15; with 2 nodes the even ones are homed at node 0.
  const auto heap = sys.alloc_page_aligned<std::uint64_t>(2 * kPages * words);
  std::atomic<int> updates{0};
  std::atomic<int> over_budget{0};
  sys.network().set_delivery_hook([&](const Message& msg) {
    if (msg.type != MsgType::kUpdate) return;
    ++updates;
    WireReader r(msg.payload);
    if (msg.payload.size() > kMaxBatchBytes && r.get<std::uint32_t>() != 1) ++over_budget;
  });
  std::atomic<int> stale_words{0};
  sys.run([&](Worker& w) {
    for (std::uint64_t interval = 0; interval < kIntervals; ++interval) {
      if (w.id() == 1) {
        for (std::size_t p = 0; p < kPages; ++p) {
          std::uint64_t* page = w.get(heap) + 2 * p * words;
          for (std::size_t i = 0; i < words; ++i) page[i] = interval * words + i + 1;
        }
      }
      w.barrier(0);  // the 16th settles
    }
    if (w.id() == 0) {
      for (std::size_t p = 0; p < kPages; ++p) {
        const std::uint64_t* page = w.get(heap) + 2 * p * words;
        for (std::size_t i = 0; i < words; ++i) {
          if (page[i] != (kIntervals - 1) * words + i + 1) ++stale_words;
        }
      }
    }
  });
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("lrc.settle_barriers"), 2u);
  EXPECT_GT(updates.load(), 0);
  EXPECT_LT(updates.load(), static_cast<int>(kPages * kIntervals));  // records share messages
  EXPECT_EQ(over_budget.load(), 0);
  EXPECT_EQ(snap.counter("net.gave_up"), 0u);
  EXPECT_EQ(stale_words.load(), 0);
}

TEST(Lrc, SettlePushStaysWithinBudget) {
  expect_settle_push_within_budget(TransportKind::kInproc);
}

TEST(Lrc, SettlePushStaysWithinBudgetOverUdp) {
  expect_settle_push_within_budget(TransportKind::kUdp);
}

TEST(Lrc, ReleaseOfInvalidatedDirtyPageEncodesSafely) {
  // Regression (mirrors the HLRC test): closing an interval must be able to
  // diff a page that was invalidated (PROT_NONE) while dirty without the
  // encode faulting on the app thread (self-deadlock on the entry lock).
  System sys(lrc_config(3));
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
      w.get(arr)[4] = 40;
      while (!ready.load()) std::this_thread::yield();
      w.acquire(0);
      w.release(0);
      w.release(1);  // interval close of the invalid dirty page
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

TEST(Lrc, ColdFaultAfterBarrierServedByHome) {
  System sys(lrc_config(2));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // home: node 0
  std::atomic<std::uint64_t> seen{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) *w.get(cell) = 5;  // home writes (local upgrade)
    w.barrier(0);
    if (w.id() == 1) seen = test::force_read(w.get(cell));  // cold miss → home
    w.barrier(0);
  });
  EXPECT_EQ(seen.load(), 5u);
  EXPECT_GE(sys.stats().counter("net.msgs.PageRequest"), 1u);
}

// A notice that a sibling thread's lock grant delivers while a fault's diff
// fetch is in flight keeps the copy invalid, and the fault fetches again.
// Node 1's primary read-faults page 0 over writer A's (node 2) notice while
// A's diff reply is dropped; meanwhile its sibling acquires lock 3, whose
// grant from node 3 carries writer B's (node 3) notice for the same page.
// Neither B nor lock 3's home is A, so the held link delays nothing else.
TEST(Lrc, NoticeDuringFetchKeepsCopyInvalid) {
  std::string reason;
  if (!uffd_available(&reason)) GTEST_SKIP() << "[uffd unavailable] " << reason;
  Config cfg = lrc_config(4);
  cfg.fault_engine = FaultEngineKind::kUffd;
  cfg.app_threads = 2;
  std::atomic<bool> hold{false}, held{false}, primary_read{false};  // outlive the hook
  std::atomic<int> writers_done{0};
  System sys(cfg);
  const auto a_word = sys.alloc_page_aligned<std::uint64_t>(2);  // page 0
  const auto b_word = a_word + 1;
  // Until released, every attempt of A's diff reply to node 1 is lost; the
  // reliable sublayer re-sends it afterwards.
  sys.network().set_drop_hook([&](const Message& msg) {
    if (msg.type != MsgType::kDiffReply || msg.src != 2 || msg.dst != 1 || !hold) return false;
    held = true;
    return true;
  });
  std::uint64_t a_seen = 0, b_seen = 0;
  sys.run([&](Worker& w) {
    if (w.id() == 2 || w.id() == 3) {
      const LockId lock = w.id() == 2 ? 0 : 3;
      w.acquire(lock);
      *w.get(w.id() == 2 ? a_word : b_word) = w.id() == 2 ? 111 : 222;
      w.release(lock);
      writers_done++;
    }
    if (w.id() == 1) {
      while (writers_done.load() < 2) std::this_thread::yield();
      w.acquire(0);  // the grant carries A's notice
      hold = true;
      std::thread sibling = w.spawn([&](Worker& s) {
        while (!held) std::this_thread::yield();
        s.acquire(3);  // the grant carries B's notice, mid-fetch
        hold = false;
        while (!primary_read) std::this_thread::yield();
        b_seen = test::force_read(s.get(b_word));
        s.release(3);
      });
      a_seen = test::force_read(w.get(a_word));
      primary_read = true;
      sibling.join();
      w.release(0);
    }
    w.barrier(0);
  });
  EXPECT_EQ(a_seen, 111u);
  EXPECT_EQ(b_seen, 222u) << "the copy was validated without B's diff";
}

}  // namespace
}  // namespace dsm
