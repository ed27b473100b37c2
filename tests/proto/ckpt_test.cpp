// ERC buddy-checkpoint tests: the cheap crash-recovery path for the
// release-consistent family. Every Nth home version of a page is snapshotted
// to the home's buddy; a killed-and-restarted home replays the buddy's
// snapshots while parking (or surviving re-sends of) client flushes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "core/dsm.hpp"
#include "proto/erc.hpp"

#include "../gtest_util.hpp"
#include "../test_util.hpp"

namespace dsm {
namespace {

Config ckpt_config(std::size_t nodes, std::size_t period) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 8;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kErcInvalidate;
  cfg.ft.enabled = true;
  cfg.ft.checkpoint_period = period;
  cfg.check_level = CheckLevel::kAssert;
  return cfg;
}

TEST(CkptTest, BuddyIsTheNextNodeInTheRing) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  System sys(ckpt_config(2, 1));
  EXPECT_EQ(dynamic_cast<const ErcProtocol&>(sys.protocol(0)).buddy(), 1u);
  EXPECT_EQ(dynamic_cast<const ErcProtocol&>(sys.protocol(1)).buddy(), 0u);
}

TEST(CkptTest, HomeSnapshotsEveryPeriodVersions) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  System sys(ckpt_config(2, 2));
  (void)sys.alloc_page_aligned<std::uint64_t>();               // page 0
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();   // page 1, home 1
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      // Four flushes to the home bump its version to 4; with period 2 the
      // home snapshots versions 2 and 4 to its buddy.
      for (int i = 0; i < 4; ++i) {
        w.acquire(0);
        *w.get(cell) += 1;
        w.release(0);
      }
    }
    w.barrier(0);
  });
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("ft.ckpt_stores"), 2u);
  EXPECT_GE(snap.counter("ft.ckpt_bytes"), 2u * ViewRegion::os_page_size());
}

// The recovery scenario: the home of a written page dies and restarts. The
// restarted home refetches its checkpoints from the buddy before serving,
// and a client flush that lands anywhere in the crash window — acked before
// death, dead-dropped during it, or parked behind the restore — must still
// complete (release() would otherwise never return).
TEST(CkptTest, RestartedHomeRestoresFromBuddyAndServes) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = ckpt_config(2, 1);
  cfg.ft.faults = {{/*node=*/1, /*kill_at=*/1'000'000'000, /*restart=*/true}};
  System sys(cfg);
  (void)sys.alloc_page_aligned<std::uint64_t>();               // page 0
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();   // page 1, home = victim
  std::atomic<std::uint64_t> observed{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      w.acquire(0);
      *w.get(cell) = 41;
      w.release(0);  // version 1 checkpointed to the buddy (node 0) pre-crash
    }
    w.barrier(0);
    if (w.id() == 1) w.compute(1'000'000'000);  // home dies, restarts, restores
    if (w.id() == 0) {
      w.acquire(0);
      *w.get(cell) = 42;  // flush must survive the crash window
      w.release(0);
      observed = test::force_read(w.get(cell));
    }
  });
  EXPECT_EQ(observed.load(), 42u);
  const auto snap = sys.stats();
  EXPECT_EQ(snap.counter("ft.kills"), 1u);
  EXPECT_EQ(snap.counter("ft.restarts"), 1u);
  EXPECT_GE(snap.counter("ft.ckpt_stores"), 1u);
  EXPECT_GE(snap.counter("ft.ckpt_restored_pages"), 1u);
}

// White-box: the three ways a restart window reaches a client, replayed
// deterministically by calling the client's handlers directly.

// A fetch sent while the home was dead (or in flight at its death) is gone
// with that incarnation; on kPeerUp the client must ask again for every
// page homed at the peer that is still mid-fetch, or the fault waits forever.
TEST(CkptTest, PeerUpResendsAFetchStillInFlight) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  System sys(ckpt_config(2, 1));
  (void)sys.alloc_page_aligned<std::uint64_t>();              // page 0
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // page 1, home = node 1
  bool completed = false;
  std::uint64_t seen = 1;
  sys.run([&](Worker& w) {
    if (w.id() != 0) return;
    auto& e = sys.table(0).entry(1);
    {
      const MutexLock lock(e.mutex);
      e.busy = true;  // a fault whose request died with the old home
    }
    sys.protocol(0).on_peer_up(1);
    {
      const MutexLock lock(e.mutex);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (e.busy && std::chrono::steady_clock::now() < deadline) {
        e.cv.wait_for(e.mutex, std::chrono::milliseconds(10));
      }
      completed = !e.busy;
      e.busy = false;
    }
    if (completed) seen = test::force_read(w.get(cell));
  });
  EXPECT_TRUE(completed) << "the fetch was not re-sent on kPeerUp";
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(sys.stats().counter("ft.fetch_resends"), 1u);
}

// A flush that reached the restarted home and was also re-sent to it is
// acked twice. The second final ack must not count toward a later release.
TEST(CkptTest, DuplicateFinalAckIsIgnored) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  System sys(ckpt_config(2, 1));
  (void)sys.alloc_page_aligned<std::uint64_t>();              // page 0
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();  // page 1, home = node 1
  std::uint64_t observed = 0;
  sys.run([&](Worker& w) {
    if (w.id() != 0) return;
    w.acquire(0);
    *w.get(cell) = 41;
    w.release(0);  // the home's final ack retires the flush
    WireWriter ack(8);
    ack.put(PageId{1});
    ack.put(std::uint8_t{1});  // kUpdateAck kind 1: home → writer, final
    Message dup;
    dup.type = MsgType::kUpdateAck;
    dup.src = 1;
    dup.dst = 0;
    dup.payload = std::move(ack).take();
    sys.protocol(0).on_message(dup);
    w.acquire(0);
    *w.get(cell) += 1;
    w.release(0);
    observed = test::force_read(w.get(cell));
  });
  EXPECT_EQ(observed, 42u);
}

// The re-sent fetch can be answered twice; a reply with no fetch in flight
// must not install a copy over whatever the page holds now.
TEST(CkptTest, PageReplyWithoutAFetchInFlightIsDropped) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  System sys(ckpt_config(2, 1));
  (void)sys.alloc_page_aligned<std::uint64_t>();              // page 0
  (void)sys.alloc_page_aligned<std::uint64_t>();              // page 1, home = node 1
  PageState after = PageState::kReadWrite;
  sys.run([&](Worker& w) {
    if (w.id() != 0) return;
    WireWriter reply(sys.config().page_size + 8);
    reply.put(PageId{1});
    reply.put_raw(std::vector<std::byte>(sys.config().page_size, std::byte{0xff}));
    Message stray;
    stray.type = MsgType::kPageReply;
    stray.src = 1;
    stray.dst = 0;
    stray.payload = std::move(reply).take();
    sys.protocol(0).on_message(stray);
    after = sys.table(0).state_of(1);
  });
  EXPECT_EQ(after, PageState::kInvalid);
}

}  // namespace
}  // namespace dsm
