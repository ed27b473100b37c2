// Watchdog slot bookkeeping. A uffd executor may open a fault handler's
// guard on the slot of a thread that another wake already resumed, so one
// slot's guards can come from two threads and close in any order.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "core/watchdog.hpp"

namespace dsm {
namespace {

// The older guard closes first: the report must name the guard still open,
// not the one that already closed.
TEST(WatchdogSlotDeathTest, ReportsTheNewestOpenGuardAfterAnOlderOneCloses) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Watchdog wd(1, 1, /*bound_ms=*/100, nullptr);
        std::optional<Watchdog::Guard> release;
        release.emplace(&wd, 0, "lock-release", 0);
        const Watchdog::Guard fault(&wd, 0, "write-fault", 7);
        release.reset();
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      "stuck in write-fault \\(detail=7\\)");
}

}  // namespace
}  // namespace dsm
