// The release flush shared by erc, hlrc and qrc (TwinSet::flush): every
// flush message of one release leaves at one virtual instant.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/dsm.hpp"

namespace dsm {
namespace {

class ReleaseFlushTest : public ::testing::TestWithParam<ProtocolKind> {};

// One node, so every flush is a loopback send, delivered on the releasing
// thread. A hook on the first moves the node clock, as an ack that the
// service thread handled mid-loop would; the second flush must still leave
// at the first one's instant.
TEST_P(ReleaseFlushTest, FlushesOfOneReleaseLeaveAtOneInstant) {
  Config cfg;
  cfg.n_nodes = 1;
  cfg.n_pages = 4;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = GetParam();
  System sys(cfg);
  const auto a = sys.alloc_page_aligned<std::uint64_t>();
  const auto b = sys.alloc_page_aligned<std::uint64_t>();
  const MsgType flush = GetParam() == ProtocolKind::kQrc ? MsgType::kReplWrite : MsgType::kUpdate;
  std::atomic<Worker*> releasing{nullptr};
  std::vector<VirtualTime> sent;
  sys.network().set_delivery_hook([&](const Message& msg) {
    Worker* w = releasing.load();
    if (msg.type != flush || w == nullptr) return;
    sent.push_back(msg.send_time);
    if (sent.size() == 1) w->compute(1000);
  });
  sys.run([&](Worker& w) {
    w.acquire(0);
    *w.get(a) = 1;
    *w.get(b) = 2;
    releasing = &w;
    w.release(0);
    releasing = nullptr;
  });
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], sent[1]);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReleaseFlushTest,
                         ::testing::Values(ProtocolKind::kErcInvalidate, ProtocolKind::kErcUpdate,
                                           ProtocolKind::kHlrc, ProtocolKind::kQrc),
                         [](const ::testing::TestParamInfo<ProtocolKind>& pi) {
                           std::string s = to_string(pi.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace dsm
