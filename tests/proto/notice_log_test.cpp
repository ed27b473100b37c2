// NoticeLog unit tests: the write-notice log of lrc and hlrc, one log per
// simulated node, with the lock and barrier payloads handed across by hand
// — no System, no threads.
#include "proto/notice_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace dsm {
namespace {

using Notice = std::tuple<NodeId, std::uint32_t, PageId>;  // writer, interval, page

NodeContext context(NodeId id, std::size_t n_nodes) {
  NodeContext ctx;
  ctx.id = id;
  ctx.n_nodes = n_nodes;
  return ctx;
}

/// One node's log and the notices its callback was handed.
struct Node {
  Node(NodeId id, std::size_t n_nodes)
      : ctx(context(id, n_nodes)),
        log(ctx, [this](NodeId writer, std::uint32_t interval, PageId page) {
          seen.emplace_back(writer, interval, page);
        }) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void close(std::vector<PageId> pages) {
    const MutexLock lock(log.mutex);
    log.close(std::move(pages));
  }
  std::uint64_t stamp() const {
    const MutexLock lock(log.mutex);
    return log.stamp();
  }

  NodeContext ctx;
  std::vector<Notice> seen;
  NoticeLog log;
};

/// `from` grants a lock to `to`, which learns the grant.
void grant(Node& from, Node& to) {
  WireWriter request;
  to.log.fill_request(request);
  WireWriter payload;
  from.log.fill_grant(request.view(), payload);
  WireReader in(payload.view());
  to.log.on_grant(in);
  EXPECT_TRUE(in.done());
}

/// One barrier round managed by `nodes[0]`: every node arrives, then learns
/// the release.
void barrier(const std::vector<Node*>& nodes) {
  Node& manager = *nodes[0];
  for (Node* node : nodes) {
    WireWriter arrive;
    node->log.fill_arrive(arrive);
    WireReader in(arrive.view());
    manager.log.collect(in);
  }
  WireWriter release;
  manager.log.fill_release(release);
  for (Node* node : nodes) {
    WireReader in(release.view());
    const MutexLock lock(node->log.mutex);
    node->log.learn(in);
  }
}

TEST(NoticeLog, GrantCarriesExactlyTheRecordsTheRequesterLacks) {
  Node a(0, 3), b(1, 3), c(2, 3);
  a.close({4});
  b.close({5, 6});
  grant(b, a);  // a learns b's interval 1
  EXPECT_EQ(a.seen, (std::vector<Notice>{{1, 1, 5}, {1, 1, 6}}));
  a.close({7});
  grant(a, c);  // c has seen nothing: all three intervals
  EXPECT_EQ(c.seen, (std::vector<Notice>{{0, 1, 4}, {0, 2, 7}, {1, 1, 5}, {1, 1, 6}}));
  c.seen.clear();
  b.seen.clear();
  grant(a, b);  // b has its own interval already: only a's two
  EXPECT_EQ(b.seen, (std::vector<Notice>{{0, 1, 4}, {0, 2, 7}}));
  grant(c, b);  // and nothing twice
  EXPECT_EQ(b.seen.size(), 2u);
  EXPECT_EQ(b.log.vclock(), a.log.vclock());
  EXPECT_EQ(c.log.vclock(), a.log.vclock());
}

TEST(NoticeLog, BarrierReleaseCarriesEveryArrivalsRecords) {
  Node a(0, 3), b(1, 3), c(2, 3);
  a.close({1});
  b.close({2});
  b.close({3});
  c.close({4});
  barrier({&a, &b, &c});
  EXPECT_EQ(a.seen, (std::vector<Notice>{{1, 1, 2}, {1, 2, 3}, {2, 1, 4}}));
  EXPECT_EQ(b.seen, (std::vector<Notice>{{0, 1, 1}, {2, 1, 4}}));
  EXPECT_EQ(c.seen, (std::vector<Notice>{{0, 1, 1}, {1, 1, 2}, {1, 2, 3}}));
  for (const Node* node : {&a, &b, &c}) {
    EXPECT_EQ(node->log.vclock().components(), (std::vector<std::uint32_t>{1, 2, 1}));
  }
  // The next round re-sends the arrivals' logs (nothing was collected);
  // each node learns only what is new.
  c.seen.clear();
  a.close({5});
  barrier({&a, &b, &c});
  EXPECT_EQ(c.seen, (std::vector<Notice>{{0, 2, 5}}));
}

TEST(NoticeLog, StampGrowsAlongALockChainAndAcrossABarrier) {
  Node a(0, 3), b(1, 3), c(2, 3);
  a.close({1});
  const auto first = a.stamp();
  grant(a, b);
  b.close({1});
  const auto second = b.stamp();
  EXPECT_GT(second, first);
  grant(b, c);
  c.close({1});
  const auto third = c.stamp();
  EXPECT_GT(third, second);

  // A concurrent interval may stamp lower than one it is not ordered
  // after; a barrier orders everything before it.
  a.close({2});
  const auto concurrent = a.stamp();
  barrier({&a, &b, &c});
  for (Node* node : {&a, &b, &c}) {
    node->close({3});
    EXPECT_GT(node->stamp(), std::max(third, concurrent));
  }
}

}  // namespace
}  // namespace dsm
