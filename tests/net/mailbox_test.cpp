#include <gtest/gtest.h>

#include <thread>

#include "net/network.hpp"

namespace dsm {
namespace {

Message make_msg(MsgType type, NodeId src = 0, NodeId dst = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  return m;
}

TEST(Mailbox, FifoOrder) {
  Mailbox mb;
  mb.push(make_msg(MsgType::kReadRequest));
  mb.push(make_msg(MsgType::kWriteRequest));
  EXPECT_EQ(mb.pop()->type, MsgType::kReadRequest);
  EXPECT_EQ(mb.pop()->type, MsgType::kWriteRequest);
}

TEST(Mailbox, SizeTracksContents) {
  Mailbox mb;
  EXPECT_EQ(mb.size(), 0u);
  mb.push(make_msg(MsgType::kUpdate));
  mb.push(make_msg(MsgType::kUpdate));
  EXPECT_EQ(mb.size(), 2u);
  mb.pop();
  EXPECT_EQ(mb.size(), 1u);
}

TEST(Mailbox, PopBlocksUntilPush) {
  Mailbox mb;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.push(make_msg(MsgType::kLockGrant));
  });
  const auto msg = mb.pop();  // must block, then receive
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::kLockGrant);
  producer.join();
}

TEST(Mailbox, CloseReleasesBlockedPopper) {
  Mailbox mb;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.close();
  });
  EXPECT_FALSE(mb.pop().has_value());
  closer.join();
}

TEST(Mailbox, DrainsQueueBeforeReportingClosed) {
  Mailbox mb;
  mb.push(make_msg(MsgType::kConfirm));
  mb.close();
  EXPECT_TRUE(mb.pop().has_value());
  EXPECT_FALSE(mb.pop().has_value());
}

TEST(Mailbox, DrainTakesEverythingInOrder) {
  Mailbox mb;
  mb.push(make_msg(MsgType::kReadRequest));
  mb.push(make_msg(MsgType::kWriteRequest));
  mb.push(make_msg(MsgType::kUpdate));
  const auto burst = mb.drain();
  ASSERT_EQ(burst.size(), 3u);
  EXPECT_EQ(burst[0].type, MsgType::kReadRequest);
  EXPECT_EQ(burst[1].type, MsgType::kWriteRequest);
  EXPECT_EQ(burst[2].type, MsgType::kUpdate);
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, DrainBlocksUntilPush) {
  Mailbox mb;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.push(make_msg(MsgType::kLockGrant));
  });
  const auto burst = mb.drain();  // must block, then receive
  ASSERT_EQ(burst.size(), 1u);
  EXPECT_EQ(burst.front().type, MsgType::kLockGrant);
  producer.join();
}

TEST(Mailbox, DrainReturnsEmptyOnClose) {
  Mailbox mb;
  mb.push(make_msg(MsgType::kConfirm));
  mb.close();
  EXPECT_EQ(mb.drain().size(), 1u);  // pending messages drain first
  EXPECT_TRUE(mb.drain().empty());
}

TEST(Mailbox, ManyProducersOneConsumer) {
  Mailbox mb;
  constexpr int kProducers = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) mb.push(make_msg(MsgType::kUpdate));
    });
  }
  int received = 0;
  for (int i = 0; i < kProducers * kEach; ++i) {
    if (mb.pop().has_value()) ++received;
  }
  EXPECT_EQ(received, kProducers * kEach);
  for (auto& p : producers) p.join();
}

}  // namespace
}  // namespace dsm
