// Transport seam tests: the wire datagram codec's round-trip and rejection
// properties, and the UDP backend driven as a real fabric — delivery, FIFO,
// wire acks, and the counters that account for garbage arriving on a socket.
#include "net/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/stats.hpp"
#include "net/network.hpp"

namespace dsm {
namespace {

Message make_msg(MsgType type, NodeId src, NodeId dst, std::size_t payload_bytes = 0,
                 VirtualTime send_time = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.send_time = send_time;
  m.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    m.payload[i] = static_cast<std::byte>(i * 37 + 11);
  }
  return m;
}

// --- local replica of the header codec, so tests can patch one field and
// re-validate the checksum (proving the *field* check rejects, not just the
// checksum). CodecReplicaIsFaithful guards against drift.

void put_u16_at(std::vector<std::byte>& wire, std::size_t at, std::uint16_t v) {
  wire[at] = static_cast<std::byte>(v & 0xFF);
  wire[at + 1] = static_cast<std::byte>(v >> 8);
}

void put_u32_at(std::vector<std::byte>& wire, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    wire[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t fnv1a(std::span<const std::byte> bytes, std::uint32_t h) {
  for (const std::byte b : bytes) {
    h ^= std::to_integer<std::uint32_t>(b);
    h *= 16777619u;
  }
  return h;
}

/// Recomputes the header checksum after a test patched a field.
void refresh_checksum(std::vector<std::byte>& wire) {
  constexpr std::size_t kChecksumAt = 60;
  std::uint32_t h = fnv1a({wire.data(), kChecksumAt}, 2166136261u);
  h = fnv1a({wire.data() + kWireHeaderSize, wire.size() - kWireHeaderSize}, h);
  put_u32_at(wire, kChecksumAt, h);
}

constexpr std::size_t kNodes = 4;

TEST(WireCodec, CodecReplicaIsFaithful) {
  // refresh_checksum over an *unmodified* datagram must keep it decodable;
  // if this fails, the patch-based rejection tests below prove nothing.
  auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 57), 3, 7);
  refresh_checksum(wire);
  EXPECT_TRUE(decode_datagram(wire, kNodes).has_value());
}

TEST(WireCodec, RoundTripsAllFields) {
  Message m = make_msg(MsgType::kWriteReply, 2, 3, 123, /*send_time=*/987654);
  m.seq = 42;
  m.arrival_time = 1234567;
  m.ack_upto = 17;
  const auto wire = encode_datagram(m, /*attempt=*/5, /*epoch=*/9);
  ASSERT_EQ(wire.size(), kWireHeaderSize + 123);

  const auto dg = decode_datagram(wire, kNodes);
  ASSERT_TRUE(dg.has_value());
  EXPECT_EQ(dg->msg.type, MsgType::kWriteReply);
  EXPECT_EQ(dg->msg.src, 2u);
  EXPECT_EQ(dg->msg.dst, 3u);
  EXPECT_EQ(dg->msg.seq, 42u);
  EXPECT_EQ(dg->msg.send_time, 987654u);
  EXPECT_EQ(dg->msg.arrival_time, 1234567u);
  EXPECT_EQ(dg->msg.ack_upto, 17u);
  EXPECT_EQ(dg->msg.payload, m.payload);
  EXPECT_EQ(dg->attempt, 5u);
  EXPECT_EQ(dg->epoch, 9u);
}

TEST(WireCodec, RoundTripsEmptyPayloadAndSentinelSeq) {
  Message m = make_msg(MsgType::kAck, 1, 0);
  m.seq = Message::kNoSeq;
  m.ack_upto = 99;
  const auto dg = decode_datagram(encode_datagram(m, 0, 1), kNodes);
  ASSERT_TRUE(dg.has_value());
  EXPECT_EQ(dg->msg.seq, Message::kNoSeq);
  EXPECT_EQ(dg->msg.ack_upto, 99u);
  EXPECT_TRUE(dg->msg.payload.empty());
}

TEST(WireCodec, RoundTripsBatchEnvelope) {
  std::vector<Message> inner;
  inner.push_back(make_msg(MsgType::kUpdate, 0, 1, 40));
  inner.push_back(make_msg(MsgType::kInvalidate, 0, 1));
  Message env = make_msg(MsgType::kBatch, 0, 1);
  env.seq = 7;
  env.payload = pack_batch(inner);
  const auto dg = decode_datagram(encode_datagram(env, 0, 2), kNodes);
  ASSERT_TRUE(dg.has_value());
  EXPECT_EQ(batch_count(dg->msg), 2u);
}

TEST(WireCodec, RejectsEveryTruncation) {
  const auto wire = encode_datagram(make_msg(MsgType::kPageReply, 1, 2, 80), 0, 1);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_datagram({wire.data(), len}, kNodes).has_value())
        << "length " << len;
  }
}

TEST(WireCodec, RejectsTrailingBytes) {
  auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 16), 0, 1);
  wire.push_back(std::byte{0});
  EXPECT_FALSE(decode_datagram(wire, kNodes).has_value());
}

TEST(WireCodec, RejectsEverySingleBitFlip) {
  // FNV-1a's per-byte step is bijective in the accumulator, so any single
  // flipped bit — header or payload — must change the checksum.
  const auto wire = encode_datagram(make_msg(MsgType::kDiffReply, 3, 0, 48), 2, 1);
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    auto mutated = wire;
    mutated[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(decode_datagram(mutated, kNodes).has_value()) << "bit " << bit;
  }
}

TEST(WireCodec, RejectsBadMagic) {
  auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 8), 0, 1);
  put_u32_at(wire, 0, 0xDEADBEEF);
  refresh_checksum(wire);
  EXPECT_FALSE(decode_datagram(wire, kNodes).has_value());
}

TEST(WireCodec, RejectsUnknownVersion) {
  auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 8), 0, 1);
  put_u16_at(wire, 4, kWireVersion + 1);
  refresh_checksum(wire);
  EXPECT_FALSE(decode_datagram(wire, kNodes).has_value());
}

TEST(WireCodec, RejectsTypesThatNeverTravel) {
  // In-process control types and out-of-range values must not cross a
  // socket even inside a checksum-valid frame.
  const std::uint16_t bad_types[] = {
      static_cast<std::uint16_t>(MsgType::kShutdown),
      static_cast<std::uint16_t>(MsgType::kWakeup),
      static_cast<std::uint16_t>(MsgType::kCount_),
      999,
  };
  for (const std::uint16_t t : bad_types) {
    auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 8), 0, 1);
    put_u16_at(wire, 6, t);
    refresh_checksum(wire);
    EXPECT_FALSE(decode_datagram(wire, kNodes).has_value()) << "type " << t;
  }
}

TEST(WireCodec, AllowsRendezvousAndAckTypes) {
  // kExitReady/kExitGo/kAck are the control types that legitimately cross
  // process boundaries.
  for (const MsgType t : {MsgType::kExitReady, MsgType::kExitGo, MsgType::kAck}) {
    const auto wire = encode_datagram(make_msg(t, 1, 0), 0, 1);
    EXPECT_TRUE(decode_datagram(wire, kNodes).has_value())
        << "type " << to_string(t);
  }
}

TEST(WireCodec, RejectsOutOfRangeEndpoints) {
  // encode_datagram serializes whatever it is given; the receiver must
  // reject endpoints outside the fleet, and self-sends never hit the wire.
  EXPECT_FALSE(
      decode_datagram(encode_datagram(make_msg(MsgType::kUpdate, 7, 1), 0, 1), kNodes));
  EXPECT_FALSE(
      decode_datagram(encode_datagram(make_msg(MsgType::kUpdate, 1, 7), 0, 1), kNodes));
  EXPECT_FALSE(
      decode_datagram(encode_datagram(make_msg(MsgType::kUpdate, 2, 2), 0, 1), kNodes));
}

TEST(WireCodec, RejectsPayloadLengthMismatch) {
  for (const std::uint32_t claimed : {15u, 17u, 0u, 0xFFFFFFFFu}) {
    auto wire = encode_datagram(make_msg(MsgType::kUpdate, 0, 1, 16), 0, 1);
    put_u32_at(wire, 56, claimed);
    refresh_checksum(wire);
    EXPECT_FALSE(decode_datagram(wire, kNodes).has_value()) << "claimed " << claimed;
  }
}

TEST(WireCodec, RejectsStructurallyInvalidBatchPayload) {
  // A checksum-valid kBatch whose payload does not frame must be rejected
  // at the datagram boundary, before it can reach unpack_batch.
  Message env = make_msg(MsgType::kBatch, 0, 1);
  env.payload.resize(10);  // garbage: claims some count, frames truncated
  env.payload[0] = std::byte{3};
  EXPECT_FALSE(decode_datagram(encode_datagram(env, 0, 1), kNodes).has_value());
}

// --- backend behavior -------------------------------------------------------

TEST(InprocTransport, IsTheDefaultBackend) {
  StatsRegistry stats;
  Network net(4, LinkModel{}, &stats);
  EXPECT_EQ(net.transport().name(), "inproc");
  EXPECT_FALSE(net.transport().wire_acks());
  EXPECT_TRUE(net.transport().endpoints().empty());
}

TransportConfig udp_config() {
  TransportConfig cfg;
  cfg.kind = TransportKind::kUdp;
  return cfg;
}

/// Parses "epoch=N" out of the transport's debug dump — tests need the live
/// epoch to craft stale (or deliberately non-stale) raw datagrams.
std::uint32_t transport_epoch(const Network& net) {
  std::ostringstream os;
  net.transport().debug_dump(os);
  const std::string dump = os.str();
  const std::size_t at = dump.find("epoch=");
  EXPECT_NE(at, std::string::npos) << dump;
  return static_cast<std::uint32_t>(std::stoul(dump.substr(at + 6)));
}

/// Parses a "host:port" endpoint.
sockaddr_in parse_endpoint(const std::string& endpoint) {
  sockaddr_in addr{};
  const std::size_t colon = endpoint.rfind(':');
  EXPECT_NE(colon, std::string::npos) << endpoint;
  if (colon == std::string::npos) return addr;
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoul(endpoint.substr(colon + 1))));
  EXPECT_EQ(::inet_pton(AF_INET, endpoint.substr(0, colon).c_str(), &addr.sin_addr), 1);
  return addr;
}

/// Sends raw bytes to a "host:port" endpoint from a throwaway socket.
void inject_raw(const std::string& endpoint, std::span<const std::byte> bytes) {
  const sockaddr_in addr = parse_endpoint(endpoint);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const ssize_t sent = ::sendto(fd, bytes.data(), bytes.size(), 0,
                                reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ::close(fd);
  ASSERT_EQ(sent, static_cast<ssize_t>(bytes.size()));
}

/// Polls until `counter` reaches `at_least` (receiver threads are async).
bool wait_counter(const StatsRegistry& stats, const char* counter,
                  std::uint64_t at_least,
                  std::chrono::milliseconds deadline = std::chrono::seconds(5)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (stats.snapshot().counter(counter) >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

class UdpTransportTest : public ::testing::Test {
 protected:
  StatsRegistry stats_;
  LinkModel link_{.latency_ns = 1000, .ns_per_byte = 10, .loopback_ns = 50};
  Network net_{4, link_, &stats_, {}, {}, {}, nullptr, udp_config()};
};

TEST_F(UdpTransportTest, ExposesHostedEndpoints) {
  EXPECT_EQ(net_.transport().name(), "udp");
  EXPECT_TRUE(net_.transport().wire_acks());
  const auto eps = net_.transport().endpoints();
  ASSERT_EQ(eps.size(), 4u);
  for (const auto& ep : eps) {
    EXPECT_EQ(ep.rfind("127.0.0.1:", 0), 0u) << ep;
    EXPECT_NE(ep, "127.0.0.1:0");
  }
}

TEST_F(UdpTransportTest, EphemeralPortsAreNotShared) {
  // A node's ephemeral port is its own: another socket asking to share it
  // with SO_REUSEADDR is refused. Were the node's socket to set the option
  // too, Linux could hand one port to two live sockets, and each would
  // swallow datagrams meant for the other.
  const sockaddr_in addr = parse_endpoint(net_.transport().endpoints()[0]);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const int one = 1;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one), 0);
  const int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  const int err = errno;
  ::close(fd);
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, EADDRINUSE);
}

TEST_F(UdpTransportTest, DeliversToDestination) {
  net_.send(make_msg(MsgType::kReadRequest, 0, 2, 64));
  const auto msg = net_.recv(2);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::kReadRequest);
  EXPECT_EQ(msg->src, 0u);
  EXPECT_EQ(msg->payload.size(), 64u);
}

TEST_F(UdpTransportTest, PerLinkFifoSurvivesTheKernel) {
  for (int i = 0; i < 50; ++i) {
    net_.send(make_msg(MsgType::kUpdate, 0, 1, 0, static_cast<VirtualTime>(i)));
  }
  VirtualTime last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto msg = net_.recv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_GE(msg->send_time, last);
    last = msg->send_time;
  }
}

TEST_F(UdpTransportTest, MulticastReachesAllDestinations) {
  const std::vector<NodeId> dsts{1, 2, 3};
  net_.multicast(dsts, make_msg(MsgType::kInvalidate, 0, kNoNode));
  for (const NodeId d : dsts) {
    const auto msg = net_.recv(d);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->dst, d);
  }
}

TEST_F(UdpTransportTest, WireAcksDrainInFlightState) {
  for (int i = 0; i < 8; ++i) net_.send(make_msg(MsgType::kUpdate, 0, 1, 32));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(net_.recv(1).has_value());
  // Delivery raced ahead of the ack path; the fabric is quiescent only once
  // kAck datagrams crossed back and completed every in-flight entry.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!net_.idle() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(net_.idle());
  EXPECT_GE(stats_.snapshot().counter("net.acks_wire"), 1u);
}

TEST_F(UdpTransportTest, GarbageDatagramsAreCountedAndHarmless) {
  const auto eps = net_.transport().endpoints();
  std::vector<std::byte> junk(100);
  for (std::size_t i = 0; i < junk.size(); ++i) junk[i] = static_cast<std::byte>(i);
  for (int i = 0; i < 5; ++i) inject_raw(eps[0], junk);
  EXPECT_TRUE(wait_counter(stats_, "net.malformed_dropped", 5));

  // The fabric still works after eating garbage.
  net_.send(make_msg(MsgType::kConfirm, 1, 0));
  const auto msg = net_.recv(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::kConfirm);
}

TEST_F(UdpTransportTest, StaleEpochDatagramsAreCounted) {
  const auto eps = net_.transport().endpoints();
  // Structurally perfect, but from an epoch that is not this fabric's: the
  // straggler-rejection path for sequential Systems on one inherited socket.
  const auto wire =
      encode_datagram(make_msg(MsgType::kUpdate, 1, 0, 8), 0, transport_epoch(net_) + 1000);
  inject_raw(eps[0], wire);
  EXPECT_TRUE(wait_counter(stats_, "net.stale_dropped", 1));
  EXPECT_EQ(stats_.snapshot().counter("net.malformed_dropped"), 0u);
}

TEST_F(UdpTransportTest, RespawnedIncarnationResetsAndStragglersAreStale) {
  const auto eps = net_.transport().endpoints();
  const std::uint32_t ordinal = transport_epoch(net_) & 0xFFFFu;

  // Establish incarnation 0 for src 1 with ordinary traffic.
  net_.send(make_msg(MsgType::kUpdate, 1, 0, 8));
  ASSERT_TRUE(net_.recv(0).has_value());

  // A datagram whose epoch carries a *higher* incarnation announces that the
  // peer process was respawned (dsmrun bumps DSM_INCARNATION on respawn):
  // the receiver resets the link and records the fresh incarnation.
  const auto respawn =
      encode_datagram(make_msg(MsgType::kUpdate, 1, 0, 8), 0, (1u << 16) | ordinal);
  inject_raw(eps[0], respawn);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net_.liveness().incarnation(1) < 1 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(net_.liveness().incarnation(1), 1u);

  // A pre-crash straggler (the old incarnation) is stale — counted, never
  // delivered. Marked with a distinctive send_time so delivery would show.
  const VirtualTime kStaleMark = 0xDEAD;
  const auto straggler = encode_datagram(
      make_msg(MsgType::kUpdate, 1, 0, 8, kStaleMark), 0, (0u << 16) | ordinal);
  inject_raw(eps[0], straggler);
  EXPECT_TRUE(wait_counter(stats_, "net.stale_dropped", 1));

  // The fabric still works, and the straggler never surfaced in the mailbox
  // (drain everything up to a fresh sentinel from an untouched link).
  net_.send(make_msg(MsgType::kConfirm, 2, 0));
  for (;;) {
    const auto msg = net_.recv(0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->send_time, kStaleMark);
    if (msg->type == MsgType::kConfirm) break;
  }
}

TEST_F(UdpTransportTest, MisdirectedDatagramsAreCounted) {
  const auto eps = net_.transport().endpoints();
  // Valid frame for node 2, thrown at node 0's socket.
  const auto wire =
      encode_datagram(make_msg(MsgType::kUpdate, 1, 2, 8), 0, transport_epoch(net_));
  inject_raw(eps[0], wire);
  EXPECT_TRUE(wait_counter(stats_, "net.malformed_dropped", 1));
}

TEST(UdpTransportDeathTest, OversizeDatagramAbortsAtOnce) {
  // No retransmission can deliver a frame over kMaxDatagramSize: the sender
  // dies naming the message instead of retrying it into net.gave_up.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        StatsRegistry stats;
        Network net(2, LinkModel{}, &stats, {}, {}, {}, nullptr, udp_config());
        net.send(make_msg(MsgType::kUpdate, 0, 1, kMaxDatagramSize));
      },
      "Update datagram of 61504 bytes exceeds kMaxDatagramSize");
}

TEST(UdpTransportLifecycle, TwoFabricsCoexistAndStopCleanly) {
  // Ephemeral ports: two UDP networks in one process never collide, and
  // explicit shutdown() then destruction is not a double-stop.
  StatsRegistry stats_a, stats_b;
  Network a(2, LinkModel{}, &stats_a, {}, {}, {}, nullptr, udp_config());
  Network b(2, LinkModel{}, &stats_b, {}, {}, {}, nullptr, udp_config());
  EXPECT_NE(a.transport().endpoints(), b.transport().endpoints());
  a.send(make_msg(MsgType::kUpdate, 0, 1));
  b.send(make_msg(MsgType::kUpdate, 1, 0));
  EXPECT_TRUE(a.recv(1).has_value());
  EXPECT_TRUE(b.recv(0).has_value());
  a.shutdown();
  b.shutdown();
}

}  // namespace
}  // namespace dsm
