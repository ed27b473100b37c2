#include "net/transport.hpp"

#include <cstdlib>
#include <cstring>

#include "common/assert.hpp"
#include "net/network.hpp"

namespace dsm {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInproc: return "inproc";
    case TransportKind::kUdp: return "udp";
  }
  return "unknown";
}

void Transport::debug_dump(std::ostream& os) const {
  os << "  transport: " << name() << '\n';
}

namespace {

// --- wire codec helpers -----------------------------------------------------

constexpr std::size_t kChecksumOffset = 60;  // last header field

void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, sizeof v); }
void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// FNV-1a (32-bit). Every step is bijective in the running hash, so two
/// equal-length buffers differing in any single byte always hash apart —
/// which makes single-bit-flip rejection in the fuzz suite deterministic.
std::uint32_t fnv1a(std::uint32_t h, std::span<const std::byte> data) {
  for (const std::byte b : data) {
    h ^= static_cast<std::uint32_t>(b);
    h *= 16777619u;
  }
  return h;
}

std::uint32_t datagram_checksum(std::span<const std::byte> bytes) {
  std::uint32_t h = 2166136261u;
  h = fnv1a(h, bytes.subspan(0, kChecksumOffset));
  h = fnv1a(h, bytes.subspan(kWireHeaderSize));
  return h;
}

/// Message types that legitimately travel on the wire. Shutdown and Wakeup
/// are always in-process self-sends, kPeerDown/kPeerUp are liveness posts
/// that only ever travel via Network::post_local; anything at or past
/// kCount_ is garbage.
bool wire_type_ok(std::uint16_t raw) {
  if (raw >= static_cast<std::uint16_t>(MsgType::kCount_)) return false;
  const auto type = static_cast<MsgType>(raw);
  return type != MsgType::kShutdown && type != MsgType::kWakeup &&
         type != MsgType::kPeerDown && type != MsgType::kPeerUp;
}

// --- environment helpers ----------------------------------------------------

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::uint64_t env_u64(const char* name) {
  const char* v = std::getenv(name);
  DSM_CHECK_MSG(v != nullptr, "dsmrun environment incomplete: " << name << " unset");
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(v, &end, 10);
  DSM_CHECK_MSG(end != v && *end == '\0', name << " is not a number: " << v);
  return parsed;
}

// --- InprocTransport --------------------------------------------------------

/// The historical fabric: ship() hands the datagram straight to the
/// receiving half of the same Network. No serialization, no sockets, no
/// wire acks — behaviour (and every counter) is identical to the
/// pre-transport wire.
class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(Network* net) : net_(net) {}
  std::string_view name() const override { return "inproc"; }
  bool wire_acks() const override { return false; }
  void ship(Message msg, std::uint32_t attempt) override {
    net_->receive(std::move(msg), attempt);
  }

 private:
  Network* net_;
};

}  // namespace

std::vector<std::byte> encode_datagram(const Message& msg, std::uint32_t attempt,
                                       std::uint32_t epoch) {
  std::vector<std::byte> out(kWireHeaderSize + msg.payload.size());
  std::byte* p = out.data();
  put_u32(p + 0, kWireMagic);
  put_u16(p + 4, kWireVersion);
  put_u16(p + 6, static_cast<std::uint16_t>(msg.type));
  put_u32(p + 8, msg.src);
  put_u32(p + 12, msg.dst);
  put_u32(p + 16, epoch);
  put_u32(p + 20, attempt);
  put_u64(p + 24, msg.seq);
  put_u64(p + 32, static_cast<std::uint64_t>(msg.send_time));
  put_u64(p + 40, static_cast<std::uint64_t>(msg.arrival_time));
  put_u64(p + 48, msg.ack_upto);
  put_u32(p + 56, static_cast<std::uint32_t>(msg.payload.size()));
  if (!msg.payload.empty())
    std::memcpy(p + kWireHeaderSize, msg.payload.data(), msg.payload.size());
  put_u32(p + kChecksumOffset, datagram_checksum(out));
  return out;
}

std::optional<WireDatagram> decode_datagram(std::span<const std::byte> bytes,
                                            std::size_t n_nodes) {
  if (bytes.size() < kWireHeaderSize) return std::nullopt;
  const std::byte* p = bytes.data();
  if (get_u32(p + 0) != kWireMagic) return std::nullopt;
  if (get_u16(p + 4) != kWireVersion) return std::nullopt;
  if (get_u32(p + kChecksumOffset) != datagram_checksum(bytes)) return std::nullopt;
  const std::uint32_t payload_len = get_u32(p + 56);
  if (payload_len != bytes.size() - kWireHeaderSize) return std::nullopt;

  const std::uint16_t raw_type = get_u16(p + 6);
  if (!wire_type_ok(raw_type)) return std::nullopt;
  const std::uint32_t src = get_u32(p + 8);
  const std::uint32_t dst = get_u32(p + 12);
  // Loopback (src == dst) is delivered in-process and never framed.
  if (src >= n_nodes || dst >= n_nodes || src == dst) return std::nullopt;

  WireDatagram dg;
  dg.msg.type = static_cast<MsgType>(raw_type);
  dg.msg.src = static_cast<NodeId>(src);
  dg.msg.dst = static_cast<NodeId>(dst);
  dg.epoch = get_u32(p + 16);
  dg.attempt = get_u32(p + 20);
  dg.msg.seq = get_u64(p + 24);
  dg.msg.send_time = static_cast<VirtualTime>(get_u64(p + 32));
  dg.msg.arrival_time = static_cast<VirtualTime>(get_u64(p + 40));
  dg.msg.ack_upto = get_u64(p + 48);
  dg.msg.payload.assign(bytes.begin() + kWireHeaderSize, bytes.end());

  // An envelope that passed the checksum can still be structural garbage if
  // the sender was buggy or hostile; reject before it can reach unpack.
  if (dg.msg.type == MsgType::kBatch && !batch_payload_well_formed(dg.msg.payload)) {
    return std::nullopt;
  }
  return dg;
}

std::unique_ptr<Transport> make_transport(const TransportConfig& cfg,
                                          std::size_t n_nodes, Network* net,
                                          StatsRegistry* stats) {
  switch (cfg.kind) {
    case TransportKind::kInproc:
      DSM_CHECK_MSG(!cfg.multiprocess(), "multi-process mode requires the udp transport");
      return std::make_unique<InprocTransport>(net);
    case TransportKind::kUdp:
      return make_udp_transport(cfg, n_nodes, net, stats);
  }
  DSM_CHECK_MSG(false, "unknown transport kind");
  return nullptr;
}

bool transport_from_env(TransportConfig& cfg, std::size_t* n_nodes) {
  const char* kind = std::getenv("DSM_TRANSPORT");
  if (kind == nullptr) return false;
  DSM_CHECK_MSG(std::string_view(kind) == "udp",
                "DSM_TRANSPORT must be 'udp', got '" << kind << "'");
  const std::uint64_t nodes = env_u64("DSM_NODES");
  const std::uint64_t local = env_u64("DSM_NODE");
  const char* peers = std::getenv("DSM_PEERS");
  DSM_CHECK_MSG(peers != nullptr, "dsmrun environment incomplete: DSM_PEERS unset");
  cfg.kind = TransportKind::kUdp;
  cfg.local_node = static_cast<NodeId>(local);
  cfg.peers = split_csv(peers);
  DSM_CHECK_MSG(nodes >= 1 && local < nodes,
                "DSM_NODE " << local << " out of range for DSM_NODES " << nodes);
  DSM_CHECK_MSG(cfg.peers.size() == nodes,
                "DSM_PEERS has " << cfg.peers.size() << " entries for DSM_NODES " << nodes);
  if (std::getenv("DSM_SOCKET_FD") != nullptr) {
    cfg.socket_fd = static_cast<int>(env_u64("DSM_SOCKET_FD"));
  }
  if (n_nodes != nullptr) *n_nodes = nodes;
  return true;
}

bool transport_kind_from_env(TransportConfig& cfg) {
  const char* kind = std::getenv("TUTORDSM_TRANSPORT");
  if (kind == nullptr) return false;
  const std::string_view s = kind;
  if (s == "udp") {
    cfg.kind = TransportKind::kUdp;
    return true;
  }
  if (s == "inproc") {
    cfg.kind = TransportKind::kInproc;
    return true;
  }
  DSM_CHECK_MSG(false, "TUTORDSM_TRANSPORT must be 'udp' or 'inproc', got '" << s << "'");
  return false;
}

}  // namespace dsm
