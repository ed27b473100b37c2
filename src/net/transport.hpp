// Pluggable transport backends. The Network owns all fabric *semantics* —
// sequencing, acks, retransmission, dedup, reorder, chaos, virtual-time
// stamping — and hands each finished wire attempt to a Transport, whose only
// job is moving already-framed datagrams from a source endpoint to a
// destination endpoint:
//
//   InprocTransport  hands the datagram straight back to the receiving side
//                    of the same Network object (the historical in-process
//                    fabric; bit-identical to the pre-transport wire).
//   UdpTransport     serializes the datagram (64-byte header + payload,
//                    FNV-1a checksummed) onto a real UDP socket; a receiver
//                    thread per hosted node decodes and feeds arrivals back
//                    into the Network. Kernel-level loss, duplication, and
//                    reordering are recovered by the same reliable sublayer
//                    that chaos testing exercises in-process.
//
// Chaos stays *above* the seam (in Network::wire_attempt / arrive), so the
// same seeds drive identical fault decisions on every backend.
//
// With `TransportConfig::local_node` set, the process hosts exactly one node
// and peers are separate processes (launched by tools/dsmrun); everything
// else about the Network is unchanged. See DESIGN.md "Transport backends".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace dsm {

class Network;

enum class TransportKind : std::uint8_t {
  kInproc,  ///< in-process handoff (default; the historical fabric)
  kUdp,     ///< real UDP sockets (loopback single-process or dsmrun multi-process)
};

const char* to_string(TransportKind kind);

/// Which backend moves datagrams, and — for multi-process UDP runs — which
/// node this process hosts and where its peers listen.
struct TransportConfig {
  TransportKind kind = TransportKind::kInproc;
  /// kNoNode = this process hosts every node (single-process). Otherwise
  /// the one node this process is, with peers in separate processes.
  NodeId local_node = kNoNode;
  /// "host:port" per node, length n_nodes (multi-process UDP only; the
  /// single-process UDP backend binds ephemeral loopback ports itself).
  std::vector<std::string> peers;
  /// Pre-bound UDP socket for `local_node`, inherited from dsmrun (-1 =
  /// bind `peers[local_node]` ourselves). Fd passing avoids port races and
  /// keeps the endpoint alive across sequential System instances.
  int socket_fd = -1;

  bool multiprocess() const { return local_node != kNoNode; }
};

/// A transport backend: moves one already-framed wire attempt. Implementations
/// must be safe against concurrent ship() calls (service threads, app threads,
/// and the retransmit daemon all send).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string_view name() const = 0;

  /// Sender-side handoff of one wire attempt. The Network has already
  /// applied chaos and stamped `arrival_time`; the transport just moves the
  /// datagram (and may silently lose it — the reliable sublayer recovers).
  virtual void ship(Message msg, std::uint32_t attempt) = 0;

  /// True when delivery acknowledgements must travel on the wire as kAck
  /// datagrams. The in-process backend completes the sender's in-flight
  /// entry directly instead (both sides share one address space).
  virtual bool wire_acks() const = 0;

  /// Starts receiver machinery (called once, after the owning Network is
  /// fully constructed). stop() must be idempotent.
  virtual void start() {}
  virtual void stop() {}

  /// "host:port" per hosted node (empty for in-process). Lets tests inject
  /// raw datagrams at the socket.
  virtual std::vector<std::string> endpoints() const { return {}; }

  virtual void debug_dump(std::ostream& os) const;
};

// --- wire datagram codec ----------------------------------------------------
// Little-endian, fixed 64-byte header:
//   u32 magic | u16 version | u16 type | u32 src | u32 dst | u32 epoch |
//   u32 attempt | u64 seq | u64 send_time | u64 arrival_time | u64 ack_upto |
//   u32 payload_len | u32 checksum | payload bytes
// `attempt` travels so receiver-side chaos decisions (ack drop, pause) are
// keyed identically on both backends. `epoch` identifies the Network
// instance datagrams belong to: sequential System instances on one inherited
// socket (dsmrun benches) reject each other's stragglers. The checksum is
// FNV-1a over header (checksum field excluded) + payload; any truncation or
// single-bit flip is rejected deterministically.

constexpr std::uint32_t kWireMagic = 0x44534D57;  // "DSMW"
constexpr std::uint16_t kWireVersion = 1;
constexpr std::size_t kWireHeaderSize = 64;
/// Largest datagram ship() accepts (UDP practical limit on loopback). A
/// larger frame aborts the sender: no retransmission could deliver it.
constexpr std::size_t kMaxDatagramSize = 60 * 1024;

struct WireDatagram {
  Message msg;
  std::uint32_t attempt = 0;
  std::uint32_t epoch = 0;
};

std::vector<std::byte> encode_datagram(const Message& msg, std::uint32_t attempt,
                                       std::uint32_t epoch);

/// Total parser for untrusted input: nullopt (never abort) on any malformed
/// datagram — short buffer, bad magic/version/checksum, length mismatch,
/// out-of-range endpoints, a type that never travels on the wire, or a
/// structurally invalid kBatch payload. Callers count rejects as
/// `net.malformed_dropped`.
std::optional<WireDatagram> decode_datagram(std::span<const std::byte> bytes,
                                            std::size_t n_nodes);

// --- construction & environment --------------------------------------------

/// Builds the configured backend. `net` receives arrivals via
/// Network::receive; `stats` carries the transport's counters
/// (net.malformed_dropped, net.stale_dropped, net.send_errors).
std::unique_ptr<Transport> make_transport(const TransportConfig& cfg,
                                          std::size_t n_nodes, Network* net,
                                          StatsRegistry* stats);

/// Applies a dsmrun launch: reads DSM_TRANSPORT, DSM_NODES, DSM_NODE,
/// DSM_PEERS, and DSM_SOCKET_FD. Returns false (untouched) when
/// DSM_TRANSPORT is unset; aborts on a malformed environment. On success
/// `*n_nodes` is set to the launch's node count.
bool transport_from_env(TransportConfig& cfg, std::size_t* n_nodes);

/// Conformance-suite override: TUTORDSM_TRANSPORT=udp|inproc selects the
/// backend for programs that didn't pick one explicitly. Returns true when
/// the variable was set and applied.
bool transport_kind_from_env(TransportConfig& cfg);

/// Internal: the UDP backend factory (udp_transport.cpp).
std::unique_ptr<Transport> make_udp_transport(const TransportConfig& cfg,
                                              std::size_t n_nodes, Network* net,
                                              StatsRegistry* stats);

}  // namespace dsm
