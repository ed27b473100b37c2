// Real-socket backend: every wire attempt the Network hands us is framed
// (transport.hpp codec) and sent through the kernel as one UDP datagram; a
// receiver thread per hosted node decodes arrivals and feeds them back into
// Network::receive. Loss is allowed everywhere — full send buffers, rcvbuf
// overflow, a peer that has not bound yet — because the reliable sublayer
// above the seam retransmits until acked. Nothing below the seam retries.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/assert.hpp"
#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"

namespace dsm {
namespace {

/// Process-wide epoch ordinal (the low 16 bits of the wire epoch): each
/// UdpTransport (one per Network/System) gets the next ordinal. SPMD
/// processes construct their Systems in identical order, so ordinals agree
/// across a dsmrun fleet, and a straggler datagram from a finished System is
/// rejected by the next one sharing the inherited socket. The high 16 bits
/// carry the process *incarnation* (DSM_INCARNATION, bumped by dsmrun on
/// every respawn): a crashed-and-respawned rank's pre-crash datagrams carry
/// the old incarnation and are counted under net.stale_dropped, never
/// delivered, while a *higher* incarnation tells the receiver the peer was
/// respawned (Network::peer_restarted resets link state).
std::atomic<std::uint32_t> g_udp_epoch{0};

std::uint32_t incarnation_from_env() {
  const char* v = std::getenv("DSM_INCARNATION");
  if (v == nullptr) return 0;
  return static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10)) & 0xFFFFu;
}

sockaddr_in parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  DSM_CHECK_MSG(colon != std::string::npos && colon > 0,
                "bad peer endpoint '" << spec << "' (want host:port)");
  const std::string host = spec.substr(0, colon);
  char* end = nullptr;
  const unsigned long port = std::strtoul(spec.c_str() + colon + 1, &end, 10);
  DSM_CHECK_MSG(end != nullptr && *end == '\0' && port <= 65535,
                "bad port in peer endpoint '" << spec << "'");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  DSM_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "bad host in peer endpoint '" << spec << "'");
  return addr;
}

std::string endpoint_string(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof host);
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DSM_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

class UdpTransport final : public Transport {
 public:
  UdpTransport(const TransportConfig& cfg, std::size_t n_nodes, Network* net,
               StatsRegistry* stats)
      : net_(net),
        n_nodes_(n_nodes),
        local_(cfg.local_node),
        epoch_((incarnation_from_env() << 16) |
               (g_udp_epoch.fetch_add(1, std::memory_order_relaxed) & 0xFFFFu)),
        peer_incarnation_(n_nodes, -1),
        malformed_(stats->counter("net.malformed_dropped")),
        stale_(stats->counter("net.stale_dropped")),
        send_errors_(stats->counter("net.send_errors")) {
    if (cfg.multiprocess()) {
      DSM_CHECK_MSG(cfg.peers.size() == n_nodes,
                    "udp transport: " << cfg.peers.size() << " peers for "
                                      << n_nodes << " nodes");
      addrs_.reserve(n_nodes);
      for (const std::string& peer : cfg.peers) addrs_.push_back(parse_endpoint(peer));
      hosted_.push_back(local_);
      if (cfg.socket_fd >= 0) {
        set_nonblocking(cfg.socket_fd);
        fds_.push_back(cfg.socket_fd);
        owned_.push_back(false);  // dsmrun's socket outlives this System
      } else {
        fds_.push_back(open_bound_socket(&addrs_[local_]));
        owned_.push_back(true);
      }
    } else {
      // Single-process loopback: one ephemeral socket per node; the OS
      // assigns ports, so parallel test processes never collide.
      addrs_.resize(n_nodes);
      for (NodeId node = 0; node < n_nodes; ++node) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        fds_.push_back(open_bound_socket(&addr));
        owned_.push_back(true);
        hosted_.push_back(node);
        addrs_[node] = addr;
      }
    }
  }

  ~UdpTransport() override { stop(); }

  std::string_view name() const override { return "udp"; }
  bool wire_acks() const override { return true; }

  void start() override {
    receivers_.reserve(fds_.size());
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      receivers_.emplace_back([this, i] { recv_loop(i); });
    }
  }

  void stop() override {
    if (stopping_.exchange(true, std::memory_order_relaxed)) return;
    for (auto& t : receivers_) {
      if (t.joinable()) t.join();
    }
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      if (owned_[i]) ::close(fds_[i]);
    }
    fds_.clear();
  }

  void ship(Message msg, std::uint32_t attempt) override {
    const std::vector<std::byte> wire = encode_datagram(msg, attempt, epoch_);
    // No retransmission can deliver an oversized frame: dropping it would
    // only wedge its waiter until the retries give up or the watchdog fires.
    DSM_CHECK_MSG(wire.size() <= kMaxDatagramSize,
                  "udp: " << to_string(msg.type) << " datagram of " << wire.size()
                          << " bytes exceeds kMaxDatagramSize (" << kMaxDatagramSize << ')');
    const sockaddr_in& addr = addrs_[msg.dst];
    const ssize_t sent =
        ::sendto(fd_for(msg.src), wire.data(), wire.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (sent < 0 || static_cast<std::size_t>(sent) != wire.size()) {
      // Full buffer or unreachable peer: counted, then treated as wire loss.
      send_errors_.add();
    }
  }

  std::vector<std::string> endpoints() const override {
    std::vector<std::string> out;
    out.reserve(hosted_.size());
    for (const NodeId node : hosted_) out.push_back(endpoint_string(addrs_[node]));
    return out;
  }

  void debug_dump(std::ostream& os) const override {
    os << "  transport: udp epoch=" << epoch_ << " hosted=";
    for (std::size_t i = 0; i < hosted_.size(); ++i) {
      os << (i > 0 ? "," : "") << hosted_[i] << '@' << endpoint_string(addrs_[hosted_[i]]);
    }
    os << '\n';
  }

 private:
  int fd_for(NodeId src) const { return fds_.size() == 1 ? fds_[0] : fds_[src]; }

  /// Creates a non-blocking UDP socket bound to *addr; rewrites *addr with
  /// the actual (possibly ephemeral) binding.
  static int open_bound_socket(sockaddr_in* addr) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    DSM_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
    if (addr->sin_port != 0) {
      // Only a fixed port may be shared: with SO_REUSEADDR on both
      // sockets, Linux can hand one ephemeral UDP port to two live
      // sockets, which then swallow each other's datagrams.
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    }
    // Burst tolerance: a barrier fan-in from 32 nodes must not overflow the
    // default rcvbuf into (recoverable, but slow) retransmit storms.
    const int rcvbuf = 1 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    DSM_CHECK_MSG(::bind(fd, reinterpret_cast<sockaddr*>(addr), sizeof *addr) == 0,
                  "bind(" << endpoint_string(*addr)
                          << ") failed: " << std::strerror(errno));
    socklen_t len = sizeof *addr;
    DSM_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(addr), &len) == 0);
    set_nonblocking(fd);
    return fd;
  }

  void recv_loop(std::size_t idx) {
    const NodeId hosted = hosted_[idx];
    std::vector<std::byte> buf(kMaxDatagramSize + 1);
    pollfd pfd{};
    pfd.fd = fds_[idx];
    pfd.events = POLLIN;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
      if (ready <= 0) continue;
      for (;;) {
        const ssize_t got = ::recvfrom(pfd.fd, buf.data(), buf.size(), 0, nullptr, nullptr);
        if (got < 0) break;  // EAGAIN: drained
        auto dg = decode_datagram({buf.data(), static_cast<std::size_t>(got)}, n_nodes_);
        if (!dg.has_value()) {
          malformed_.add();
          continue;
        }
        // Low 16 bits: System ordinal — strict equality, as before, so
        // sequential Systems on one inherited socket reject each other.
        if ((dg->epoch & 0xFFFFu) != (epoch_ & 0xFFFFu)) {
          stale_.add();
          continue;
        }
        // High 16 bits: the sender's process incarnation. Lower than the
        // highest we have seen from this src = a pre-crash straggler;
        // higher = the peer was respawned and its links must reset.
        const std::uint32_t inc = dg->epoch >> 16;
        bool stale = false;
        bool respawned = false;
        {
          const MutexLock lock(incarnation_mutex_);
          std::int64_t& seen = peer_incarnation_[dg->msg.src];
          if (seen >= 0 && inc < static_cast<std::uint32_t>(seen)) {
            stale = true;
          } else {
            if (seen >= 0 && inc > static_cast<std::uint32_t>(seen)) respawned = true;
            seen = inc;
          }
        }
        if (stale) {
          stale_.add();
          continue;
        }
        if (respawned) net_->peer_restarted(dg->msg.src);
        if (dg->msg.dst != hosted) {
          // Structurally valid but aimed at an endpoint we are not — a
          // misdirected sender. Reject like any other malformed input.
          malformed_.add();
          continue;
        }
        net_->receive(std::move(dg->msg), dg->attempt);
      }
    }
  }

  Network* net_;
  std::size_t n_nodes_;
  NodeId local_;
  std::uint32_t epoch_;  ///< (incarnation << 16) | ordinal
  // Receiver threads call Network::peer_restarted (fabric locks) only after
  // releasing this, so it sits in the transport bracket with the fabric locks.
  Mutex incarnation_mutex_ ACQUIRED_AFTER(lock_order::fabric_gate)
      ACQUIRED_BEFORE(lock_order::mailbox_gate);
  std::vector<std::int64_t> peer_incarnation_
      GUARDED_BY(incarnation_mutex_);  ///< highest seen per src; -1 = none
  Counter& malformed_;
  Counter& stale_;
  Counter& send_errors_;
  std::vector<int> fds_;          // one per hosted node
  std::vector<bool> owned_;       // close on stop? (inherited fds are not ours)
  std::vector<NodeId> hosted_;    // hosted_[i] listens on fds_[i]
  std::vector<sockaddr_in> addrs_;  // destination endpoint per node
  std::vector<std::thread> receivers_;
  std::atomic<bool> stopping_{false};
};

}  // namespace

std::unique_ptr<Transport> make_udp_transport(const TransportConfig& cfg,
                                              std::size_t n_nodes, Network* net,
                                              StatsRegistry* stats) {
  return std::make_unique<UdpTransport>(cfg, n_nodes, net, stats);
}

}  // namespace dsm
