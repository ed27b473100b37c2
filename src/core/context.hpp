// NodeContext: everything one simulated node's protocol and sync machinery
// needs — its identity, its view of shared memory, its page table, the
// fabric, its logical clock, and the run configuration. Header-only so lower
// layers (proto, sync) can use it without a link-time dependency on the
// runtime.
#pragma once

#include <cstddef>
#include <span>

#include "check/check_level.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/fault_engine.hpp"
#include "mem/page_table.hpp"
#include "mem/region.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"

namespace dsm {

class DsmChecker;

/// Which coherence protocol a run uses. See DESIGN.md §System inventory.
enum class ProtocolKind {
  kIvyCentral,    ///< Li-Hudak write-invalidate, central manager (node 0)
  kIvyFixed,      ///< Li-Hudak, fixed distributed manager (page % N)
  kIvyDynamic,    ///< Li-Hudak, dynamic distributed manager (probable owners)
  kErcInvalidate, ///< eager release consistency, invalidate-on-release
  kErcUpdate,     ///< eager release consistency, update-on-release (Munin write-shared)
  kLrc,           ///< lazy release consistency (TreadMarks)
  kEc,            ///< entry consistency (Midway)
  kHlrc,          ///< home-based lazy release consistency (HLRC extension)
  kQrc,           ///< quorum-replicated release consistency (SC-ABD-style replicas)
};

const char* to_string(ProtocolKind kind);

/// How distributed locks are implemented (bench_locks compares these).
enum class LockPolicy {
  kCentralized,   ///< request/grant/release all via the lock's home
  kForwardChain,  ///< home forwards to last requester; grant flows holder→next
};

/// One scheduled node death. `kill_at` is virtual time: the victim's worker
/// checks it at every operation boundary (compute/acquire/release/barrier)
/// and dies at the first boundary past the deadline — crashes land between
/// operations, never mid-protocol-transaction on the app thread.
struct NodeFault {
  NodeId node = kNoNode;
  VirtualTime kill_at = 0;
  bool restart = false;  ///< rejoin the memory fabric after dying
};

/// Crash fault tolerance (off by default). When enabled, page state is kept
/// crash-redundant — by a majority quorum of replicas (kQrc) or by periodic
/// checkpoints to a buddy node (kErcInvalidate) — and the fabric survives the
/// seeded node deaths in `faults`. See DESIGN.md "Fault tolerance".
struct FtConfig {
  bool enabled = false;
  /// Replica-group size for kQrc: each page lives on `replication`
  /// consecutive nodes starting at its home. Tolerates floor((r-1)/2)
  /// crashes per group. 1 = no redundancy (baseline for bench_ft).
  std::size_t replication = 1;
  /// kErcInvalidate checkpoint mode: snapshot a page to its buddy every Nth
  /// version. 0 disables checkpointing.
  std::size_t checkpoint_period = 0;
  /// Seeded death schedule. Node 0 (lock/barrier home under FT) is never a
  /// valid victim.
  std::vector<NodeFault> faults;
};

// Virtual-time cost model (see DESIGN.md "Virtual time").
inline constexpr VirtualTime kFaultNs = 5'000;    ///< trap + kernel + handler entry per fault
inline constexpr VirtualTime kServiceNs = 2'000;  ///< protocol software overhead per message

/// One run's static configuration.
struct Config {
  std::size_t n_nodes = 4;
  std::size_t n_pages = 64;
  std::size_t page_size = 4096;   ///< must be a multiple of the OS page size
  std::size_t n_locks = 64;
  std::size_t n_barriers = 8;
  ProtocolKind protocol = ProtocolKind::kIvyDynamic;
  LockPolicy lock_policy = LockPolicy::kForwardChain;
  LinkModel link{};

  /// Ack/retransmit policy of the reliable transport sublayer (on by
  /// default; disable only to measure its overhead).
  ReliabilityConfig reliability{};
  /// Seeded fault injection (off by default). See DESIGN.md "Reliable
  /// transport & chaos".
  ChaosConfig chaos{};
  /// Wire-level optimisations: message coalescing, piggybacked acks, and
  /// payload compression (all off by default). See DESIGN.md "Wire-level
  /// batching & compression".
  WireConfig wire{};
  /// Which transport backend moves wire attempts (in-process handoff by
  /// default; real UDP sockets for conformance runs and dsmrun multi-process
  /// launches). See DESIGN.md "Transport backends".
  TransportConfig transport{};
  /// Which fault engine traps coherence faults on the app view: mprotect +
  /// SIGSEGV (default, the historical path) or userfaultfd minor+WP with a
  /// poller thread. Overridable per run via TUTORDSM_FAULT_ENGINE; falls
  /// back to kSigsegv with a warning when uffd is requested but the kernel
  /// lacks support. See DESIGN.md "Fault engines".
  FaultEngineKind fault_engine = FaultEngineKind::kSigsegv;
  /// Application threads per node. 1 (the historical model) runs exactly the
  /// pre-mt code paths. N > 1 requires the uffd engine (the SIGSEGV engine
  /// services faults synchronously on the faulting thread with thread-local
  /// state and stays single-thread-only); the runtime clamps to 1 with a
  /// warning when the effective engine is kSigsegv. Capped at kMaxAppThreads.
  /// Overridable per run via TUTORDSM_APP_THREADS. See DESIGN.md
  /// "Threading model".
  std::size_t app_threads = 1;
  /// An app thread blocked in the fault path or a sync operation longer
  /// than this (real milliseconds) triggers a diagnostic dump and a clean
  /// abort instead of an infinite hang. 0 disables the watchdog.
  std::uint32_t watchdog_ms = 30'000;
  /// Virtual-time span tracing (off by default; ~zero overhead when off).
  /// See DESIGN.md "Observability" and Tracer::write_json.
  TraceConfig trace{};
  /// In-fabric race detection + protocol invariant checking (dsmcheck).
  /// kOff constructs no checker at all; see DESIGN.md "dsmcheck".
  CheckLevel check_level = CheckLevel::kOff;
  /// Crash fault tolerance: replication / checkpointing and the seeded node
  /// death schedule (off by default). See DESIGN.md "Fault tolerance".
  FtConfig ft{};

  /// Virtual-time cost of one unit of application compute (see DESIGN.md
  /// "Virtual time").
  VirtualTime ns_per_op = 10;

  /// Demand-fetch protocols (IVY family, ERC, HLRC): on a read miss, also
  /// request the next N sequential pages asynchronously. 0 = pure demand
  /// fetch. The knob behind the classic demand vs prefetch vs eager
  /// comparison (bench_prefetch).
  std::size_t prefetch_pages = 0;

  /// LRC: every Nth barrier is a *settle-up*: all diffs are exchanged and
  /// protocol metadata (intervals, notices, diff caches) garbage-collected.
  /// Other barriers move write notices only — the lazy part of LRC.
  /// 1 = settle every barrier (eager-barrier ablation).
  std::size_t lrc_gc_period = 16;

  std::uint64_t seed = 42;         ///< workload generator seed

  std::size_t heap_bytes() const { return n_pages * page_size; }
};

/// Per-node wiring handed to protocols and sync agents.
struct NodeContext {
  NodeId id = kNoNode;
  std::size_t n_nodes = 0;
  const Config* cfg = nullptr;
  Network* net = nullptr;
  ViewRegion* view = nullptr;
  PageTable* table = nullptr;
  LogicalClock* clock = nullptr;
  StatsRegistry* stats = nullptr;
  Tracer* trace = nullptr;      ///< null when tracing is off
  DsmChecker* check = nullptr;  ///< null when check_level is kOff
  FaultEngine* fault = nullptr; ///< the engine trapping this node's app view

  /// Static distribution of pages to their home nodes.
  NodeId home_of(PageId page) const {
    return static_cast<NodeId>(page % n_nodes);
  }
  /// Static distribution of locks to their home (manager) nodes. Under FT
  /// every lock is homed at node 0 — the one node the fault schedule may
  /// never kill — so lock *state* never needs re-homing and only the dead
  /// holder's token must be regenerated (SyncAgent::on_peer_down).
  NodeId lock_home(LockId lock) const {
    if (cfg != nullptr && cfg->ft.enabled) return 0;
    return static_cast<NodeId>(lock % n_nodes);
  }
  /// Barriers are all managed by node 0 (a 1992-style central barrier).
  NodeId barrier_home(BarrierId) const { return 0; }

  /// Builds a message stamped with this node's current virtual time.
  Message make(MsgType type, NodeId dst, std::vector<std::byte> payload = {}) const {
    Message msg;
    msg.type = type;
    msg.src = id;
    msg.dst = dst;
    msg.send_time = clock->now();
    msg.payload = std::move(payload);
    return msg;
  }

  void send(MsgType type, NodeId dst, std::vector<std::byte> payload = {}) const {
    net->send(make(type, dst, std::move(payload)));
  }
};

}  // namespace dsm
