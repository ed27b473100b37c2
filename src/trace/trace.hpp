// Virtual-time span tracer: the structural observability layer behind the
// T2 leg tables and the watchdog's post-mortem dumps. Every fault-path
// entry, protocol transaction leg, message lifecycle step, and sync wait
// opens/closes a span carrying (node, category, name, virtual start/end,
// real start/end, up to two named args). Spans land in per-node bounded
// ring buffers — lock-free in the common case, drop-oldest on overflow with
// a `trace.dropped` counter — and export as Chrome `chrome://tracing` /
// Perfetto JSON (ph=X complete events, pid = node, tid = category).
//
// Overhead contract: tracing is off by default (Config::trace.enabled).
// When off, no Tracer is constructed; every instrumentation site reduces to
// a null-pointer check. When on, recording never takes a global lock and
// never advances virtual time, so traced runs produce bit-identical
// virtual-time results to untraced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dsm {

/// Span taxonomy. One Chrome-trace "thread" (tid) per category, so each
/// node's fault, protocol, sync, and network activity renders on its own
/// track. See DESIGN.md "Observability".
enum class TraceCat : std::uint8_t {
  kFault,  ///< SIGSEGV entry → protocol fault service complete (app thread)
  kProto,  ///< one protocol transaction leg / message handled (service thread)
  kSync,   ///< lock acquire/release and barrier waits (app thread)
  kNet,    ///< message lifecycle: send, transit (send→deliver), retransmit
  kCount_,
};

const char* to_string(TraceCat cat);

/// Tracing knobs, embedded in dsm::Config.
struct TraceConfig {
  /// Master switch. Off = no tracer is allocated and every site is a null
  /// check (~zero overhead).
  bool enabled = false;
  /// Per-node ring capacity in spans, rounded up to a power of two. On
  /// overflow the oldest spans are dropped (accounted in `trace.dropped`).
  std::size_t buffer_spans = 1 << 13;
};

/// Spans per node included in the watchdog's diagnostic dump.
inline constexpr std::size_t kDumpTailSpans = 16;

/// One recorded span. `name`/`key0`/`key1` must be static strings (the
/// tracer stores the pointers, not copies). A zero-width span (vstart ==
/// vend, recorded via Tracer::instant) marks a point event.
struct TraceEvent {
  const char* name = nullptr;
  const char* key0 = nullptr;  ///< nullptr = no arg
  const char* key1 = nullptr;
  std::uint64_t val0 = 0;
  std::uint64_t val1 = 0;
  VirtualTime vstart = 0;   ///< virtual ns
  VirtualTime vend = 0;
  std::uint64_t rstart_ns = 0;  ///< real ns since the tracer's epoch
  std::uint64_t rend_ns = 0;
  NodeId node = 0;
  TraceCat cat = TraceCat::kProto;
};

/// Per-node bounded span recorder + Chrome-trace exporter. One per System.
///
/// Thread safety: record() may be called concurrently from any thread
/// (app, service, network daemon). A slot is claimed with one atomic
/// fetch_add; a per-slot flag serializes the only possible write-write
/// collision (a full ring wrap racing one in-progress write — never seen
/// in practice, bounded spin when it is). Readers (export, dumps, tests)
/// are meant to run at quiescence — after System::run returns — except
/// dump_tail, which tolerates racing writers at the cost of possibly-torn
/// tail spans (acceptable in a crash dump).
class Tracer {
 public:
  Tracer(std::size_t n_nodes, const TraceConfig& cfg, Counter* dropped_counter = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t n_nodes() const { return rings_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Real nanoseconds since this tracer's construction (steady clock).
  std::uint64_t real_now() const;

  /// Appends a fully built span to `ev.node`'s ring. Counts one open and
  /// one close, so direct record()/instant()/complete() calls never unbalance
  /// open_spans(); only an un-destructed TraceScope can.
  void record(const TraceEvent& ev);

  /// Zero-width point event (e.g. a send or a retransmit).
  void instant(NodeId node, TraceCat cat, const char* name, VirtualTime at,
               const char* key0 = nullptr, std::uint64_t val0 = 0,
               const char* key1 = nullptr, std::uint64_t val1 = 0);

  /// A span whose endpoints are already known (e.g. message transit:
  /// send_time → arrival_time). Real timestamps are stamped "now".
  void complete(NodeId node, TraceCat cat, const char* name, VirtualTime vstart,
                VirtualTime vend, const char* key0 = nullptr, std::uint64_t val0 = 0,
                const char* key1 = nullptr, std::uint64_t val1 = 0);

  // --- TraceScope bookkeeping ----------------------------------------------
  void scope_open(NodeId node);
  void scope_close(NodeId node);

  // --- accounting -----------------------------------------------------------
  /// Total spans recorded (including ones since overwritten).
  std::uint64_t recorded() const;
  /// Spans lost to ring overflow, total and per node.
  std::uint64_t dropped() const;
  std::uint64_t dropped(NodeId node) const;
  /// Currently open (entered, not yet closed) spans. 0 after a clean run.
  std::int64_t open_spans() const;
  std::int64_t open_spans(NodeId node) const;

  // --- inspection (quiescent) ----------------------------------------------
  /// Surviving spans for one node, oldest first.
  std::vector<TraceEvent> events(NodeId node) const;
  /// Surviving spans for all nodes (per-node order preserved).
  std::vector<TraceEvent> all_events() const;
  /// Resets every ring and counter. Call only at quiescence.
  void clear();

  /// Chrome-trace / Perfetto JSON: one ph=X event per span, pid = node,
  /// tid = category, ts/dur in virtual microseconds; real timestamps and
  /// args ride in "args". Load via chrome://tracing or ui.perfetto.dev.
  void write_json(std::ostream& os) const;

  /// Human-readable last `per_node` spans per node (watchdog reports).
  void dump_tail(std::ostream& os, std::size_t per_node) const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> busy{0};
    TraceEvent ev;
  };
  struct Ring {
    explicit Ring(std::size_t cap) : slots(new Slot[cap]) {}
    std::atomic<std::uint64_t> head{0};    // total spans ever pushed
    std::atomic<std::uint64_t> opened{0};  // TraceScope opens
    std::atomic<std::uint64_t> closed{0};  // TraceScope closes
    std::unique_ptr<Slot[]> slots;
  };

  std::vector<TraceEvent> snapshot_ring(const Ring& ring, std::size_t max_tail) const;

  std::size_t capacity_;  // power of two
  std::size_t mask_;
  Counter* dropped_counter_;
  realclock::TimePoint epoch_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// A named set of events for merged export — one entry per System when a
/// bench runs several (bench_fault_path: one per protocol). Group `g`,
/// node `n` renders as pid = g * stride + n labeled "label/node n".
struct TraceGroup {
  std::string label;       ///< "" = plain "node N" process names
  std::size_t n_nodes = 0;
  std::vector<TraceEvent> events;
};

/// Chrome-trace / Perfetto JSON for one or more Systems' traces in a single
/// file (ph=X complete events, tid = category, ts/dur in virtual µs).
/// Tracer::write_json is the single-group case.
void write_chrome_trace(std::ostream& os, const std::vector<TraceGroup>& groups,
                        std::uint64_t dropped);

/// RAII span: opens at construction (virtual + real start), records a
/// complete event at destruction. A null `tracer` makes every operation a
/// no-op — instrumentation sites pass the context's tracer pointer
/// unconditionally.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, NodeId node, TraceCat cat, const char* name,
             const LogicalClock* clock, const char* key0 = nullptr,
             std::uint64_t val0 = 0, const char* key1 = nullptr,
             std::uint64_t val1 = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    clock_ = clock;
    ev_.node = node;
    ev_.cat = cat;
    ev_.name = name;
    ev_.key0 = key0;
    ev_.val0 = val0;
    ev_.key1 = key1;
    ev_.val1 = val1;
    ev_.vstart = clock->now();
    ev_.rstart_ns = tracer_->real_now();
    tracer_->scope_open(node);
  }

  ~TraceScope() {
    if (tracer_ == nullptr) return;
    ev_.vend = clock_->now();
    ev_.rend_ns = tracer_->real_now();
    tracer_->scope_close(ev_.node);
    tracer_->record(ev_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_;
  const LogicalClock* clock_ = nullptr;
  TraceEvent ev_{};
};

}  // namespace dsm
