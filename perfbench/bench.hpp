// Shared pieces of the wall-clock benchmark: timing through dsm::realclock,
// sample summaries, a flat JSON object writer, and the per-workload trial
// result that run.py aggregates across child processes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dsm.hpp"

namespace perfbench {

/// Monotonic nanoseconds; the only wall-clock read in the benchmark.
inline std::uint64_t now_ns() { return dsm::realclock::now_ns(); }

/// Nearest-rank quantile of `samples` (q in [0, 1]); sorts in place.
double quantile(std::vector<double>& samples, double q);
double median(std::vector<double> samples);

/// One flat JSON object: string keys mapping to numbers or strings, written
/// on one line in insertion order.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double value);
  JsonLine& str(std::string_view key, std::string_view value);
  JsonLine& boolean(std::string_view key, bool value);
  /// Nests another object under `key`.
  JsonLine& obj(std::string_view key, const JsonLine& value);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// The three workloads of the benchmark (see NOTES.md for why each).
enum class Workload { kFaultSweep, kLockHandoff, kSor };

bool parse_workload(std::string_view name, Workload* out);
const char* to_string(Workload w);

/// The pinned configuration of each workload. Every knob the benchmark
/// depends on is set here, never inherited.
dsm::Config workload_config(Workload w, std::uint64_t seed);

/// Constructs `cfg`'s System, rebuilding it while two of its UDP endpoints
/// share a port. The UDP transport binds every node to an ephemeral port
/// with SO_REUSEADDR, so the kernel may give two live sockets one port; the
/// nodes then swallow each other's datagrams and the run hangs until the
/// watchdog aborts it (NOTES.md, "Findings"). Inproc configs build once.
std::unique_ptr<dsm::System> make_system(const dsm::Config& cfg);

/// Ops the timed phase performs; printed before the trial runs so that a
/// trial that aborts can be charged with all of them as failed.
std::uint64_t planned_ops(Workload w);

/// Body-side samples and counters of one trial.
struct TrialResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  double makespan_s = 0;
  std::vector<double> op_us;  ///< one latency per op
  dsm::StatsSnapshot timed;   ///< counters over the timed phase only
  std::string engine;         ///< effective fault engine, after any fallback
  std::size_t app_threads = 0;
  bool engine_ok = true;      ///< false when uffd fell back to sigsegv
  // Body-timed sync calls (µs) and the lock counters of the phase that took
  // the locks. Workloads that take no lock fill these from a short handoff
  // probe after the timed phase.
  std::vector<double> acquire_us;
  std::vector<double> release_us;
  std::vector<double> barrier_us;
  std::uint64_t local_acquires = 0;
  std::uint64_t lock_acquires = 0;
  // Traced trials only.
  std::vector<dsm::TraceEvent> spans;
  std::uint64_t trace_dropped = 0;
};

/// A 4 KiB page of the sor grid holding the first row of node 1's band,
/// before and after one colour phase late in the run: the diff shape sor's
/// boundary pages produce.
void sor_boundary_page(std::vector<std::byte>& before, std::vector<std::byte>& after);

/// Runs one trial of `w`: construct, warm up, run the timed phase, verify.
TrialResult run_trial(Workload w, std::uint64_t seed, bool traced);

/// Per-layer metrics derived from a traced trial's spans.
void span_metrics(const TrialResult& r, JsonLine& out);

/// Standalone layer drivers (traps, codecs, transports, mailbox, stats).
/// `msg_bytes` is the workload's mean message size on the wire.
void layer_metrics(Workload w, std::size_t msg_bytes, JsonLine& out);

}  // namespace perfbench
