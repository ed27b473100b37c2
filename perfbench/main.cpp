// dsmbench: one trial of a workload, or one pass of the layer drivers, per
// process. run.py runs many of these and aggregates them.
//
//   dsmbench trial  <workload> <seed> <traced 0|1>
//   dsmbench layers <workload> <mean message bytes>
//
// A trial prints a {"planned_ops": N} line before it starts (so a trial that
// aborts can be charged with its ops) and one JSON result line at the end.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

void JsonLine::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += k;
  body_ += "\": ";
}

JsonLine& JsonLine::num(std::string_view k, double value) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (c != '\n') body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::obj(std::string_view k, const JsonLine& value) {
  key(k);
  body_ += value.text();
  return *this;
}

namespace {

/// The configuration a result was measured under.
JsonLine environment(Workload w, std::uint64_t seed, const TrialResult& r) {
  const dsm::Config cfg = workload_config(w, seed);
  utsname uts{};
  uname(&uts);
  JsonLine env;
  env.str("engine", r.engine)
      .str("transport", dsm::to_string(cfg.transport.kind))
      .str("protocol", dsm::to_string(cfg.protocol))
      .num("nodes", static_cast<double>(cfg.n_nodes))
      .num("app_threads", static_cast<double>(r.app_threads))
      .num("seed", static_cast<double>(seed))
      .num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("kernel", std::string(uts.sysname) + " " + uts.release)
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  return env;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

JsonLine trial_json(Workload w, std::uint64_t seed, bool traced) {
  TrialResult r = run_trial(w, seed, traced);
  const auto& c = r.timed;
  const double local_ratio =
      r.lock_acquires > 0
          ? static_cast<double>(r.local_acquires) / static_cast<double>(r.lock_acquires)
          : 0.0;
  JsonLine out;
  out.num("attempted", static_cast<double>(r.attempted))
      .num("failed", static_cast<double>(r.failed))
      .boolean("engine_ok", r.engine_ok)
      .num("setup_s", r.setup_s)
      .num("makespan_s", r.makespan_s)
      .num("ops", static_cast<double>(r.op_us.size()))
      .num("msgs", static_cast<double>(c.counter("net.msgs")))
      .num("bytes", static_cast<double>(c.counter("net.bytes")))
      .num("retransmits", static_cast<double>(c.counter("net.retransmits")))
      .num("dups", static_cast<double>(c.counter("net.dups_suppressed")))
      .num("gave_up", static_cast<double>(c.counter("net.gave_up")))
      .num("diff_bytes", static_cast<double>(c.counter("lrc.diff_bytes_created") +
                                             c.counter("hlrc.flush_bytes")))
      .num("peak_rss_mb", peak_rss_mb())
      .num("local_acquire_ratio", local_ratio)
      .num("op_p50_us", quantile(r.op_us, 0.50))
      .num("op_p99_us", quantile(r.op_us, 0.99))
      .num("acquire_p50_us", quantile(r.acquire_us, 0.50))
      .num("acquire_p99_us", quantile(r.acquire_us, 0.99))
      .num("release_p50_us", quantile(r.release_us, 0.50))
      .num("barrier_p50_us", quantile(r.barrier_us, 0.50))
      .num("barrier_p99_us", quantile(r.barrier_us, 0.99));
  if (traced) {
    JsonLine spans;
    span_metrics(r, spans);
    out.obj("spans", spans);
  }
  out.obj("config", environment(w, seed, r));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: dsmbench trial <workload> <seed> <traced 0|1>\n"
               "       dsmbench layers <workload> <mean message bytes>\n"
               "workloads: fault-sweep lock-handoff sor\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The benchmark pins engine, transport and thread count per workload; a
  // conformance-suite override in the environment would silently change
  // what is measured.
  for (const char* var : {"TUTORDSM_FAULT_ENGINE", "TUTORDSM_TRANSPORT",
                          "TUTORDSM_APP_THREADS", "TUTORDSM_UFFD_UNAVAILABLE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "dsmbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  if (argc != 5 && argc != 4) return usage();
  const std::string mode = argv[1];
  Workload w{};
  if (!parse_workload(argv[2], &w)) return usage();
  const std::uint64_t arg = std::strtoull(argv[3], nullptr, 10);

  if (mode == "trial" && argc == 5) {
    const bool traced = std::string(argv[4]) == "1";
    std::printf("{\"planned_ops\": %llu}\n", static_cast<unsigned long long>(planned_ops(w)));
    std::fflush(stdout);
    const JsonLine out = trial_json(w, arg, traced);
    std::printf("%s\n", out.text().c_str());
    return 0;
  }
  if (mode == "layers" && argc == 4) {
    JsonLine out;
    layer_metrics(w, static_cast<std::size_t>(std::max<std::uint64_t>(arg, 1)), out);
    std::printf("%s\n", out.text().c_str());
    return 0;
  }
  return usage();
}
