// The three closed-loop workloads. Each trial constructs one System, warms
// it up with one untimed run, resets the counters, runs the timed phase as a
// second run, and verifies the result in a third, untimed run (or inline).
// Every op is timed in the body through realclock; the timed phase's wall
// time is stamped by node 0 between a start barrier and an end barrier.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>

#include "apps/sor.hpp"
#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using dsm::Worker;

// fault-sweep: node 1 faults on every page of a 4096-page array, twice per
// pass (a read miss, then a write upgrade).
constexpr std::size_t kSweepPages = 4096;
constexpr int kSweepPasses = 1;

// lock-handoff: round-robin lock turns with a barrier after every turn.
constexpr int kHandoffWarmRounds = 50;
constexpr int kHandoffRounds = 600;
constexpr dsm::LockId kHandoffLock = 0;

// sor: 512x512 interior grid, 4 nodes, one op per node per colour phase.
constexpr std::size_t kSorDim = 512;
constexpr int kSorWarmIters = 4;
constexpr int kSorIters = 128;

// Lock probe for the workloads that take no lock: turns per node.
constexpr int kProbeRounds = 64;
constexpr dsm::LockId kProbeLock = 1;

double us_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e3;
}

/// A nonzero word that depends on the seed, the pass and the page.
std::uint64_t stamp(std::uint64_t seed, std::uint64_t pass, std::uint64_t page,
                    std::uint64_t who) {
  dsm::SplitMix64 rng(seed ^ (pass << 40) ^ (page << 8) ^ who);
  return rng.next() | 1;
}

/// Times one barrier into `out`.
void timed_barrier(Worker& w, dsm::BarrierId b, std::vector<double>& out) {
  const std::uint64_t t0 = now_ns();
  w.barrier(b);
  out.push_back(us_between(t0, now_ns()));
}

/// One trial's System. Set-up runs from construction to the end of the
/// warm-up run; warm-up spans and counters are dropped before the timed run.
struct Trial {
  Trial(const dsm::Config& cfg, TrialResult& r)
      : result(r), t_ctor(now_ns()), owned(make_system(cfg)), sys(*owned) {
    r.engine = dsm::to_string(sys.fault_engine().kind());
    r.app_threads = sys.app_threads();
    r.engine_ok = sys.fault_engine().kind() == cfg.fault_engine;
  }

  void warm_up(const std::function<void(Worker&)>& body) {
    sys.run(body);
    result.setup_s = static_cast<double>(now_ns() - t_ctor) / 1e9;
    if (sys.tracer() != nullptr) sys.tracer()->clear();
    sys.reset_stats();
  }

  /// Runs the timed body; node 0 stamps the phase between two barriers.
  void timed(const std::function<void(Worker&)>& body) {
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    sys.run([&](Worker& w) {
      w.barrier(0);
      if (w.id() == 0) t0 = now_ns();
      body(w);
      w.barrier(0);
      if (w.id() == 0) t1 = now_ns();
    });
    result.makespan_s = static_cast<double>(t1 - t0) / 1e9;
    result.timed = sys.stats();
    if (sys.tracer() != nullptr) {
      result.spans = sys.tracer()->all_events();
      result.trace_dropped = sys.tracer()->dropped();
    }
  }

  /// Round-robin handoffs of a lock no workload data depends on: the
  /// acquire/release samples for workloads whose body takes no lock.
  void lock_probe() {
    sys.reset_stats();
    std::vector<std::vector<double>> acq(sys.config().n_nodes);
    std::vector<std::vector<double>> rel(sys.config().n_nodes);
    sys.run([&](Worker& w) {
      for (int r = 0; r < kProbeRounds; ++r) {
        for (dsm::NodeId turn = 0; turn < w.n_nodes(); ++turn) {
          if (turn == w.id()) {
            const std::uint64_t a = now_ns();
            w.acquire(kProbeLock);
            const std::uint64_t b = now_ns();
            w.release(kProbeLock);
            acq[w.id()].push_back(us_between(a, b));
            rel[w.id()].push_back(us_between(b, now_ns()));
          }
          w.barrier(1);
        }
      }
    });
    for (std::size_t n = 0; n < acq.size(); ++n) {
      result.acquire_us.insert(result.acquire_us.end(), acq[n].begin(), acq[n].end());
      result.release_us.insert(result.release_us.end(), rel[n].begin(), rel[n].end());
    }
    const auto snap = sys.stats();
    result.local_acquires = snap.counter("sync.local_acquires");
    result.lock_acquires = snap.counter("sync.lock_acquires");
  }

  TrialResult& result;
  std::uint64_t t_ctor;
  std::unique_ptr<dsm::System> owned;
  dsm::System& sys;
};

// --- fault-sweep --------------------------------------------------------------

TrialResult fault_sweep(const dsm::Config& cfg, bool traced) {
  TrialResult r;
  Trial trial(cfg, r);
  dsm::System& sys = trial.sys;
  const std::size_t words = cfg.page_size / sizeof(std::uint64_t);
  const auto array = sys.alloc_page_aligned<std::uint64_t>(kSweepPages * words);

  // The seed permutes the order in which node 1 visits the pages.
  std::vector<std::size_t> order(kSweepPages);
  std::iota(order.begin(), order.end(), std::size_t{0});
  dsm::SplitMix64 rng(cfg.seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.next_below(i + 1))]);
  }
  const std::uint64_t seed = cfg.seed;

  // Word 0 of each page is node 0's, word 1 node 1's. Pass k: node 1 reads
  // and checks node 0's stamp k, then writes its own stamp k; node 0 then
  // writes stamp k+1 (one write fault that fetches the page) and checks
  // node 1's stamp k.
  std::uint64_t failed = 0;  // written by one node at a time, between barriers
  std::vector<std::vector<double>> bar(cfg.n_nodes);
  const auto pass = [&](Worker& w, std::uint64_t k, std::vector<double>* op_us) {
    std::uint64_t* base = w.get(array);
    if (w.id() == 1) {
      for (const std::size_t page : order) {
        const volatile std::uint64_t* word = base + page * words;
        const std::uint64_t t0 = now_ns();
        const std::uint64_t seen = *word;
        const std::uint64_t t1 = now_ns();
        if (op_us != nullptr) op_us->push_back(us_between(t0, t1));
        if (seen != stamp(seed, k, page, 0)) ++failed;
      }
      for (const std::size_t page : order) {
        volatile std::uint64_t* word = base + page * words + 1;
        const std::uint64_t t0 = now_ns();
        *word = stamp(seed, k, page, 1);
        const std::uint64_t t1 = now_ns();
        if (op_us != nullptr) op_us->push_back(us_between(t0, t1));
      }
    }
    timed_barrier(w, 0, bar[w.id()]);
    if (w.id() == 0) {
      for (std::size_t page = 0; page < kSweepPages; ++page) {
        volatile std::uint64_t* word = base + page * words;
        word[0] = stamp(seed, k + 1, page, 0);
        if (word[1] != stamp(seed, k, page, 1)) ++failed;
      }
    }
  };

  trial.warm_up([&](Worker& w) {
    if (w.id() == 0) {
      std::uint64_t* base = w.get(array);
      for (std::size_t page = 0; page < kSweepPages; ++page) {
        base[page * words] = stamp(seed, 0, page, 0);
      }
    }
    w.barrier(0);
    pass(w, 0, nullptr);
  });
  const std::uint64_t warm_failed = failed;
  for (auto& b : bar) b.clear();

  r.op_us.reserve(2 * kSweepPages * kSweepPasses);
  trial.timed([&](Worker& w) {
    for (int k = 1; k <= kSweepPasses; ++k) {
      pass(w, static_cast<std::uint64_t>(k), &r.op_us);
      timed_barrier(w, 0, bar[w.id()]);
    }
  });
  r.attempted = 2 * kSweepPages * kSweepPasses;
  r.failed = warm_failed > 0 ? r.attempted : std::min(failed, r.attempted);
  if (failed > 0) {
    std::fprintf(stderr, "fault-sweep: %llu stale words (%llu in warm-up)\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(warm_failed));
  }
  for (const auto& b : bar) r.barrier_us.insert(r.barrier_us.end(), b.begin(), b.end());
  if (traced) trial.lock_probe();
  return r;
}

// --- lock-handoff -------------------------------------------------------------

TrialResult lock_handoff(const dsm::Config& cfg) {
  TrialResult r;
  Trial trial(cfg, r);
  dsm::System& sys = trial.sys;
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  const std::uint64_t inc = 1 + cfg.seed % 7;  // the seed picks the increment
  const std::size_t n = cfg.n_nodes;

  std::vector<std::vector<double>> op(n), acq(n), rel(n), bar(n);
  const auto rounds = [&](Worker& w, int count, bool timed) {
    std::uint64_t* c = w.get(cell);
    const dsm::NodeId me = w.id();
    for (int round = 0; round < count; ++round) {
      for (dsm::NodeId turn = 0; turn < n; ++turn) {
        if (turn == me) {
          const std::uint64_t t0 = now_ns();
          w.acquire(kHandoffLock);
          const std::uint64_t t1 = now_ns();
          *c += inc;
          const std::uint64_t t2 = now_ns();
          w.release(kHandoffLock);
          const std::uint64_t t3 = now_ns();
          if (timed) {
            op[me].push_back(us_between(t0, t3));
            acq[me].push_back(us_between(t0, t1));
            rel[me].push_back(us_between(t2, t3));
          }
        }
        if (timed) {
          timed_barrier(w, 0, bar[me]);
        } else {
          w.barrier(0);
        }
      }
    }
  };

  trial.warm_up([&](Worker& w) { rounds(w, kHandoffWarmRounds, false); });
  trial.timed([&](Worker& w) { rounds(w, kHandoffRounds, true); });
  r.local_acquires = r.timed.counter("sync.local_acquires");
  r.lock_acquires = r.timed.counter("sync.lock_acquires");

  std::uint64_t final_count = 0;
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      w.acquire(kHandoffLock);
      final_count = *w.get(cell);
      w.release(kHandoffLock);
    }
    w.barrier(0);
  });
  for (std::size_t i = 0; i < n; ++i) {
    r.op_us.insert(r.op_us.end(), op[i].begin(), op[i].end());
    r.acquire_us.insert(r.acquire_us.end(), acq[i].begin(), acq[i].end());
    r.release_us.insert(r.release_us.end(), rel[i].begin(), rel[i].end());
    r.barrier_us.insert(r.barrier_us.end(), bar[i].begin(), bar[i].end());
  }
  r.attempted = static_cast<std::uint64_t>(kHandoffRounds) * n;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kHandoffWarmRounds + kHandoffRounds) * n * inc;
  // Each lost (or extra) increment is one failed turn.
  const std::uint64_t off =
      final_count > expected ? final_count - expected : expected - final_count;
  r.failed = std::min(r.attempted, (off + inc - 1) / inc);
  if (off > 0) {
    std::fprintf(stderr, "lock-handoff: final counter %llu, expected %llu\n",
                 static_cast<unsigned long long>(final_count),
                 static_cast<unsigned long long>(expected));
  }
  return r;
}

// --- sor ------------------------------------------------------------------------

struct Rows {
  std::size_t lo, hi;  // interior rows [lo, hi), 1-based, as in apps::run_sor
};

Rows rows_of(std::size_t rows, std::size_t n_nodes, std::size_t node) {
  const std::size_t base = rows / n_nodes;
  const std::size_t extra = rows % n_nodes;
  const std::size_t lo = 1 + node * base + std::min(node, extra);
  return {lo, lo + base + (node < extra ? 1 : 0)};
}

TrialResult sor(const dsm::Config& cfg, bool traced) {
  TrialResult r;
  Trial trial(cfg, r);
  dsm::System& sys = trial.sys;

  dsm::apps::SorParams params;
  params.rows = kSorDim;
  params.cols = kSorDim;
  params.iterations = kSorWarmIters + kSorIters;
  params.top_temperature = 50.0 + static_cast<double>(cfg.seed % 101);  // seeded
  const std::size_t width = params.cols + 2;
  const std::size_t height = params.rows + 2;
  const auto grid = sys.alloc_page_aligned<double>(width * height);
  const std::size_t n = cfg.n_nodes;

  // The red-black sweep of apps::run_sor, one colour phase per call.
  const auto half_sweep = [&](Worker& w, int color) {
    double* g = w.get(grid);
    const auto [lo, hi] = rows_of(params.rows, n, w.id());
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 1; j <= params.cols; ++j) {
        if ((i + j) % 2 != static_cast<std::size_t>(color)) continue;
        g[i * width + j] = 0.25 * (g[(i - 1) * width + j] + g[(i + 1) * width + j] +
                                   g[i * width + j - 1] + g[i * width + j + 1]);
      }
    }
  };

  std::vector<std::vector<double>> op(n), bar(n);
  trial.warm_up([&](Worker& w) {
    double* g = w.get(grid);
    const auto [lo, hi] = rows_of(params.rows, n, w.id());
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < width; ++j) g[i * width + j] = 0.0;
    }
    if (w.id() == 0) {
      for (std::size_t j = 0; j < width; ++j) g[j] = params.top_temperature;
    }
    if (w.id() == n - 1) {
      for (std::size_t j = 0; j < width; ++j) g[(height - 1) * width + j] = 0.0;
    }
    w.barrier(0);
    for (int iter = 0; iter < kSorWarmIters; ++iter) {
      for (int color = 0; color < 2; ++color) {
        half_sweep(w, color);
        w.barrier(0);
      }
    }
  });
  trial.timed([&](Worker& w) {
    const dsm::NodeId me = w.id();
    std::uint64_t last = now_ns();
    for (int iter = 0; iter < kSorIters; ++iter) {
      for (int color = 0; color < 2; ++color) {
        half_sweep(w, color);
        const std::uint64_t t_bar = now_ns();
        w.barrier(0);
        const std::uint64_t t = now_ns();
        bar[me].push_back(us_between(t_bar, t));
        op[me].push_back(us_between(last, t));
        last = t;
      }
    }
  });

  double checksum = 0.0;
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      const double* g = w.get(grid);
      for (std::size_t i = 1; i <= params.rows; ++i) {
        for (std::size_t j = 1; j <= params.cols; ++j) checksum += g[i * width + j];
      }
    }
    w.barrier(0);
  });
  for (std::size_t i = 0; i < n; ++i) {
    r.op_us.insert(r.op_us.end(), op[i].begin(), op[i].end());
    r.barrier_us.insert(r.barrier_us.end(), bar[i].begin(), bar[i].end());
  }
  r.attempted = static_cast<std::uint64_t>(kSorIters) * 2 * n;
  const double reference = dsm::apps::sor_reference_checksum(params);
  const bool match = std::abs(checksum - reference) <= 1e-6 * std::abs(reference);
  // A wrong checksum cannot be pinned on one half-sweep, and a uffd run that
  // fell back to sigsegv did not measure the engine this workload is for.
  r.failed = match && r.engine_ok ? 0 : r.attempted;
  if (r.failed > 0) {
    std::fprintf(stderr, "sor: checksum %.17g, reference %.17g, engine %s\n", checksum,
                 reference, r.engine.c_str());
  }
  if (traced) trial.lock_probe();
  return r;
}

}  // namespace

std::unique_ptr<dsm::System> make_system(const dsm::Config& cfg) {
  for (;;) {
    auto sys = std::make_unique<dsm::System>(cfg);
    const std::vector<std::string> ends = sys->network().transport().endpoints();
    if (std::set<std::string>(ends.begin(), ends.end()).size() == ends.size()) return sys;
    std::fprintf(stderr, "[perfbench] two nodes share one UDP port; rebuilding the System\n");
  }
}

void sor_boundary_page(std::vector<std::byte>& before, std::vector<std::byte>& after) {
  constexpr std::size_t kWidth = kSorDim + 2;
  constexpr std::size_t kPage = 4096;
  std::vector<double> g(kWidth * kWidth, 0.0);
  for (std::size_t j = 0; j < kWidth; ++j) g[j] = 100.0;
  const auto half_sweep = [&](std::size_t color) {
    for (std::size_t i = 1; i <= kSorDim; ++i) {
      for (std::size_t j = 1; j <= kSorDim; ++j) {
        if ((i + j) % 2 != color) continue;
        g[i * kWidth + j] = 0.25 * (g[(i - 1) * kWidth + j] + g[(i + 1) * kWidth + j] +
                                    g[i * kWidth + j - 1] + g[i * kWidth + j + 1]);
      }
    }
  };
  for (int iter = 0; iter < kSorWarmIters + kSorIters; ++iter) {
    half_sweep(0);
    half_sweep(1);
  }
  const std::size_t row = rows_of(kSorDim, 4, 1).lo;
  const std::size_t first = row * kWidth * sizeof(double) / kPage * kPage;
  const auto page = [&] {
    const auto* bytes = reinterpret_cast<const std::byte*>(g.data());
    return std::vector<std::byte>(bytes + first, bytes + first + kPage);
  };
  before = page();
  half_sweep(0);
  after = page();
}

bool parse_workload(std::string_view name, Workload* out) {
  for (const Workload w : {Workload::kFaultSweep, Workload::kLockHandoff, Workload::kSor}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kFaultSweep: return "fault-sweep";
    case Workload::kLockHandoff: return "lock-handoff";
    case Workload::kSor: return "sor";
  }
  return "?";
}

dsm::Config workload_config(Workload w, std::uint64_t seed) {
  dsm::Config cfg;
  cfg.seed = seed;
  cfg.app_threads = 1;
  cfg.watchdog_ms = 20'000;
  cfg.check_level = dsm::CheckLevel::kOff;
  cfg.n_barriers = 2;
  cfg.n_locks = 2;
  switch (w) {
    case Workload::kFaultSweep:
      cfg.n_nodes = 2;
      cfg.n_pages = kSweepPages;
      cfg.protocol = dsm::ProtocolKind::kIvyDynamic;
      cfg.fault_engine = dsm::FaultEngineKind::kSigsegv;
      cfg.transport.kind = dsm::TransportKind::kInproc;
      cfg.trace.buffer_spans = std::size_t{1} << 18;
      break;
    case Workload::kLockHandoff:
      cfg.n_nodes = 2;
      cfg.n_pages = 4;
      cfg.protocol = dsm::ProtocolKind::kHlrc;
      cfg.fault_engine = dsm::FaultEngineKind::kSigsegv;
      cfg.transport.kind = dsm::TransportKind::kUdp;
      cfg.trace.buffer_spans = std::size_t{1} << 16;
      break;
    case Workload::kSor: {
      cfg.n_nodes = 4;
      const std::size_t bytes = (kSorDim + 2) * (kSorDim + 2) * sizeof(double);
      cfg.n_pages = (bytes + cfg.page_size - 1) / cfg.page_size;
      cfg.protocol = dsm::ProtocolKind::kLrc;
      cfg.fault_engine = dsm::FaultEngineKind::kUffd;
      cfg.transport.kind = dsm::TransportKind::kInproc;
      cfg.trace.buffer_spans = std::size_t{1} << 19;
      break;
    }
  }
  return cfg;
}

std::uint64_t planned_ops(Workload w) {
  switch (w) {
    case Workload::kFaultSweep: return 2 * kSweepPages * kSweepPasses;
    case Workload::kLockHandoff: return static_cast<std::uint64_t>(kHandoffRounds) * 2;
    case Workload::kSor: return static_cast<std::uint64_t>(kSorIters) * 2 * 4;
  }
  return 1;
}

TrialResult run_trial(Workload w, std::uint64_t seed, bool traced) {
  dsm::Config cfg = workload_config(w, seed);
  cfg.trace.enabled = traced;
  switch (w) {
    case Workload::kFaultSweep: return fault_sweep(cfg, traced);
    case Workload::kLockHandoff: return lock_handoff(cfg);
    case Workload::kSor: return sor(cfg, traced);
  }
  return {};
}

}  // namespace perfbench
