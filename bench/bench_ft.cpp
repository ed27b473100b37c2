// F — the fault-tolerance experiment. Part (a): what does quorum
// replication cost when nothing fails? (Throughput of a lock-protected
// counter vs replication factor 1..3, on both transports.) Part (b): with a
// seeded kill-and-restart mid-run, every acknowledged write survives — the
// dsmcheck checker runs at assert level and would abort on a lost update —
// and the recovery-time histogram shows what a restarted replica pays to
// resync. Part (c): the ERC buddy-checkpoint cost sweep — snapshot traffic
// vs checkpoint period, the knob behind the bounded-loss guarantee.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/clock.hpp"
#include "harness.hpp"

namespace {

using namespace dsm;

struct FtRun {
  VirtualTime virtual_ns = 0;
  double wall_ms = 0;
  std::uint64_t total = 0;
  StatsSnapshot snap;
  std::vector<TraceEvent> events;  // recorded spans (traced runs only)
  std::uint64_t trace_dropped = 0;
};

Config ft_config(TransportKind transport, std::size_t repl) {
  auto cfg = bench::base_config(4, 16, ProtocolKind::kQrc);
  cfg.transport.kind = transport;
  cfg.ft.enabled = true;
  cfg.ft.replication = repl;
  cfg.check_level = CheckLevel::kAssert;
  return cfg;
}

// Each worker runs `rounds` lock-protected increments of one shared counter.
// When `kill_after` >= 0, `victim` jumps its virtual clock past the seeded
// kill_at deadline right after that round's release — its increments up to
// and including that round were quorum-acknowledged and must survive.
FtRun run_counter(Config cfg, int rounds, NodeId victim, int kill_after) {
  const std::size_t nodes = cfg.n_nodes;
  const bool traced = cfg.trace.enabled;
  if (kill_after >= 0) {
    cfg.ft.faults = {{victim, /*kill_at=*/1'000'000'000, /*restart=*/true}};
  }
  System sys(std::move(cfg));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  FtRun r;
  const auto t0 = dsm::realclock::now();
  sys.run([&](Worker& w) {
    for (int round = 0; round < rounds; ++round) {
      w.acquire(0);
      *w.get(cell) += 1;
      w.release(0);
      if (kill_after >= 0 && w.id() == victim && round == kill_after) {
        // 1e7 ops at the 100 ns/op cost model = 1 s of virtual compute,
        // which jumps this worker's clock past the seeded kill_at deadline.
        w.compute(10'000'000);  // dies at this op boundary, then restarts
      }
    }
    w.barrier(0);
    if (w.id() == 0) {
      volatile const std::uint64_t* p = w.get(cell);
      r.total = *p;
    }
    w.barrier(1);
  });
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  dsm::realclock::now() - t0)
                  .count();
  r.virtual_ns = sys.virtual_time();
  r.snap = sys.stats();
  if (traced) {
    r.events = sys.tracer()->all_events();
    r.trace_dropped = sys.tracer()->dropped();
  }
  const std::uint64_t expected =
      kill_after < 0 ? static_cast<std::uint64_t>(rounds) * nodes
                     : static_cast<std::uint64_t>(rounds) * (nodes - 1) +
                           static_cast<std::uint64_t>(kill_after) + 1;
  if (r.total != expected) {
    std::fprintf(stderr, "bench_ft: counter %llu != expected %llu (acked write lost)\n",
                 static_cast<unsigned long long>(r.total),
                 static_cast<unsigned long long>(expected));
    std::abort();
  }
  return r;
}

const char* transport_name(TransportKind k) {
  return k == TransportKind::kUdp ? "udp" : "inproc";
}

std::string fmt_hist(const StatsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return "-";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%llu/%llu/%llu",
                static_cast<unsigned long long>(it->second.p50),
                static_cast<unsigned long long>(it->second.p99),
                static_cast<unsigned long long>(it->second.max));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::under_dsmrun()) {
    // Faults here are seeded in virtual time against in-process workers;
    // the real-SIGKILL path is dsmrun --on-crash respawn (see ft_demo).
    std::fprintf(stderr, "bench_ft: runs standalone, not under dsmrun\n");
    return 0;
  }
  const std::string json_path = bench::json_arg(argc, argv);
  // --trace=FILE records the *fault-free* replication runs (Fa) and exports
  // merged Chrome-trace JSON; dsmcheck_offline replays it to prove the
  // quorum fan-out is lifecycle-clean (no lost/duplicated deliveries,
  // contiguous per-link seqs). Kill trials are untraced by design: a dead
  // node's in-flight messages are legitimately never delivered, which the
  // offline lifecycle check would (correctly, for a fault-free run) flag.
  const std::string trace_path = bench::trace_arg(argc, argv);
  std::vector<TraceGroup> groups;
  std::uint64_t trace_dropped = 0;
  constexpr int kRounds = 32;
  constexpr std::array kTransports = {TransportKind::kInproc, TransportKind::kUdp};

  bench::Table a(
      "Fa — quorum replication cost at zero faults (4 nodes, locked counter x32)",
      {"transport", "replication", "virtual (ms)", "wall (ms)", "incr/s (virtual)",
       "msgs", "flushes"});
  a.note("write-all-live: every release syncs the page to all live group");
  a.note("members, so throughput falls roughly linearly with the factor.");
  for (const auto transport : kTransports) {
    for (const std::size_t repl : {1U, 2U, 3U}) {
      auto cfg = ft_config(transport, repl);
      const std::size_t nodes = cfg.n_nodes;
      if (!trace_path.empty()) {
        cfg.trace.enabled = true;
        cfg.trace.buffer_spans = 1 << 16;  // keep every span for the replay
      }
      const auto r = run_counter(std::move(cfg), kRounds, 0, -1);
      if (!trace_path.empty()) {
        groups.push_back(TraceGroup{std::string(transport_name(transport)) +
                                        "@r" + std::to_string(repl),
                                    nodes, r.events});
        trace_dropped += r.trace_dropped;
      }
      const double incr_per_s =
          static_cast<double>(r.total) / (static_cast<double>(r.virtual_ns) / 1e9);
      a.add_row({transport_name(transport), std::to_string(repl),
                 bench::fmt_ms(r.virtual_ns), bench::fmt_double(r.wall_ms, 1),
                 bench::fmt_double(incr_per_s, 0),
                 bench::fmt_count(r.snap.counter("net.msgs")),
                 bench::fmt_count(r.snap.counter("proto.flushes"))});
    }
  }
  a.print();

  bench::Table b(
      "Fb — seeded kill + restart mid-run (4 nodes, replication 3, assert-level checks)",
      {"transport", "victim", "kill after", "virtual (ms)", "takeovers",
       "recoveries", "recovery us p50/p99/max"});
  b.note("each trial kills one rank after a known number of acknowledged");
  b.note("increments and restarts it; the run aborts if any acked write is");
  b.note("lost. recovery us is wall-clock resync time at the restarted node.");
  for (const auto transport : kTransports) {
    for (const NodeId victim : {NodeId{1}, NodeId{2}, NodeId{3}}) {
      for (const int kill_after : {0, kRounds / 2}) {
        const auto r =
            run_counter(ft_config(transport, 3), kRounds, victim, kill_after);
        b.add_row({transport_name(transport), std::to_string(victim),
                   std::to_string(kill_after + 1) + " incr",
                   bench::fmt_ms(r.virtual_ns),
                   bench::fmt_count(r.snap.counter("qrc.takeovers")),
                   bench::fmt_count(r.snap.counter("qrc.recoveries")),
                   fmt_hist(r.snap, "ft.recovery_us")});
      }
    }
  }
  b.print();

  bench::Table c(
      "Fc — ERC buddy-checkpoint cost vs period (2 nodes, 32 home versions)",
      {"period", "virtual (ms)", "ckpt stores", "ckpt bytes", "max versions at risk"});
  c.note("every Nth home version of a page is snapshotted to the buddy; a");
  c.note("crash between snapshots loses at most period-1 versions per page.");
  for (const std::size_t period : {1U, 2U, 4U, 8U}) {
    auto cfg = bench::base_config(2, 8, ProtocolKind::kErcInvalidate);
    cfg.ft.enabled = true;
    cfg.ft.checkpoint_period = period;
    cfg.check_level = CheckLevel::kAssert;
    System sys(std::move(cfg));
    const auto cell = sys.alloc_page_aligned<std::uint64_t>();
    sys.run([&](Worker& w) {
      if (w.id() == 0) {
        for (int v = 0; v < 32; ++v) {
          w.acquire(0);
          *w.get(cell) += 1;
          w.release(0);  // each release publishes one new home version
        }
      }
      w.barrier(0);
    });
    const auto snap = sys.stats();
    c.add_row({std::to_string(period), bench::fmt_ms(sys.virtual_time()),
               bench::fmt_count(snap.counter("ft.ckpt_stores")),
               bench::fmt_count(snap.counter("ft.ckpt_bytes")),
               std::to_string(period - 1)});
  }
  c.print();

  bench::write_json(json_path, {a, b, c});
  bench::write_trace(trace_path, groups, trace_dropped);
  return 0;
}
