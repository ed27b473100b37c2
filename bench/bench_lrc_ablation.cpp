// A1 — ablation: how often should LRC settle up? Config::lrc_gc_period
// trades lazy-round cheapness against diff accumulation (faults between
// settles fetch ever-longer diff chains) and settle cost. period=1 is the
// eager-barrier strawman; large periods are maximally lazy.
//
// Exits non-zero on a bad checksum. `--check` also fails unless settling at
// every barrier (period 1) costs more virtual time and more wire bytes than
// never settling (period 1000): the A1 claim.
#include <cmath>
#include <cstring>
#include <iostream>

#include "apps/sor.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace dsm;

  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  apps::SorParams params;
  params.rows = 128;
  params.cols = 128;
  params.iterations = 8;  // 16 half-sweep barriers: periods divide evenly

  bench::Table table("A1 — LRC settle-up period on SOR 128x128, 8 nodes",
                     {"gc period", "virt ms", "msgs", "KiB wire", "settles",
                      "diff fetches", "dropped copies"});
  table.note("period 1 = settle every barrier (eager strawman); 1000 = never settles here");

  const std::size_t grid_bytes = (params.rows + 2) * (params.cols + 2) * sizeof(double);
  bool checksums_ok = true;
  VirtualTime eager_ns = 0, lazy_ns = 0;
  std::uint64_t eager_bytes = 0, lazy_bytes = 0;
  for (const std::size_t period : {1u, 2u, 4u, 8u, 16u, 1000u}) {
    Config cfg = bench::base_config(8, 0, ProtocolKind::kLrc);
    cfg.n_pages = 2 * (grid_bytes / cfg.page_size + 2);
    cfg.lrc_gc_period = period;
    System sys(cfg);
    const auto result = apps::run_sor(sys, params);
    const double expected = apps::sor_reference_checksum(params);
    const auto snap = sys.stats();
    const bool ok = std::abs(result.checksum - expected) < 1e-6 * std::abs(expected);
    checksums_ok = checksums_ok && ok;
    if (period == 1) {
      eager_ns = result.virtual_ns;
      eager_bytes = snap.counter("net.bytes");
    } else if (period == 1000) {
      lazy_ns = result.virtual_ns;
      lazy_bytes = snap.counter("net.bytes");
    }
    table.add_row({std::to_string(period),
                   bench::fmt_ms(result.virtual_ns) + (ok ? "" : " (BAD CHECKSUM)"),
                   bench::fmt_count(snap.counter("net.msgs")),
                   bench::fmt_count(snap.counter("net.bytes") / 1024),
                   bench::fmt_count(snap.counter("lrc.settle_barriers") / 8),
                   bench::fmt_count(snap.counter("lrc.diff_requests")),
                   bench::fmt_count(snap.counter("lrc.settle_dropped_copies"))});
  }
  table.print();

  if (!checksums_ok) {
    std::cerr << "A1: bad checksum\n";
    return 1;
  }
  if (check && !(eager_ns > lazy_ns && eager_bytes > lazy_bytes)) {
    std::cerr << "A1 claim fails: period 1 costs " << bench::fmt_ms(eager_ns) << " ms / "
              << eager_bytes / 1024 << " KiB, period 1000 " << bench::fmt_ms(lazy_ns)
              << " ms / " << lazy_bytes / 1024 << " KiB\n";
    return 1;
  }
  return 0;
}
