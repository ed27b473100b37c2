// Standalone layer drivers. Each times one layer from outside, at its public
// functions, with inputs taken from the workloads: the workload's own Config
// (core), its mean message size (net), and a real sor boundary page (mem).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "mem/diff.hpp"
#include "mem/fault_engine.hpp"
#include "net/network.hpp"

namespace perfbench {
namespace {

using dsm::Access;
using dsm::FaultEngineKind;

double elapsed_us(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }
double elapsed_ns(std::uint64_t t0) { return static_cast<double>(now_ns() - t0); }

void p50_p99(JsonLine& out, const std::string& name, std::vector<double> samples) {
  out.num(name + ".p50", quantile(samples, 0.50));
  out.num(name + ".p99", quantile(samples, 0.99));
}

// --- core ---------------------------------------------------------------------

void core_metrics(Workload w, JsonLine& out) {
  const dsm::Config cfg = workload_config(w, 1);
  std::vector<double> ctor_ms;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t t0 = now_ns();
    const dsm::System sys(cfg);
    ctor_ms.push_back(elapsed_us(t0) / 1e3);
  }
  // Empty runs on a warmed System: thread start and join plus drain()'s
  // fixed 100 µs poll.
  const auto sys = make_system(cfg);
  sys->run([](dsm::Worker&) {});
  std::vector<double> empty_us;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t t0 = now_ns();
    sys->run([](dsm::Worker&) {});
    empty_us.push_back(elapsed_us(t0));
  }
  out.num("core.ctor_ms", median(ctor_ms));
  out.num("core.run_empty_us", median(empty_us));
}

// --- mem: fault engines --------------------------------------------------------

void engine_metrics(FaultEngineKind kind, JsonLine& out) {
  const std::string tag = kind == FaultEngineKind::kUffd ? "uffd" : "sigsegv";
  std::string reason;
  if (kind == FaultEngineKind::kUffd && !dsm::uffd_available(&reason)) {
    std::fprintf(stderr, "[perfbench] uffd unavailable (%s): mem.*.uffd reported as 0\n",
                 reason.c_str());
    out.num("mem.trap_ns." + tag + ".p50", 0).num("mem.trap_ns." + tag + ".p99", 0);
    out.num("mem.protect_ns." + tag, 0);
    return;
  }
  dsm::StatsRegistry stats;
  auto engine = dsm::make_fault_engine(kind, &stats);
  dsm::ViewRegion view(1, dsm::ViewRegion::os_page_size());
  std::memset(view.alias_ptr(0), 1, view.page_size());  // page-cache backed
  dsm::RegionHooks hooks;
  // The handler only installs rights: the trap itself, nothing above it.
  hooks.on_fault = [&](dsm::PageId page, std::size_t, bool is_write) {
    engine->protect(view, page, is_write ? Access::kReadWrite : Access::kRead);
  };
  hooks.infer_write = [](dsm::PageId) { return false; };
  const int token = engine->add_region(&view, hooks);

  const volatile std::byte* p = view.page_ptr(0);
  std::vector<double> trap;
  for (int i = 0; i < 3000; ++i) {
    engine->protect(view, 0, Access::kNone);
    const std::uint64_t t0 = now_ns();
    (void)*p;
    trap.push_back(elapsed_ns(t0));
  }
  std::vector<double> protect;
  for (int i = 0; i < 3000; ++i) {
    for (const Access a : {Access::kNone, Access::kRead, Access::kReadWrite}) {
      const std::uint64_t t0 = now_ns();
      engine->protect(view, 0, a);
      protect.push_back(elapsed_ns(t0));
    }
  }
  engine->remove_region(token);
  p50_p99(out, "mem.trap_ns." + tag, std::move(trap));
  out.num("mem.protect_ns." + tag, median(protect));
}

// --- mem: twin and diff codec ---------------------------------------------------

/// Median per-call time of `fn` over batches of calls.
template <typename Fn>
double per_call_ns(Fn&& fn) {
  constexpr int kBatch = 32;
  std::vector<double> batches;
  for (int b = 0; b < 300; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) fn();
    batches.push_back(elapsed_ns(t0) / kBatch);
  }
  return median(batches);
}

void codec_metrics(const std::string& shape, const std::vector<std::byte>& twin,
                   const std::vector<std::byte>& current, JsonLine& out) {
  std::size_t sink = 0;
  const double twin_ns = per_call_ns([&] { sink += dsm::make_twin(current).get() != nullptr; });
  std::vector<std::byte> diff;
  const double encode_ns = per_call_ns([&] { diff = dsm::encode_diff(current, twin); });
  std::vector<std::byte> page = twin;
  const double apply_ns = per_call_ns([&] { dsm::apply_diff(page, diff); });
  if (sink == 0 || page != current) {
    std::fprintf(stderr, "[perfbench] diff round trip failed on the %s page\n", shape.c_str());
    std::exit(1);
  }
  out.num("mem.twin_ns." + shape, twin_ns);
  out.num("mem.diff_encode_ns." + shape, encode_ns);
  out.num("mem.diff_apply_ns." + shape, apply_ns);
}

// --- net --------------------------------------------------------------------------

/// Round trips of `bytes`-payload messages between two endpoints of one
/// Network, each endpoint on its own thread, through Network::send/recv.
std::vector<double> rtt_us(dsm::TransportKind kind, std::size_t bytes, int trips) {
  dsm::StatsRegistry stats;
  dsm::TransportConfig transport;
  transport.kind = kind;
  std::unique_ptr<dsm::Network> owned;
  do {  // distinct UDP ports, as make_system ensures for a System
    owned = std::make_unique<dsm::Network>(2, dsm::LinkModel{}, &stats, dsm::ReliabilityConfig{},
                                           dsm::ChaosConfig{}, dsm::WireConfig{}, nullptr,
                                           transport);
  } while (kind == dsm::TransportKind::kUdp &&
           owned->transport().endpoints()[0] == owned->transport().endpoints()[1]);
  dsm::Network& net = *owned;
  const auto make = [&](dsm::NodeId src, dsm::NodeId dst) {
    dsm::Message msg;
    msg.type = dsm::MsgType::kPageReply;
    msg.src = src;
    msg.dst = dst;
    msg.payload.assign(bytes, std::byte{0x5a});
    return msg;
  };
  std::thread echo([&] {
    while (auto msg = net.recv(1)) net.send(make(1, 0));
  });
  std::vector<double> samples;
  for (int i = 0; i < trips; ++i) {
    const std::uint64_t t0 = now_ns();
    net.send(make(0, 1));
    if (!net.recv(0)) break;
    samples.push_back(elapsed_us(t0));
  }
  net.shutdown();
  echo.join();
  samples.erase(samples.begin(), samples.begin() + std::min<std::ptrdiff_t>(200, std::ssize(samples)));
  return samples;
}

void net_metrics(std::size_t msg_bytes, JsonLine& out) {
  for (const auto kind : {dsm::TransportKind::kInproc, dsm::TransportKind::kUdp}) {
    const std::string tag = std::string("net.rtt_us.") + dsm::to_string(kind);
    p50_p99(out, tag + ".64B", rtt_us(kind, 64, 2200));
    p50_p99(out, tag + ".4KiB", rtt_us(kind, 4096, 2200));
    out.num(tag + ".wl.p50", median(rtt_us(kind, msg_bytes, 1200)));
  }

  // Mailbox::push to a consumer blocked in pop(): the service-thread wakeup.
  dsm::Mailbox box;
  std::vector<double> wake;
  std::thread consumer([&] {
    while (auto msg = box.pop()) {
      wake.push_back(static_cast<double>(now_ns() - msg->send_time) / 1e3);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));  // let it block
    dsm::Message msg;
    msg.type = dsm::MsgType::kWakeup;
    msg.send_time = now_ns();  // carries the push stamp to the consumer
    box.push(std::move(msg));
  }
  box.close();
  consumer.join();
  p50_p99(out, "net.mailbox_wake_us", std::move(wake));
}

// --- common -------------------------------------------------------------------

/// ns per by-name counter bump with `threads` threads bumping at once.
double stats_counter_ns(int threads) {
  constexpr int kIters = 200'000;
  dsm::StatsRegistry reg;
  std::atomic<int> ready{0};
  std::vector<double> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kIters; ++i) reg.counter("net.msgs.PageReply").add();
      per_thread[static_cast<std::size_t>(t)] = elapsed_ns(t0) / kIters;
    });
  }
  for (auto& th : pool) th.join();
  if (reg.counter("net.msgs.PageReply").value() !=
      static_cast<std::uint64_t>(kIters) * static_cast<std::uint64_t>(threads)) {
    std::fprintf(stderr, "[perfbench] stats counter lost increments\n");
    std::exit(1);
  }
  return median(per_thread);
}

}  // namespace

void layer_metrics(Workload w, std::size_t msg_bytes, JsonLine& out) {
  core_metrics(w, out);
  engine_metrics(FaultEngineKind::kSigsegv, out);
  engine_metrics(FaultEngineKind::kUffd, out);
  std::vector<std::byte> twin;
  std::vector<std::byte> current;
  sor_boundary_page(twin, current);
  codec_metrics("sor_row", twin, current, out);
  // lock-handoff's update: one counter word on an otherwise unchanged page.
  std::vector<std::byte> before(4096, std::byte{0});
  std::vector<std::byte> after = before;
  after[0] = std::byte{1};
  codec_metrics("one_word", before, after, out);
  net_metrics(msg_bytes, out);
  out.num("common.stats_counter_ns.t1", stats_counter_ns(1));
  out.num("common.stats_counter_ns.t4", stats_counter_ns(4));
}

}  // namespace perfbench
