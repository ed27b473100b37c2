// Per-layer self times from a traced trial. Only spans the runtime already
// records are used, with their real (wall-clock) start and end stamps:
//   - app-side "read-fault" / "write-fault" spans (kFault),
//   - one service-side span per handled message, named by message type
//     (kProto for protocol traffic, kSync for lock/barrier traffic).
// A request handled on the owner is the serve leg; a reply handled on the
// faulting node is the install leg; what remains of the fault span after
// both is the gap: trap, wire handoff and the wakeups in between.
#include <algorithm>
#include <string_view>

#include "bench.hpp"

namespace perfbench {
namespace {

bool is_request(std::string_view name) {
  return name == "ReadRequest" || name == "WriteRequest" || name == "ReadForward" ||
         name == "WriteForward" || name == "PageRequest" || name == "DiffRequest";
}

bool is_reply(std::string_view name) {
  return name == "ReadReply" || name == "WriteReply" || name == "PageReply" ||
         name == "DiffReply";
}

bool is_fault(const dsm::TraceEvent& ev) {
  if (ev.cat != dsm::TraceCat::kFault) return false;
  const std::string_view name(ev.name);
  return name == "read-fault" || name == "write-fault";
}

double dur_us(const dsm::TraceEvent& ev) {
  return static_cast<double>(ev.rend_ns - ev.rstart_ns) / 1e3;
}

}  // namespace

void span_metrics(const TrialResult& r, JsonLine& out) {
  std::vector<const dsm::TraceEvent*> legs;  // serve and install spans
  std::vector<double> serve;
  std::vector<double> install;
  std::vector<const dsm::TraceEvent*> faults;
  for (const auto& ev : r.spans) {
    if (is_fault(ev)) {
      faults.push_back(&ev);
      continue;
    }
    if (ev.cat != dsm::TraceCat::kProto) continue;
    const std::string_view name(ev.name);
    if (is_request(name)) {
      serve.push_back(dur_us(ev));
      legs.push_back(&ev);
    } else if (is_reply(name)) {
      install.push_back(dur_us(ev));
      legs.push_back(&ev);
    }
  }
  std::sort(legs.begin(), legs.end(), [](const auto* a, const auto* b) {
    return a->rstart_ns < b->rstart_ns;
  });

  // Self time of each fault span: subtract the legs that ran inside it on
  // its behalf — requests whose sender is the faulting node, and replies
  // handled on the faulting node.
  std::vector<double> gap;
  gap.reserve(faults.size());
  for (const auto* f : faults) {
    double self = dur_us(*f);
    auto it = std::lower_bound(legs.begin(), legs.end(), f->rstart_ns,
                               [](const auto* leg, std::uint64_t t) { return leg->rstart_ns < t; });
    for (; it != legs.end() && (*it)->rstart_ns < f->rend_ns; ++it) {
      const dsm::TraceEvent& leg = **it;
      if (leg.rend_ns > f->rend_ns) continue;
      const bool serves_f = is_request(leg.name) && leg.val0 == f->node && leg.node != f->node;
      const bool installs_f = is_reply(leg.name) && leg.node == f->node;
      if (serves_f || installs_f) self -= dur_us(leg);
    }
    gap.push_back(self);
  }

  const double ops = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  out.num("mem.faults_per_op", static_cast<double>(faults.size()) / ops);
  out.num("proto.serve_us", median(serve));
  out.num("proto.install_us", median(install));
  out.num("proto.fault_gap_us", median(gap));
  out.num("trace.dropped", static_cast<double>(r.trace_dropped));
}

}  // namespace perfbench
