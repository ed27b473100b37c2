#!/usr/bin/env python3
"""Wall-clock benchmark of tutordsm: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fault-sweep --seed 1 --seconds 35 --trace 0

Builds perfbench/ (and with it the library from src/) into .bench_build/,
then fills --seconds with trials of the workload. Each trial is one child
process running `dsmbench trial`: it builds one System, warms it up, times a
fixed amount of work and checks the result. Metrics are medians over the
trials, so a process that lands in the slow mode of the fault path (see
NOTES.md) moves them less than one trial would.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced trials, runs the standalone layer drivers once (`dsmbench layers`)
and prints the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dsmbench")

WORKLOADS = {"fault-sweep": 2, "lock-handoff": 2, "sor": 4}  # name -> nodes
# Conformance-suite overrides the library reads from the environment. The
# benchmark pins what they select, so it never passes them on.
OVERRIDES = ("TUTORDSM_FAULT_ENGINE", "TUTORDSM_TRANSPORT",
             "TUTORDSM_APP_THREADS", "TUTORDSM_UFFD_UNAVAILABLE")
MIN_TRIALS = 5
TRIAL_TIMEOUT_S = 60


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")  # written only by a successful configure
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dsmbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def child_env():
    env = dict(os.environ)
    for var in OVERRIDES:
        if env.pop(var, None) is not None:
            log(f"ignoring {var} from the environment")
    return env


def node_cpus(workload):
    """One CPU per simulated node, the first ones this process may use."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[:WORKLOADS[workload]]


def run_child(args, cpus):
    """Runs dsmbench; returns (stdout lines, exit code)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=child_env(), text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        out, _ = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"dsmbench {' '.join(args)} timed out")
        return out.splitlines(), -1
    return out.splitlines(), proc.returncode


def trial(workload, seed, traced):
    """One trial. A trial that aborts (watchdog, DSM_CHECK) or times out
    comes back with every planned op failed."""
    args = ["trial", workload, str(seed), "1" if traced else "0"]
    lines, code = run_child(args, node_cpus(workload))
    planned = 1
    result = None
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "planned_ops" in obj:
            planned = int(obj["planned_ops"])
        elif "attempted" in obj:
            result = obj
    if code != 0 or result is None:
        log(f"trial {workload} seed {seed} aborted (exit {code}); "
            f"counting its {planned} ops as failed")
        return {"attempted": planned, "failed": planned, "aborted": True}
    result["aborted"] = False
    return result


def trial_seed(seed, i):
    return seed * 1_000_003 + i


def med(trials, key):
    values = [t[key] for t in trials if not t["aborted"]]
    return statistics.median(values) if values else 0.0


def ratio(trials, num, den):
    values = [t[num] / t[den] for t in trials if not t["aborted"] and t[den] > 0]
    return statistics.median(values) if values else 0.0


def outcome(trials):
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    correct = failed == 0 and all(not t["aborted"] and t["engine_ok"] for t in trials)
    return correct, attempted, failed


def end_to_end(trials):
    ok = [t for t in trials if not t["aborted"]]
    _, attempted, failed = outcome(trials)
    for t in ok:
        t["ops_per_s"] = t["ops"] / t["makespan_s"] if t["makespan_s"] > 0 else 0.0
    return {
        "setup_s": (med(ok, "setup_s"), "s"),
        "makespan_s": (med(ok, "makespan_s"), "s"),
        "ops_per_s": (med(ok, "ops_per_s"), "op/s"),
        "op_p50_us": (med(ok, "op_p50_us"), "us"),
        "op_p99_us": (med(ok, "op_p99_us"), "us"),
        "msgs_per_op": (ratio(ok, "msgs", "ops"), "msg/op"),
        "bytes_per_op": (ratio(ok, "bytes", "ops"), "B/op"),
        "success_rate": (1.0 - failed / attempted if attempted else 0.0, "fraction"),
        "peak_rss_mb": (med(ok, "peak_rss_mb"), "MB"),
    }


LAYER_UNITS = [
    ("core.ctor_ms", "ms"), ("core.run_empty_us", "us"),
    ("mem.trap_ns.sigsegv.p50", "ns"), ("mem.trap_ns.sigsegv.p99", "ns"),
    ("mem.trap_ns.uffd.p50", "ns"), ("mem.trap_ns.uffd.p99", "ns"),
    ("mem.protect_ns.sigsegv", "ns"), ("mem.protect_ns.uffd", "ns"),
    ("mem.twin_ns.sor_row", "ns"), ("mem.twin_ns.one_word", "ns"),
    ("mem.diff_encode_ns.sor_row", "ns"), ("mem.diff_encode_ns.one_word", "ns"),
    ("mem.diff_apply_ns.sor_row", "ns"), ("mem.diff_apply_ns.one_word", "ns"),
    ("net.rtt_us.inproc.64B.p50", "us"), ("net.rtt_us.inproc.64B.p99", "us"),
    ("net.rtt_us.inproc.4KiB.p50", "us"), ("net.rtt_us.inproc.4KiB.p99", "us"),
    ("net.rtt_us.inproc.wl.p50", "us"),
    ("net.rtt_us.udp.64B.p50", "us"), ("net.rtt_us.udp.64B.p99", "us"),
    ("net.rtt_us.udp.4KiB.p50", "us"), ("net.rtt_us.udp.4KiB.p99", "us"),
    ("net.rtt_us.udp.wl.p50", "us"),
    ("net.mailbox_wake_us.p50", "us"), ("net.mailbox_wake_us.p99", "us"),
    ("common.stats_counter_ns.t1", "ns"), ("common.stats_counter_ns.t4", "ns"),
]


def per_layer(traced, plain, layers):
    ok = [t for t in traced if not t["aborted"]]
    _, attempted, failed = outcome(traced + plain)
    spans = [t["spans"] for t in ok]

    def span_med(key):
        return statistics.median(s[key] for s in spans) if spans else 0.0

    def per_kop(key):
        return statistics.median(t[key] * 1000.0 / t["ops"] for t in ok) if ok else 0.0

    m = {name: (layers.get(name, 0.0), unit) for name, unit in LAYER_UNITS}
    m["mem.faults_per_op"] = (span_med("mem.faults_per_op"), "fault/op")
    m["proto.serve_us"] = (span_med("proto.serve_us"), "us")
    m["proto.install_us"] = (span_med("proto.install_us"), "us")
    m["proto.fault_gap_us"] = (span_med("proto.fault_gap_us"), "us")
    m["proto.diff_bytes_per_op"] = (ratio(ok, "diff_bytes", "ops"), "B/op")
    m["net.retransmits_per_kop"] = (per_kop("retransmits"), "count/kop")
    m["net.dups_per_kop"] = (per_kop("dups"), "count/kop")
    m["net.gave_up"] = (sum(t["gave_up"] for t in ok), "count")
    m["net.delivery_ratio"] = (
        statistics.median(t["msgs"] / (t["msgs"] + t["retransmits"]) for t in ok)
        if ok else 0.0, "fraction")
    m["sync.acquire_us.p50"] = (med(ok, "acquire_p50_us"), "us")
    m["sync.acquire_us.p99"] = (med(ok, "acquire_p99_us"), "us")
    m["sync.release_us.p50"] = (med(ok, "release_p50_us"), "us")
    m["sync.barrier_us.p50"] = (med(ok, "barrier_p50_us"), "us")
    m["sync.barrier_us.p99"] = (med(ok, "barrier_p99_us"), "us")
    m["sync.local_acquire_ratio"] = (med(ok, "local_acquire_ratio"), "fraction")
    m["trace.dropped"] = (sum(s["trace.dropped"] for s in spans), "count")
    base = med(plain, "makespan_s")
    m["trace.overhead_pct"] = (
        (med(ok, "makespan_s") / base - 1.0) * 100.0 if base > 0 else 0.0, "%")
    m["error_rate"] = (failed / attempted if attempted else 1.0, "fraction")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + args.seconds
    seeds = (trial_seed(args.seed, i) for i in itertools.count())

    if args.trace == 0:
        trials = []
        while len(trials) < MIN_TRIALS or time.monotonic() < deadline:
            trials.append(trial(args.workload, next(seeds), False))
        metrics = end_to_end(trials)
        ran = trials
    else:
        # The layer drivers take the workload's mean message size from a
        # traced trial; traced and untraced trials then alternate, so the
        # tracing overhead compares trials run under the same conditions.
        traced = [trial(args.workload, next(seeds), True)]
        plain = []
        first = traced[0]
        msg_bytes = int(first["bytes"] / first["msgs"]) if not first["aborted"] and first["msgs"] else 64
        lines, code = run_child(["layers", args.workload, str(msg_bytes)], node_cpus(args.workload))
        layers = json.loads(lines[-1]) if code == 0 and lines else {}
        if not layers:
            log("layer drivers failed")
        while len(plain) < MIN_TRIALS or time.monotonic() < deadline:
            plain.append(trial(args.workload, next(seeds), False))
            traced.append(trial(args.workload, next(seeds), True))
        metrics = per_layer(traced, plain, layers)
        ran = traced + plain

    correct, attempted, failed = outcome(ran)
    correct = correct and (args.trace == 0 or bool(layers))
    config = next((t["config"] for t in ran if not t["aborted"]), {})
    config.update(seed=args.seed, trials=len(ran), cpus=node_cpus(args.workload))
    print("# config " + json.dumps(config, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
