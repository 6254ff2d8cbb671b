#!/usr/bin/env python3
"""End-to-end benchmark of the mip6mcast simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_sim from the checkout's sources (CMake, Release) into
.bench_build/, generates the workload's worlds (ScenarioSpecs) from the
seed, and runs them round robin in a closed loop, one process per
execution, until --seconds have passed; every world runs at least once and
one world at least twice. Every execution must succeed and keep its
invariants, and every world must reproduce one output fingerprint;
otherwise the run is reported as failed and incorrect.

--trace 0 prints the end-to-end metrics: per world the median over its
executions, then the mean over the run's worlds.
--trace 1 runs each world traced, untraced and (for a workload with a
sharded twin) sharded, and prints the per-layer metrics derived from the
traced executions' spans, slices, probes and counters, plus the tracing
overhead.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Human-readable lines before it repeat the metrics with their units, the
fingerprint and the observed loss. Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_sim")
EXECUTION_TIMEOUT_S = 120
RUN_DEADLINE_S = 150        # no new execution starts after this

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "delivered_pct": "%",
}

PER_LAYER = {
    "scenario.load_s": "s",
    "core.build_s": "s",
    "ipv6.routing_s": "s",
    "core.wire_s": "s",
    "core.partition_s": "s",
    "core.shards": "count",
    "ipv6.recompute_ms.p50": "ms",
    "ipv6.recompute_ms.p90": "ms",
    "fault.audit_ms.p50": "ms",
    "fault.audit_ms.p90": "ms",
    "fault.applied": "count",
    "fault.audit_violations": "count",
    "fault.unrecovered": "count",
    "scenario.loss_pct": "%",
    "sim.events": "count",
    "sim.windows": "count",
    "sim.events_per_window": "count",
    "sim.parallel_run_s": "s",
    "sim.parallel_speedup": "ratio",
    "sim.pending_peak": "count",
    "sim.cancelled": "count",
    "sim.compactions": "count",
    "sim.slice_ms.p50": "ms",
    "sim.slice_ms.p90": "ms",
    "sim.flood_ns_per_event": "ns",
    "sim.steady_ns_per_event": "ns",
    "pimdm.data_fwd": "count",
    "pimdm.mfc_hit": "count",
    "pimdm.mfc_miss": "count",
    "pimdm.mfc_hit_ratio": "ratio",
    "pimdm.sg_entries": "count",
    "pimdm.fwd_per_delivered": "ratio",
    "hpimdm.data_fwd": "count",
    "hpimdm.mfc_hit": "count",
    "hpimdm.mfc_miss": "count",
    "hpimdm.mfc_hit_ratio": "ratio",
    "hpimdm.sg_entries": "count",
    "hpimdm.fwd_per_delivered": "ratio",
    "hpimdm.retx": "count",
    "mld.tx_report": "count",
    "mld.tx_query": "count",
    "mipv6.bu_sent": "count",
    "mipv6.ha_encap": "count",
    "net.link_tx": "count",
    "net.link_drops": "count",
    "ipv6.fwd": "count",
    "scenario.self_s": "s",
    "core.self_s": "s",
    "ipv6.self_s": "s",
    "sim.self_s": "s",
    "fault.self_s": "s",
    "bench.self_s": "s",
    "bench.setup_covered_pct": "%",
    "bench.run_covered_pct": "%",
    "bench.trace_overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_sim; returns False on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario",
                                       "compile.hpp")):
        log("perfbench: simulator sources not found under %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_sim",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def write_spec(workload, seed, small, world):
    spec_dir = os.path.join(ROOT, ".bench_build", "specs")
    os.makedirs(spec_dir, exist_ok=True)
    path = os.path.join(spec_dir, "%s-%d-w%d%s.json"
                        % (workload, seed, world, "-small" if small else ""))
    with open(path, "w") as f:
        json.dump(workloads.make_spec(workload, seed, small, world), f)
    return path


def execute(spec_path, trace_path=None, shape=None, threads=None):
    """Runs perfbench_sim once. Returns (result dict, None) or (None, why)."""
    cmd = [BINARY, spec_path]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if trace_path:
        cmd += ["--trace", trace_path, "--slice-s", str(shape["slice_s"]),
                "--probe-reps", str(shape["probe_reps"])]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=EXECUTION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % EXECUTION_TIMEOUT_S
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparsable output"
    if result["errors"]:
        return None, "invariant broken: " + "; ".join(result["errors"])
    if trace_path:
        with open(trace_path) as f:
            result["spans"] = json.load(f)
    return result, None


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median_of(results, fn):
    return statistics.median(fn(r) for r in results)


def delivered_pct(r):
    d = r["delivery"]
    return 100.0 * d["delivered_pairs"] / d["sent_pairs"]


def end_to_end(worlds):
    """Each metric: median over a world's untraced executions, averaged
    over the run's worlds."""
    def metric(fn):
        return statistics.fmean(median_of(w["untraced"], fn) for w in worlds)
    return {
        "setup_s": metric(lambda r: r["timing"]["setup_s"]),
        "run_s": metric(lambda r: r["timing"]["run_s"]),
        "total_s": metric(lambda r: r["timing"]["total_s"]),
        "events_per_s": metric(
            lambda r: r["sim"]["events"] / r["timing"]["run_s"]),
        "peak_rss_mb": metric(lambda r: r["peak_rss_mb"]),
        "delivered_pct": metric(delivered_pct),
    }


def span_analysis(spans):
    """Self time per module, and total duration per span name."""
    dur = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0)
                                       + dur[s["id"]])
    self_s = {}
    total_by_name = {}
    for s in spans:
        module = s["name"].split(".")[0]
        own = dur[s["id"]] - child_time.get(s["id"], 0)
        self_s[module] = self_s.get(module, 0.0) + own * 1e-9
        total_by_name[s["name"]] = (total_by_name.get(s["name"], 0.0)
                                    + dur[s["id"]] * 1e-9)
    return self_s, total_by_name


def layer_split(r):
    """Per-layer setup/run split of one traced execution."""
    self_s, by_name = span_analysis(r["spans"])
    probes_s = by_name.get("ipv6.recompute", 0.0)
    routing_s = statistics.median(r["recompute_ms"]) / 1e3
    world_ready = by_name["core.world_ready"]
    compile_s = by_name["scenario.compile"]
    setup_spans = (by_name["scenario.load"] + compile_s - probes_s
                   + by_name.get("core.enable_parallel", 0.0))
    timing = r["timing"]
    # A slice belongs to the flood transient when flow-cache misses (the
    # engine slow path) outnumber hits among its data arrivals.
    flood = [0.0, 0]
    steady = [0.0, 0]
    for wall_ms, events, hit, miss in r["slices"]:
        bucket = flood if miss > hit else steady
        bucket[0] += wall_ms * 1e6
        bucket[1] += events
    return {
        "scenario.load_s": by_name["scenario.load"],
        "core.build_s": max(0.0, world_ready - routing_s),
        "ipv6.routing_s": routing_s,
        "core.wire_s": compile_s - world_ready - probes_s,
        "sim.flood_ns_per_event": flood[0] / flood[1] if flood[1] else 0.0,
        "sim.steady_ns_per_event": steady[0] / steady[1] if steady[1] else 0.0,
        "bench.setup_covered_pct": 100.0 * setup_spans / (
            timing["setup_s"] - probes_s),
        "bench.run_covered_pct": 100.0 * by_name["sim.run_until"] / timing[
            "run_s"],
        **{"%s.self_s" % m: self_s.get(m, 0.0)
           for m in ("scenario", "core", "ipv6", "sim", "fault", "bench")},
    }


def world_layers(w):
    """Per-layer metrics of one world: span splits (median over its traced
    executions), counters and the tracing overhead."""
    splits = [layer_split(t) for t in w["traced"]]
    m = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    r = w["traced"][0]
    c = r["counters"]
    delivered = r["delivery"]["delivered_pairs"]
    sim = r["sim"]
    m.update({
        "fault.applied": r["fault"]["applied"],
        "fault.audit_violations": r["fault"]["audit_violations"],
        "fault.unrecovered": r["fault"]["unrecovered"],
        "scenario.loss_pct": 100.0 - delivered_pct(r),
        "sim.events": sim["events"],
        "sim.pending_peak": sim["pending_peak"],
        "sim.cancelled": sim["cancelled"],
        "sim.compactions": sim["compactions"],
        "hpimdm.retx": c["hpimdm/retx"],
        "mld.tx_report": c["mld/tx/report"],
        "mld.tx_query": c["mld/tx/query"],
        "mipv6.bu_sent": c["mn/tx/bu"],
        "mipv6.ha_encap": (c["ha/encap-multicast"] + c["ha/encap-mcast-coa"]
                           + c["ha/encap-unicast"]),
        "net.link_tx": c["net/link-tx"],
        "net.link_drops": c["net/link-drops"],
        "ipv6.fwd": c["ipv6/fwd"],
        "bench.trace_overhead_s": (
            median_of(w["traced"], lambda t: t["timing"]["total_s"])
            - median_of(w["untraced"], lambda t: t["timing"]["total_s"])),
    })
    for engine in ("pimdm", "hpimdm"):
        hit = c[engine + "/mfc-hit"]
        miss = c[engine + "/mfc-miss"]
        fwd = c[engine + "/data-fwd"]
        m[engine + ".data_fwd"] = fwd
        m[engine + ".mfc_hit"] = hit
        m[engine + ".mfc_miss"] = miss
        m[engine + ".mfc_hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
        m[engine + ".sg_entries"] = c[engine + "/sg-entries"]
        m[engine + ".fwd_per_delivered"] = fwd / delivered if delivered else 0.0
    return m


def parallel_layers(worlds):
    """Parallel-engine figures from the sharded twin of world 0; a workload
    without a twin runs serially and reports no partition or windows."""
    w = worlds[0]
    if not w["sharded"]:
        return {"core.partition_s": 0.0, "core.shards": 1, "sim.windows": 0,
                "sim.events_per_window": 0.0, "sim.parallel_run_s": 0.0,
                "sim.parallel_speedup": 0.0}
    twin = w["sharded"]
    sim = twin[0]["sim"]
    par_run_s = median_of(twin, lambda t: t["timing"]["run_s"])
    return {
        "core.partition_s": median_of(
            twin, lambda t: t["timing"]["partition_s"]),
        "core.shards": sim["shards"],
        "sim.windows": sim["windows"],
        "sim.events_per_window": sim["events"] / sim["windows"],
        "sim.parallel_run_s": par_run_s,
        "sim.parallel_speedup": median_of(
            w["untraced"], lambda t: t["timing"]["run_s"]) / par_run_s,
    }


def per_layer(worlds):
    """World metrics averaged over the run's worlds; probe and slice
    percentiles pooled over every traced execution."""
    per_world = [world_layers(w) for w in worlds]
    m = {key: statistics.fmean(pw[key] for pw in per_world)
         for key in per_world[0]}
    traced = [t for w in worlds for t in w["traced"]]
    for name, samples in (
            ("ipv6.recompute_ms", [v for t in traced
                                   for v in t["recompute_ms"]]),
            ("fault.audit_ms", [v for t in traced for v in t["audit_ms"]]),
            ("sim.slice_ms", [s[0] for t in traced for s in t["slices"]])):
        m[name + ".p50"] = percentile(samples, 50)
        m[name + ".p90"] = percentile(samples, 90)
    m.update(parallel_layers(worlds))
    return m


def measure(workload, seed, seconds, traced, small=False):
    """Closed-loop executions of the run's worlds, round robin. An untraced
    round runs each world once; a traced round runs each world traced and
    untraced, then world 0 as its sharded twin when the workload has one.
    Returns (worlds, attempted, failures)."""
    shape = workloads.shape(workload, small)
    worlds = [{"spec": write_spec(workload, seed, small, i), "traced": [],
               "untraced": [], "sharded": [], "fingerprints": set()}
              for i in range(workloads.WORLDS_PER_RUN)]
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    if traced:
        plan = [(w, k) for w in worlds for k in ("traced", "untraced")]
        if shape["twin_threads"]:
            plan.append((worlds[0], "sharded"))
        minimum = len(plan)
    else:
        # One more than a round, so every run repeats a world.
        plan = [(w, "untraced") for w in worlds]
        minimum = len(plan) + 1
    failures = []
    durations = []
    start = time.monotonic()
    attempted = 0
    while True:
        w, kind = plan[attempted % len(plan)]
        trace_path = None
        if kind == "traced":
            trace_path = os.path.join(trace_dir, "%s-%d-%d.json"
                                      % (workload, seed, attempted))
        threads = shape["twin_threads"] if kind == "sharded" else None
        t0 = time.monotonic()
        result, why = execute(w["spec"], trace_path, shape, threads)
        durations.append(time.monotonic() - t0)
        attempted += 1
        if result is None:
            failures.append(why)
        else:
            w["fingerprints"].add(result["fingerprint"])
            w[kind].append(result)
        elapsed = time.monotonic() - start
        next_s = statistics.median(durations[-len(plan):])
        if elapsed + next_s > RUN_DEADLINE_S:
            break
        if attempted >= minimum and elapsed + next_s > seconds:
            break
    for i, w in enumerate(worlds):
        if len(w["fingerprints"]) > 1:
            failures.append("world %d: fingerprints differ across "
                            "executions: %s" % (i, sorted(w["fingerprints"])))
    return worlds, attempted, failures


def report(workload, seed, traced, worlds, attempted, failures):
    """Prints the human-readable lines and the final JSON line."""
    ok = not failures and all(
        w["untraced"] and (w["traced"] or not traced) for w in worlds)
    metrics = {}
    if ok:
        names = PER_LAYER if traced else END_TO_END
        values = per_layer(worlds) if traced else end_to_end(worlds)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in names.items()}
    print("workload %s seed %d: %d world(s), %d execution(s), %d failed"
          % (workload, seed, len(worlds), attempted, len(failures)))
    for why in failures:
        print("  failure: %s" % why)
    for i, w in enumerate(worlds):
        runs = w["untraced"] + w["traced"]
        if not runs:
            continue
        r = runs[0]
        print("world %d: fingerprint %s (%s)"
              % (i, r["fingerprint"], r["fingerprint_text"]))
        print("world %d: loss_pct %.4f %% of %d (datagram, receiver) pairs; "
              "unrecovered %d; faults applied %d"
              % (i, 100.0 - delivered_pct(r), r["delivery"]["sent_pairs"],
                 r["fault"]["unrecovered"], r["fault"]["applied"]))
    for name, m in metrics.items():
        print("%-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures) if failures else (0 if ok else 1),
        "metrics": metrics,
    }))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="seconds-long shape of the workload (self-tests)")
    args = ap.parse_args(argv)
    if not build():
        return 1
    worlds, attempted, failures = measure(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          args.small)
    ok = report(args.workload, args.seed, bool(args.trace), worlds,
                attempted, failures)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
