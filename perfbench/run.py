#!/usr/bin/env python3
"""Repository benchmark: host wall time and virtual latency of the CableS
simulator on the svc-read, svc-write and splash workloads.

    python3 perfbench/run.py --workload svc-read --seed 1 --seconds 30 --trace 0

Builds the measurement driver (perfbench/driver.cc plus the simulator
sources in src/) into .bench_build/, runs it once for the workload, checks
its outputs and prints one JSON result line as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/NOTES.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-read", "svc-write", "splash")
DRIVER_TIMEOUT_S = 170

# End-to-end metrics: name -> unit. Virtual times carry the units vus
# (virtual microseconds) and vms (virtual milliseconds).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vmean_us": "vus",
    "vp50_us": "vus",
    "vp99_us": "vus",
    "vp999_us": "vus",
    "vpar_ms": "vms",
    "vtotal_ms": "vms",
}

# Per-layer counts normalised per operation (a request on svc-*, an app
# run on splash): metric -> snapshot counters summed over the rep.
PER_OP_COUNTERS = {
    "sim.switches_per_op": ["sim.switches"],
    "net.messages_per_op": ["san.messages"],
    "net.bytes_per_op": ["san.bytes"],
    "net.fetches_per_op": ["san.fetches"],
    "net.notifications_per_op": ["san.notifications"],
    "vmmc.gather_writes_per_op": ["vmmc.gather_writes"],
    "svm.read_faults_per_op": ["svm.read_faults"],
    "svm.write_faults_per_op": ["svm.write_faults"],
    "svm.pages_fetched_per_op": ["svm.pages_fetched"],
    "svm.diffs_per_op": ["svm.diffs_flushed"],
    "svm.diff_bytes_per_op": ["svm.diff_bytes"],
    "svm.write_notices_per_op": ["svm.write_notices"],
    "svm.invalidations_per_op": ["svm.invalidations"],
    "svm.migrations_per_op": ["svm.migrations"],
    "mem.allocs_per_op": ["mem.allocs"],
}

# Per-operation counts of runtime operations, from the sample counts of
# the runtime's virtual-time operation timers.
PER_OP_TIMER_COUNTS = {
    "cables.lock_ops_per_op": ["ops.lock_ms"],
    "cables.cond_waits_per_op": ["ops.wait_ms"],
    "cables.signals_per_op": ["ops.signal_ms", "ops.broadcast_ms"],
    "m4.barriers_per_op": ["ops.barrier_ms"],
}

# Virtual-time profiler categories (splash only): metric -> category.
PROFILE_VMS = {
    "svm.page_fetch_vms": "page_fetch",
    "svm.diff_flush_vms": "diff_flush",
    "svm.barrier_wait_vms": "barrier_wait",
    "svm.mutex_wait_vms": "mutex_wait",
    "svm.handler_vms": "handler",
    "cables.thread_mgmt_vms": "thread_mgmt",
    "cables.compute_vms": "compute",
}

PROBES = {
    "sim.switch_ns": "ns",
    "sim.compute_ns_per_vms": "ns/vms",
    "net.transfer_ns": "ns",
    "vmmc.write_ns": "ns",
    "vmmc.fetch_ns": "ns",
    "svm.access_hit_ns": "ns",
    "svm.fault_ns": "ns",
    "cables.lock_pair_ns": "ns",
    "cables.cond_handoff_ns": "ns",
    "cables.thread_create_us": "us",
    "cables.barrier_round_us": "us",
    "mem.alloc_free_ns": "ns",
}

SPLASH_APPS = ("fft", "lu", "ocean", "radix", "water-spatial",
               "water-spat-fl", "volrend", "raytrace")

COUNT_UNITS = {"net.bytes_per_op": "B", "svm.diff_bytes_per_op": "B"}

PER_LAYER = {}
PER_LAYER.update({k: COUNT_UNITS.get(k, "count") for k in PER_OP_COUNTERS})
PER_LAYER.update({k: "count" for k in PER_OP_TIMER_COUNTS})
PER_LAYER.update({k: "vms" for k in PROFILE_VMS})
PER_LAYER.update(PROBES)
PER_LAYER.update({
    "svm.fetch_per_fault": "ratio",
    "vmmc.registered_mb": "MB",
    "cables.lock_vus_mean": "vus",
    "cables.cond_wait_vus_mean": "vus",
    "cables.attach_vms": "vms",
    "mem.pool_hit_ratio": "ratio",
    "mem.remote_owner_ratio": "ratio",
    "mem.live_mb": "MB",
    "svc.run_s": "s",
    "svc.backlog_peak": "count",
    "svc.shard_imbalance": "ratio",
    "svc.hit_ratio": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "obs.profiler_overhead_frac": "ratio",
    "host.probe_covered_frac": "ratio",
})
PER_LAYER.update({"apps.%s_s" % a: "s" for a in SPLASH_APPS})

MB = 1024.0 * 1024.0

# Nominal time of the driver's fixed reference loop (referenceS in
# driver.cc): its typical reading on the 4-core development host. Host
# times are reported at this nominal host speed, see calibrated().
REF_NOMINAL_S = 0.0125


def fail(msg):
    """Exit non-zero without printing a result line."""
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, scale="full",
               inject_fail=False):
    """Run the driver once and return its raw measurement document."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", scale]
    if inject_fail:
        cmd.append("--inject-fail")
    # The serial engine is pinned in the driver; drop the overrides so
    # nothing else in the process reads them either.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CABLES_ENGINE_")}
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if p.returncode != 0:
        fail("driver exited with code %d" % p.returncode)
    return json.loads(p.stdout)


def merged(snapshots):
    """Counters and timer sample counts/sums summed over the rep's
    runtimes; gauges as the largest value any runtime reached."""
    counters, timer_n, timer_sum, gauges = {}, {}, {}, {}
    for s in snapshots:
        for k, v in s.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, t in s.get("timers", {}).items():
            timer_n[k] = timer_n.get(k, 0) + t["count"]
            timer_sum[k] = timer_sum.get(k, 0.0) + t["sum"]
        for k, v in s.get("gauges", {}).items():
            gauges[k] = max(gauges.get(k, v), v)
    return counters, timer_n, timer_sum, gauges


def ratio(num, den):
    return num / den if den else 0.0


def account(raw):
    """Attempted and failed operations of every run in @p raw.

    A rep that fails an output check or whose virtual results differ
    from the first rep's (the determinism identity) fails whole."""
    ref = raw["reps"][0]["fingerprint"]
    attempted = failed = 0
    for key in ("reps", "traced_reps", "profiled_reps"):
        for rep in raw.get(key, []):
            attempted += rep["attempted"]
            if rep["fingerprint"] != ref:
                failed += rep["attempted"]
            else:
                failed += rep["failed"]
    return attempted, failed


def calibrated(timeline):
    """Host times of the run at the nominal host speed.

    The shared host runs the same work up to 1.7x slower for seconds to
    minutes at a time (NOTES.md). The driver times a fixed reference
    loop before and after every sample; each sample is divided by the
    mean of those two readings and multiplied by REF_NOMINAL_S. Then
      wall_s  = lower quartile over the whole runs (the median of the
                faster half: slow phases only ever add time), and
      setup_s = median over the set-up samples."""
    walls, setups = [], []
    for i, e in enumerate(timeline):
        if e["k"] in ("rep", "setup"):
            around = (timeline[i - 1]["s"] + timeline[i + 1]["s"]) / 2
            (walls if e["k"] == "rep" else setups).append(
                e["s"] / around * REF_NOMINAL_S)
    walls.sort()
    return walls[len(walls) // 4], statistics.median(setups)


def end_to_end(raw):
    wall_s, setup_s = calibrated(raw["timeline"])
    m = {"wall_s": wall_s, "setup_s": setup_s,
         "peak_rss_mb": raw["peak_rss_mb"]}
    m.update(raw["reps"][0]["virtual"])
    return m


def per_layer(raw):
    rep = raw["reps"][0]
    ops = raw["ops_per_rep"]
    counters, timer_n, timer_sum, gauges = merged(rep["snapshots"])
    extra = rep["extra"]
    probes = raw["probes"]
    splash = raw["workload"] == "splash"
    m = {}
    for name, keys in PER_OP_COUNTERS.items():
        m[name] = sum(counters.get(k, 0) for k in keys) / ops
    for name, keys in PER_OP_TIMER_COUNTS.items():
        m[name] = sum(timer_n.get(k, 0) for k in keys) / ops
    faults = counters.get("svm.read_faults", 0) + \
        counters.get("svm.write_faults", 0)
    m["svm.fetch_per_fault"] = ratio(counters.get("svm.pages_fetched", 0),
                                     faults)
    m["vmmc.registered_mb"] = gauges.get("vmmc.registered_bytes", 0) / MB
    m["mem.live_mb"] = gauges.get("mem.live_bytes", 0) / MB
    m["cables.lock_vus_mean"] = 1000.0 * ratio(
        timer_sum.get("ops.lock_ms", 0), timer_n.get("ops.lock_ms", 0))
    m["cables.cond_wait_vus_mean"] = 1000.0 * ratio(
        timer_sum.get("ops.wait_ms", 0), timer_n.get("ops.wait_ms", 0))
    m["cables.attach_vms"] = timer_sum.get("ops.attach_ms", 0.0)
    pool_allocs = counters.get("mem.pool_allocs", 0)
    m["mem.pool_hit_ratio"] = 1.0 - ratio(
        counters.get("mem.pool_refills", 0), pool_allocs) \
        if pool_allocs else 0.0
    remote = counters.get("mem.owner_detects_remote", 0)
    m["mem.remote_owner_ratio"] = ratio(
        remote, remote + counters.get("mem.owner_detects_local", 0))

    totals = raw.get("profile_totals_ticks", {})
    for name, cat in PROFILE_VMS.items():
        m[name] = totals.get(cat, 0) / 1e6

    plain_s = min(r["wall_s"] for r in raw["reps"])
    traced_s = min(r["wall_s"] for r in raw["traced_reps"])
    m["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    m["obs.profiler_overhead_frac"] = (
        min(r["wall_s"] for r in raw["profiled_reps"]) / plain_s - 1.0
        if splash else 0.0)

    # Host spans recorded by the driver around its own calls.
    m["svc.run_s"] = 0.0 if splash else plain_s
    for a in SPLASH_APPS:
        m["apps.%s_s" % a] = min(r["extra"]["app_spans_s"][a]
                                 for r in raw["reps"]) if splash else 0.0
    if splash:
        m["svc.backlog_peak"] = m["svc.shard_imbalance"] = 0.0
        m["svc.hit_ratio"] = 0.0
    else:
        shards = extra["shard_completed"]
        m["svc.backlog_peak"] = extra["backlog_peak"]
        m["svc.shard_imbalance"] = max(shards) / (sum(shards) / len(shards))
        m["svc.hit_ratio"] = ratio(extra["hits"] - extra["puts"],
                                   extra["gets"])
    m.update(probes)

    # How much of the host time per operation the probes explain.
    covered_ns = (
        probes["sim.switch_ns"] * m["sim.switches_per_op"]
        + probes["svm.fault_ns"] * faults / ops
        + probes["vmmc.write_ns"] * m["net.messages_per_op"]
        + probes["net.transfer_ns"] * m["net.notifications_per_op"]
        + probes["cables.lock_pair_ns"] * m["cables.lock_ops_per_op"]
        + probes["mem.alloc_free_ns"] * m["mem.allocs_per_op"]
        + probes["cables.thread_create_us"] * 1e3
        * counters.get("cables.threads_created", 0) / ops
        + probes["sim.compute_ns_per_vms"] * m["cables.compute_vms"] / ops)
    m["host.probe_covered_frac"] = covered_ns / (plain_s * 1e9 / ops)
    return m


def summarize(raw):
    """The benchmark's result object for one driver document."""
    attempted, failed = account(raw)
    correct = failed == 0 and raw["setup_ok"]
    if raw["trace"]:
        values, units = per_layer(raw), PER_LAYER
    else:
        values, units = end_to_end(raw), END_TO_END
    missing = set(units) ^ set(values)
    if missing:
        fail("metric set mismatch: %s" % sorted(missing))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be >= 0")

    driver = build()
    raw = run_driver(driver, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    result = summarize(raw)
    # The host set-up and the uncalibrated host times, written beside
    # the result.
    walls = [r["wall_s"] for r in raw["reps"]]
    setups = [e["s"] for e in raw["timeline"] if e["k"] == "setup"]
    refs = [e["s"] for e in raw["timeline"] if e["k"] == "ref"]
    print(json.dumps({
        "host": raw["host"], "workload": args.workload, "seed": args.seed,
        "reps": len(walls), "raw_wall_s_min": min(walls),
        "raw_wall_s_median": statistics.median(walls),
        "raw_setup_s_median": statistics.median(setups),
        "ref_s_min": min(refs), "ref_s_median": statistics.median(refs)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
