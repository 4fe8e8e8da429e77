#!/usr/bin/env python3
"""Self-test of the benchmark runner, at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  - every end-to-end and per-layer metric BENCHMARK.json names is
    emitted, with its unit, on every workload;
  - the _per_op metrics equal the snapshot counters divided by the
    operations of the rep, exactly;
  - every rep of a run, traced and profiled runs included, has the same
    virtual results (determinism identity);
  - an injected failed check shows up in failed/attempted and clears
    "correct";
  - without the simulator sources next to it the runner exits non-zero
    and prints no result.
Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))

# Independent statement of each _per_op metric's snapshot source:
# ("c", counter) sums counters, ("t", timer) sums timer sample counts.
PER_OP_SOURCES = {
    "sim.switches_per_op": [("c", "sim.switches")],
    "net.messages_per_op": [("c", "san.messages")],
    "net.bytes_per_op": [("c", "san.bytes")],
    "net.fetches_per_op": [("c", "san.fetches")],
    "net.notifications_per_op": [("c", "san.notifications")],
    "vmmc.gather_writes_per_op": [("c", "vmmc.gather_writes")],
    "svm.read_faults_per_op": [("c", "svm.read_faults")],
    "svm.write_faults_per_op": [("c", "svm.write_faults")],
    "svm.pages_fetched_per_op": [("c", "svm.pages_fetched")],
    "svm.diffs_per_op": [("c", "svm.diffs_flushed")],
    "svm.diff_bytes_per_op": [("c", "svm.diff_bytes")],
    "svm.write_notices_per_op": [("c", "svm.write_notices")],
    "svm.invalidations_per_op": [("c", "svm.invalidations")],
    "svm.migrations_per_op": [("c", "svm.migrations")],
    "mem.allocs_per_op": [("c", "mem.allocs")],
    "cables.lock_ops_per_op": [("t", "ops.lock_ms")],
    "cables.cond_waits_per_op": [("t", "ops.wait_ms")],
    "cables.signals_per_op": [("t", "ops.signal_ms"),
                              ("t", "ops.broadcast_ms")],
    "m4.barriers_per_op": [("t", "ops.barrier_ms")],
}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metric_set(result, section, label):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, "%s: %s metrics and units match BENCHMARK.json"
           % (label, section))
    expect(all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values()),
           "%s: every %s value is a number" % (label, section))


def check_per_op(raw, result, label):
    ops = raw["ops_per_rep"]
    snaps = raw["reps"][0]["snapshots"]
    named = [m["name"] for m in SPEC["per_layer"]
             if m["name"].endswith("_per_op")]
    expect(sorted(named) == sorted(PER_OP_SOURCES),
           "%s: the test covers every _per_op metric" % label)
    exact = True
    for name, sources in PER_OP_SOURCES.items():
        total = 0
        for kind, key in sources:
            for s in snaps:
                if kind == "c":
                    total += s["counters"].get(key, 0)
                else:
                    total += s["timers"].get(key, {"count": 0})["count"]
        got = result["metrics"][name]["value"]
        if got != total / ops:
            print("     %s: %r != %r / %r" % (name, got, total, ops))
            exact = False
    expect(exact, "%s: _per_op values are snapshot totals / %d ops"
           % (label, ops))


def main():
    driver = run.build()
    for wl in run.WORKLOADS:
        traced = run.run_driver(driver, wl, 1, 0, True, scale="tiny")
        res = run.summarize(traced)
        check_metric_set(res, "per_layer", wl + " traced")
        expect(res["correct"] and res["failed"] == 0,
               "%s traced: correct with no failed operation" % wl)
        prints = {r["fingerprint"] for key in
                  ("reps", "traced_reps", "profiled_reps")
                  for r in traced.get(key, [])}
        expect(len(prints) == 1,
               "%s: traced, profiled and untraced runs agree" % wl)
        check_per_op(traced, res, wl)

        plain = run.summarize(run.run_driver(driver, wl, 1, 0, False,
                                             scale="tiny"))
        check_metric_set(plain, "end_to_end", wl)
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               "%s: every end-to-end metric is non-zero" % wl)

        bad = run.summarize(run.run_driver(driver, wl, 1, 0, False,
                                           scale="tiny", inject_fail=True))
        expect(not bad["correct"] and 0 < bad["failed"] <= bad["attempted"],
               "%s: injected failure counted (%d of %d failed)"
               % (wl, bad["failed"], bad["attempted"]))

    # Without src/ next to it the runner must refuse, printing nothing.
    lonely = os.path.join(run.build_dir(), "selftest-lonely")
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(lonely, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lonely)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "splash", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=lonely,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       timeout=180)
    shutil.rmtree(lonely, ignore_errors=True)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "runner without the simulator sources exits %d, no result"
           % p.returncode)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
