#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  From the checkout root:

    python3 perfbench/smoke_test.py

Runs every workload at smoke-test size, untraced and traced, and checks
that each prints every declared metric with its unit and passes its gate;
that the simulated workloads repeat their storage counters exactly for a
fixed seed; and that the gate bites: a tampered fleet event log and a
simulated run with ckpt::NoGc in place of RDT-LGC must both fail it.
Takes a few minutes (the first run builds).
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the benchmark's own entry point)

SEED = 3
REPORT_ONLY = {
    "fleet-steady": ["worker_rss_peak_kb", "transport.fleet.send_app_p50_us",
                     "transport.fleet.parent_ctx_switches_per_op"],
    "fleet-chaos": ["worker_rss_peak_kb", "recovery_p50_ms",
                    "recovery_p90_ms", "transport.fleet.sessions_per_kill"],
    "sim-gossip64": [],
    "sim-log-ckpt": [],
}
REPORT_ONLY_TRACED = {
    "fleet-steady": ["transport.fleet.attributed_us_per_op",
                     "transport.fleet.busy_us_per_op",
                     "transport.fleet.residual_us_per_op",
                     "ckpt.store.attach_ms"],
    "fleet-chaos": ["ckpt.store.attach_ms"],
    "sim-gossip64": [],
    "sim-log-ckpt": ["ckpt.store.attach_ms"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out, result


def binary(*args):
    out = subprocess.run([run.BINARY, *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_workload(workload, trace):
    out, result = bench(workload, trace)
    tag = f"{workload} trace={trace}"
    check(result is not None, f"{tag}: prints a result")
    if result is None:
        print(out.stderr[-3000:])
        return None
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result has exactly the four keys")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{tag}: correct, nothing failed")
    declared = run.declared_metrics(trace)
    check({n: v["unit"] for n, v in result["metrics"].items()} == declared,
          f"{tag}: every declared metric, with its unit")
    check(all(v["value"] == v["value"] for v in result["metrics"].values()),
          f"{tag}: no NaN")
    expected = REPORT_ONLY[workload] + (REPORT_ONLY_TRACED[workload]
                                        if trace else [])
    missing = [name for name in expected + ["op_p99_us", "failed_op_ratio"]
               if name not in out.stderr]
    check(not missing, f"{tag}: report prints {missing or 'all'}")
    return result


def main():
    run.build()

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)

    for workload in ("sim-gossip64", "sim-log-ckpt"):
        a = check_workload(workload, 0)
        b = check_workload(workload, 0)
        if a and b:
            for name in ("stored_peak_per_proc", "forced_per_msg"):
                check(a["metrics"][name]["value"] ==
                      b["metrics"][name]["value"],
                      f"{workload}: {name} repeats exactly for one seed")

    _, result = bench("sim-gossip64", 0, "--gc", "none")
    check(result is not None and not result["correct"] and
          result["failed"] > 0, "sim gate rejects NoGc in place of RDT-LGC")

    scratch = os.path.join(run.SCRATCH_DIR, "smoke-tamper")
    shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, scratch))
    common = ["--workload", "fleet-steady", "--scratch", scratch]
    measured = binary("measure", *common, "--seed", str(SEED), "--small",
                      "--seconds", "0")
    check(measured["failed"] == 0, "fleet episode for the tamper check runs")
    check(binary("gate", *common)["failed"] == 0,
          "untampered fleet log passes the gate")
    log_path = os.path.join(ROOT, scratch, "fleet-ep0", "events.log")
    with open(log_path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("deliver ") and " forced=0 " in line:
            lines[i] = line.replace(" forced=0 ", " forced=1 ")
            break
    with open(log_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    gated = binary("gate", *common)
    check(gated["failed"] > 0 and gated["errors"],
          "tampered fleet log fails the gate: " +
          (gated["errors"][0][:120] if gated["errors"] else "no error"))
    shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
