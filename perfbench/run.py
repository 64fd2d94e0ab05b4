#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload fleet-steady --seed 1 \
        --seconds 50 --trace 0

Builds the checkout (Release, under .bench_build/) on first use, runs the
workload pinned to one CPU with its media and sockets under .bench_scratch/,
gates the outputs for correctness, and prints a context line and then, as
the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end figures, with
--trace 1 its per_layer figures.  A readable report, including the figures
that exist on some workloads only, goes to stderr.  See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = ".bench_build"
SCRATCH_DIR = ".bench_scratch"
BINARY = os.path.join(BUILD_DIR, "rdtgc_perfbench")
WORKLOADS = ("fleet-steady", "fleet-chaos", "sim-gossip64", "sim-log-ckpt")
# The default seed, and a seed reserved for checking a claimed gain: it was
# not used while the benchmark was tuned, and a change claiming a gain must
# show it on this seed too.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20050617
DEADLINE_S = 170  # the whole run, build excluded


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(code, message):
    log("perfbench:", message)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
        return done.returncode == 0
    except (OSError, subprocess.TimeoutExpired) as exc:
        log("perfbench:", exc)
        return False


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("tools", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die(2, f"no {required} in {ROOT}: the benchmark builds the "
                   "rdtgc sources of the checkout that contains it")
    cache = os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))

    def configure():
        return run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], timeout=300)

    def compile_():
        return run_logged(["cmake", "--build", BUILD_DIR, "--target",
                           "rdtgc_perfbench", "-j", jobs], timeout=600)

    if not os.path.isfile(cache) and not configure():
        die(3, "configure failed")
    # A tree configured by an older perfbench/CMakeLists.txt may not know
    # the target yet: configure again once before giving up.
    if not compile_() and not (configure() and compile_()):
        die(3, "build failed")
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        die(3, f"refusing to measure a non-Release build ({build_type!r})")
    return build_type


def media_fs(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def call_binary(args, cpu, timeout):
    """Run the benchmark binary pinned to `cpu` in its own process group;
    return its last stdout line parsed, or None.  The whole group (fleet
    workers included) is killed if the deadline passes or this script is
    stopped."""
    proc = subprocess.Popen(
        [BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: missed the deadline:", " ".join(args))
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: exit status {proc.returncode}:", " ".join(args))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: no result line:", lines[-1][:200])
        return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_report(context, merged):
    log(f"== perfbench {context['workload']} seed={context['seed']} "
        f"trace={context['trace']} cpu={context['cpu']} "
        f"media={context['media_fs']} build={context['build_type']}")
    for kind in ("metrics", "report"):
        for name, v in sorted(merged[kind].items()):
            log(f"  {'*' if kind == 'metrics' else ' '} {name:<46} "
                f"{v['value']:>16.6g} {v['unit']}")
    ratio = merged["failed"] / max(1, merged["attempted"])
    log(f"    {'failed_op_ratio':<46} {ratio:>16.6g} ratio "
        f"({merged['failed']} of {merged['attempted']} ops)")
    for error in merged["errors"]:
        log("  FAILED:", error)


def stop(signum, _frame):
    sys.exit(128 + signum)  # unwinds through call_binary's cleanup


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test episode sizes")
    parser.add_argument("--gc", choices=("rdt-lgc", "none"),
                        default="rdt-lgc",
                        help="none: sim with NoGc (must fail the gate)")
    args = parser.parse_args()

    build_type = build()
    started = time.monotonic()
    scratch = os.path.join(SCRATCH_DIR, f"{args.workload}-s{args.seed}"
                                        f"-t{args.trace}-{os.getpid()}")
    subprocess.run(["rm", "-rf", os.path.join(ROOT, scratch)], check=True)
    os.makedirs(os.path.join(ROOT, scratch))
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu": cpu, "cpus_allowed": allowed, "nproc": os.cpu_count(),
        "media_fs": media_fs(os.path.join(ROOT, scratch)),
        "build_type": build_type,
    }

    common = ["--workload", args.workload, "--scratch", scratch,
              "--trace", str(args.trace)]
    measure = common + ["--seed", str(args.seed), "--seconds",
                        str(args.seconds), "--gc", args.gc]
    if args.small:
        measure.append("--small")
    try:
        parts = [call_binary(["measure"] + measure, cpu, DEADLINE_S - 30)]
        if args.workload.startswith("fleet-") and parts[0] is not None:
            remaining = DEADLINE_S - (time.monotonic() - started)
            parts.append(call_binary(["gate"] + common, cpu,
                                     max(5, remaining)))
    finally:
        subprocess.run(["rm", "-rf", os.path.join(ROOT, scratch)])
    if any(p is None for p in parts):
        die(1, "no result")

    merged = {"attempted": parts[0]["attempted"], "failed": 0, "errors": [],
              "metrics": {}, "report": {}}
    for part in parts:
        merged["failed"] += part["failed"]
        merged["errors"] += part["errors"]
        merged["metrics"].update(part["metrics"])
        merged["report"].update(part["report"])
    merged["failed"] = min(merged["failed"], merged["attempted"])
    declared = declared_metrics(args.trace)
    for name, unit in declared.items():
        got = merged["metrics"].get(name)
        if got is None or got["unit"] != unit:
            merged["errors"].append(f"metric {name} ({unit}) not measured")
    print_report(context, merged)

    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": merged["failed"] == 0 and not merged["errors"],
        "attempted": max(1, merged["attempted"]),
        "failed": merged["failed"],
        "metrics": {n: merged["metrics"][n] for n in declared
                    if n in merged["metrics"]},
    }))


if __name__ == "__main__":
    main()
