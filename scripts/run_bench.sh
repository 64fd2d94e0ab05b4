#!/usr/bin/env bash
# Regenerate the committed micro-benchmark baseline (BENCH_micro.json).
#
# Builds the opt-in tabd_micro target (Release + RDTGC_BUILD_BENCH=ON via the
# "bench" preset) and runs it with JSON output.  Compare a fresh run against
# the committed baseline to track the perf trajectory PR over PR.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-${repo_root}/BENCH_micro.json}"
build_dir="${repo_root}/out/bench"

cmake --preset bench -S "${repo_root}"

# A baseline recorded from a non-Release tree is meaningless for comparisons.
# The bench preset pins CMAKE_BUILD_TYPE=Release on every configure, so this
# check is an assertion against preset/cache drift (someone editing
# CMakePresets.json or pointing the script at a repurposed build dir); it
# refuses rather than record a misleading baseline
# (RDTGC_BENCH_ALLOW_NONRELEASE=1 overrides for scratch runs).
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${build_dir}/CMakeCache.txt")"
if [[ "${build_type}" != "Release" && "${RDTGC_BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
  echo "error: bench tree at ${build_dir} is CMAKE_BUILD_TYPE='${build_type}'," >&2
  echo "       not Release; refusing to record a baseline (set" >&2
  echo "       RDTGC_BENCH_ALLOW_NONRELEASE=1 to override)." >&2
  exit 1
fi

cmake --build "${build_dir}" --target tabd_micro -j"$(nproc)"

# The storage-backend families put their media under the platform temp dir
# (bench_common.hpp honors TMPDIR).  A tmpfs there benches the store logic,
# not the disk: the per-op msync/fsync cost that group commit exists
# to amortize is mostly RAM-speed, so durability-family ratios (e.g.
# BM_GroupCommitLog/0 vs /16) understate what real media would show.  Detect
# it, warn loudly, and tag the recorded baseline so comparisons never mix
# tmpfs and disk runs silently.
bench_media_dir="${TMPDIR:-/tmp}"
bench_media_fs="$(stat -f -c %T "${bench_media_dir}" 2>/dev/null || echo unknown)"
case "${bench_media_fs}" in
  tmpfs|ramfs)
    echo "==============================================================" >&2
    echo "WARNING: bench media dir ${bench_media_dir} is ${bench_media_fs}" >&2
    echo "         (RAM-backed).  Storage/durability families measure the" >&2
    echo "         store's CPU path, NOT real media latency; group-commit" >&2
    echo "         ratios will understate the on-disk win.  Point TMPDIR" >&2
    echo "         at a disk-backed path to bench durability for real." >&2
    echo "==============================================================" >&2
    ;;
esac

# The committed baseline is the reference everything diffs against, so it
# gets a steadier protocol than the CI fresh run (one 0.05s pass):
# BENCH_RUNS full interleaved passes at 3x the min_time, folded to the
# per-benchmark MEDIAN time.  Scheduler/VM jitter routinely swings one
# short pass by +-20%; medians of interleaved passes are what the README
# tells humans to compare, so the recorded baseline does the same.
#
# Each family runs in a process of its own (--benchmark_filter): the
# recorder-driven families grow the recorder's tables for the whole process,
# so in one process a family's time depended on which families ran before
# it (16-30% apart between binaries that differed only in an earlier one).
bench_bin="${build_dir}/bench/tabd_micro"
mapfile -t families < <("${bench_bin}" --benchmark_list_tests |
  sed 's|/.*||' | awk '!seen[$0]++')
bench_runs="${RDTGC_BENCH_RUNS:-3}"
for ((i = 0; i < bench_runs; ++i)); do
  for ((k = 0; k < ${#families[@]}; ++k)); do
    "${bench_bin}" --benchmark_filter="^${families[k]}(/|\$)" \
      --benchmark_format=json --benchmark_min_time=0.15 \
      > "${out}.run${i}.${k}"
  done
done

# Merge each pass's per-family files, fold the passes to medians and stamp
# the recording context (media filesystem — tmpfs baselines measure the
# store's CPU path, not real media — and the pass count) so a reader can
# tell what this baseline is.
python3 - "${out}" "${bench_media_dir}" "${bench_media_fs}" "${bench_runs}" \
  "${#families[@]}" <<'PY'
import json, statistics, sys
out, media_dir, media_fs, runs, families = sys.argv[1:6]
runs, families = int(runs), int(families)
passes = []
for i in range(runs):
    merged = None
    for k in range(families):
        with open(f"{out}.run{i}.{k}") as f:
            part = json.load(f)
        if merged is None:
            merged = part
        else:
            merged["benchmarks"] += part.get("benchmarks", [])
    passes.append(merged)
data = passes[-1]  # keep the last pass's context/ordering as the skeleton
times = {}
for p in passes:
    for b in p.get("benchmarks", []):
        times.setdefault(b["name"], []).append((b["real_time"], b["cpu_time"]))
for b in data.get("benchmarks", []):
    seen = times[b["name"]]
    b["real_time"] = statistics.median(t[0] for t in seen)
    b["cpu_time"] = statistics.median(t[1] for t in seen)
ctx = data.setdefault("context", {})
ctx["bench_media_dir"] = media_dir
ctx["bench_media_fs"] = media_fs
ctx["bench_runs"] = runs
ctx["bench_processes"] = "one per family"
with open(out, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
rm -f "${out}".run*

# The JSON's "library_build_type" describes how the *benchmark library* was
# compiled; distro packages often report "debug" even though rdtgc itself is
# Release.  Surface it so nobody mistakes a debug-library timing context for
# a debug-rdtgc one (rdtgc's build type is guarded above).
library_build_type="$(sed -n 's/.*"library_build_type": *"\([^"]*\)".*/\1/p' "${out}")"
if [[ "${library_build_type}" != "release" ]]; then
  echo "warning: Google Benchmark library reports build type" >&2
  echo "         '${library_build_type}' (system package?).  rdtgc code is" >&2
  echo "         Release; timings are valid but the harness itself is" >&2
  echo "         unoptimized — compare only against baselines recorded with" >&2
  echo "         the same library." >&2
fi
echo "wrote ${out} (rdtgc build type: ${build_type})"
