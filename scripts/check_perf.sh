#!/usr/bin/env bash
# Guard the execution fast path against silent throughput regressions.
#
# Builds Release (unless --build-dir already holds the bench binary), runs
# bench/micro_engine_throughput with JSON output, and compares every counter
# tracked in BENCH_micro_engine.json against its committed "after" value.
# Any counter more than --threshold (default 20%) below baseline fails the
# check.  Counters with a null baseline (added after the last pinning) are
# reported but never fail.
#
# Usage: scripts/check_perf.sh [--build-dir DIR] [--baseline FILE]
#                              [--threshold FRACTION] [--smoke]
#   --smoke   tiny-scale leg for CI (the `perf` CTest label): runs the bench
#             for ~10ms per counter and verifies every tracked counter is
#             produced, but never fails on throughput (too noisy at that
#             scale to gate on).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-perf
BASELINE=BENCH_micro_engine.json
THRESHOLD=0.20
SMOKE=0
MIN_TIME=0.2

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --baseline) BASELINE=$2; shift 2 ;;
    --threshold) THRESHOLD=$2; shift 2 ;;
    --smoke) SMOKE=1; MIN_TIME=0.01; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

BENCH=$BUILD_DIR/bench/micro_engine_throughput
if [[ ! -x $BENCH ]]; then
  cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release -DMPSIM_BUILD_BENCH=ON
  cmake --build "$BUILD_DIR" --target micro_engine_throughput -j"$(nproc)"
fi

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
"$BENCH" --benchmark_format=json --benchmark_min_time="$MIN_TIME" > "$OUT"

python3 - "$BASELINE" "$OUT" "$THRESHOLD" "$SMOKE" <<'PY'
import json, sys

baseline_path, head_path, threshold, smoke = sys.argv[1:5]
threshold = float(threshold)
smoke = smoke == "1"

base = json.load(open(baseline_path))
head = {b["name"]: b.get("items_per_second", 0.0)
        for b in json.load(open(head_path))["benchmarks"]}

failures = []
for entry in base["micro"]["benchmarks"]:
    name, ref = entry["name"], entry["after"]
    got = head.get(name)
    if got is None:
        failures.append(f"{name}: missing from HEAD run")
        continue
    got /= 1e6
    verdict = "ok"
    if ref is not None and got < ref * (1.0 - threshold):
        verdict = f"REGRESSED (>{threshold:.0%} below baseline)"
        if not smoke:
            failures.append(f"{name}: {got:.2f} M/s vs baseline {ref:.2f} M/s")
    ref_str = "new" if ref is None else f"{ref:.2f}"
    print(f"  {name:36s} baseline {ref_str:>8} M/s  head {got:8.2f} M/s  {verdict}")

if failures:
    print("check_perf: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_perf: PASS" + (" (smoke)" if smoke else ""))
PY

# ---- Runtime-metrics counter diff -----------------------------------------
# The observability counters of a fully deterministic scenario (fixed CSV,
# fixed tiling, at=-triggered fault) are exact machine-independent numbers:
# any drift in staging traffic or retry behaviour is a functional change,
# so they are diffed exactly against the "metrics" baseline in the
# committed BENCH file (smoke and full legs both gate on this — it is not
# a throughput number, so it is never noisy).
CLI=$BUILD_DIR/tools/mpsim_cli
if [[ ! -x $CLI ]]; then
  cmake --build "$BUILD_DIR" --target mpsim_cli -j"$(nproc)"
fi
WORK=$(mktemp -d)
trap 'rm -f "$OUT"; rm -rf "$WORK"' EXIT
awk 'BEGIN {
  srand(5); print "a,b";
  for (t = 0; t < 500; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"
# --simd=scalar pins the simd.<stage>.<variant> dispatch counters to the
# scalar column, making the diff exact on hosts without F16C/AVX2 too.
"$CLI" --reference="$WORK/ref.csv" --self-join --window=32 --mode=Mixed \
    --tiles=4 --faults="seed=3,kernel@0:at=2" --simd=scalar \
    --metrics-out="$WORK/metrics.json" --motifs=0 > /dev/null

python3 - "$BASELINE" "$WORK/metrics.json" <<'PY'
import json, sys

baseline_path, metrics_path = sys.argv[1:3]
base = json.load(open(baseline_path)).get("metrics", {}).get("counters", {})
head = json.load(open(metrics_path))["counters"]

failures = []
for name, ref in sorted(base.items()):
    got = head.get(name)
    verdict = "ok"
    if got != ref:
        verdict = "CHANGED"
        failures.append(f"{name}: {got} vs baseline {ref}")
    print(f"  {name:36s} baseline {ref:>12}  head {got!s:>12}  {verdict}")

if failures:
    print("check_perf metrics diff: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_perf metrics diff: PASS")
PY

# ---- Sketch-prefilter decision diff ----------------------------------------
# The prefilter's block decisions are seeded and profile-driven, both
# deterministic, so its counters (and the miss-rate gauge) are exact
# numbers on a fixed workload — pinned in the "metrics_prefilter" baseline
# section.  The sketch scoring is plain scalar float code and the kernel
# outputs are bit-identical across dispatch levels, so no --simd pin is
# needed here.
python3 - > "$WORK/smooth.csv" <<'PY'
import math, random
random.seed(101)
seg = 911
white = [random.gauss(0, 1.0) for _ in range(seg + 200)]
kern = [math.exp(-0.5 * (t / 15.0) ** 2) for t in range(-100, 100)]
base = [sum(w * k for w, k in zip(white[t:t + 200], kern))
        for t in range(seg)]
mean = sum(base) / seg
sd = (sum((v - mean) ** 2 for v in base) / seg) ** 0.5
base = [(v - mean) / sd for v in base]
print("a,b")
for rep in range(3):
    for t in range(seg):
        a = base[t] + random.gauss(0, 0.005)
        b = base[(t + 307) % seg] + random.gauss(0, 0.005)
        print("%.6f,%.6f" % (a, b))
PY
"$CLI" --reference="$WORK/smooth.csv" --self-join --window=400 --mode=FP16 \
    --exclusion=100 --prefilter=sketch --prefilter-budget=0.05 \
    --metrics-out="$WORK/prefilter_metrics.json" --motifs=0 > /dev/null

python3 - "$BASELINE" "$WORK/prefilter_metrics.json" <<'PY'
import json, sys

baseline_path, metrics_path = sys.argv[1:3]
base = json.load(open(baseline_path)).get("metrics_prefilter", {}).get("counters", {})
head_doc = json.load(open(metrics_path))
head = dict(head_doc["counters"])
head["prefilter.miss_rate"] = head_doc["gauges"]["prefilter.miss_rate"]

failures = []
for name, ref in sorted(base.items()):
    got = head.get(name)
    verdict = "ok"
    if got != ref:
        verdict = "CHANGED"
        failures.append(f"{name}: {got} vs baseline {ref}")
    print(f"  {name:36s} baseline {ref!s:>12}  head {got!s:>12}  {verdict}")

if failures:
    print("check_perf prefilter diff: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_perf prefilter diff: PASS")
PY

# ---- Elastic coordinator counter diff --------------------------------------
# A fault-free 2-node run with stealing off is fully deterministic: static
# round-robin sharding dispatches every tile exactly once and each node
# commits its own tiles exactly once, so the coordinator.* / node.*
# counters (and the coordinator.nodes gauge) are exact numbers — pinned in
# the "metrics_cluster" baseline section.  Drift means the dispatch or
# commit-arbitration logic changed.  Reuses the srand(5) CSV from the
# metrics leg above.
"$CLI" --reference="$WORK/ref.csv" --self-join --window=32 --mode=Mixed \
    --tiles=4 --nodes=2 --steal=off --simd=scalar \
    --metrics-out="$WORK/cluster_metrics.json" --motifs=0 > /dev/null

python3 - "$BASELINE" "$WORK/cluster_metrics.json" <<'PY'
import json, sys

baseline_path, metrics_path = sys.argv[1:3]
base = json.load(open(baseline_path)).get("metrics_cluster", {}).get("counters", {})
head_doc = json.load(open(metrics_path))
head = dict(head_doc["counters"])
head["coordinator.nodes"] = head_doc["gauges"]["coordinator.nodes"]

failures = []
for name, ref in sorted(base.items()):
    got = head.get(name)
    verdict = "ok"
    if got != ref:
        verdict = "CHANGED"
        failures.append(f"{name}: {got} vs baseline {ref}")
    print(f"  {name:36s} baseline {ref!s:>12}  head {got!s:>12}  {verdict}")

if failures:
    print("check_perf cluster diff: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_perf cluster diff: PASS")
PY

# ---- Journal bytes diff ----------------------------------------------------
# The checkpoint journal is append-only: each commit or row-slice snapshot
# appends its own record, and a finished run compacts once, so the
# records and bytes a fault-free one-device run writes are exact numbers —
# pinned in the "metrics_journal" baseline section.  Rewriting the whole
# journal per snapshot would multiply checkpoint.bytes_written.  The run
# journals to a relative path from inside $WORK, so the path recorded in
# the journal's events has the same length on every host.  Reuses the
# srand(5) CSV from the metrics leg above.
CLI_ABS=$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")
(cd "$WORK" && "$CLI_ABS" --reference=ref.csv --self-join --window=32 \
    --mode=Mixed --tiles=4 --devices=1 --simd=scalar --slice-rows=64 \
    --checkpoint=journal.ckpt --checkpoint-interval=1 \
    --metrics-out=journal_metrics.json --motifs=0 > /dev/null)

python3 - "$BASELINE" "$WORK/journal_metrics.json" <<'PY'
import json, sys

baseline_path, metrics_path = sys.argv[1:3]
base = json.load(open(baseline_path)).get("metrics_journal", {}).get("counters", {})
head = json.load(open(metrics_path))["counters"]

failures = []
for name, ref in sorted(base.items()):
    got = head.get(name)
    verdict = "ok"
    if got != ref:
        verdict = "CHANGED"
        failures.append(f"{name}: {got} vs baseline {ref}")
    print(f"  {name:36s} baseline {ref!s:>12}  head {got!s:>12}  {verdict}")

if failures:
    print("check_perf journal diff: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("check_perf journal diff: PASS")
PY
