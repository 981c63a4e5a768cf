#!/usr/bin/env bash
# Re-measures the "end_to_end_prefilter" record of BENCH_micro_engine.json:
# an 8193 x 2 FP16 self-join at window 2000 with and without the sketch
# prefilter, on three noisy (sigma 0.005) repeats of a Gaussian-smoothed
# (sigma 45, 600-wide kernel) unit-variance random walk, seg = 2731, dim b
# shifted by 911, one python random.seed(17) stream.
#
# Prints the best-of-5 wall time of the full mpsim_cli run in each mode
# (runs alternate between the modes), their ratio, the share of scored
# columns the prefilter skipped and the verify sample's miss rate.  A
# record, not a gate: nothing here fails on a slow number.
#
# Usage: scripts/prefilter_record.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=${1:-build}/tools/mpsim_cli
if [[ ! -x $CLI ]]; then
  echo "prefilter_record: $CLI not found; build the project first" >&2
  exit 2
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

python3 - > "$WORK/series.csv" <<'PY'
import math, random
random.seed(17)
seg = 2731
walk, x = [], 0.0
for _ in range(seg + 600):
    x += random.gauss(0, 1.0)
    walk.append(x)
kern = [math.exp(-0.5 * (t / 45.0) ** 2) for t in range(-300, 300)]
base = [sum(w * k for w, k in zip(walk[t:t + 600], kern))
        for t in range(seg)]
mean = sum(base) / seg
sd = (sum((v - mean) ** 2 for v in base) / seg) ** 0.5
base = [(v - mean) / sd for v in base]
print("a,b")
for rep in range(3):
    for t in range(seg):
        a = base[t] + random.gauss(0, 0.005)
        b = base[(t + 911) % seg] + random.gauss(0, 0.005)
        print("%.6f,%.6f" % (a, b))
PY

python3 - "$CLI" "$WORK" <<'PY'
import json, math, subprocess, sys, time

cli, work = sys.argv[1:3]
m, n = 2000, 8193
common = [cli, "--reference=%s/series.csv" % work, "--self-join",
          "--window=%d" % m, "--mode=FP16", "--exclusion=250", "--motifs=0",
          "--output=/dev/null"]
modes = {"exact": ["--prefilter=off"],
         "prefilter": ["--prefilter=sketch", "--prefilter-budget=0.05",
                       "--metrics-out=%s/metrics.json" % work]}
best = {mode: math.inf for mode in modes}
for _ in range(5):
    for mode, extra in modes.items():
        start = time.perf_counter()
        subprocess.run(common + extra, stdout=subprocess.DEVNULL, check=True)
        best[mode] = min(best[mode], time.perf_counter() - start)

doc = json.load(open("%s/metrics.json" % work))
counters = doc["counters"]
cols = n - m + 1
groups = (cols + 31) // 32
scored_cols = counters["prefilter.blocks_total"] // groups * cols
print("exact_seconds_best_of_5      %.3f" % best["exact"])
print("prefilter_seconds_best_of_5  %.3f" % best["prefilter"])
print("speedup                      %.3f" % (best["exact"] / best["prefilter"]))
print("cols_skipped_fraction        %.3f" %
      (counters["prefilter.cols_skipped"] / scored_cols))
print("measured_miss_rate           %.3g" %
      doc["gauges"]["prefilter.miss_rate"])
PY
