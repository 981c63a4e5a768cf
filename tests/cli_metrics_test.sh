#!/usr/bin/env bash
# Metrics-enabled CLI leg: run mpsim_cli under deterministic fault
# injection with --metrics-out/--trace-out and validate both documents —
# the metrics JSON against the mpsim-metrics-v2 schema (including the
# fault/retry/staging counters the run must have produced) and the trace
# JSON as a Chrome-tracing array of complete ("ph": "X") events.
# Driven by CTest; $1 = build dir with the tools.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli_metrics_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
    for f in "$WORK"/*.log "$WORK"/*.json; do
      [ -f "$f" ] || continue
      echo "--- $f:" >&2
      cat "$f" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap 'FAILED_LINE=$LINENO' ERR
trap cleanup EXIT

awk 'BEGIN {
  srand(5); print "a,b";
  for (t = 0; t < 500; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"

# Mixed mode stages both series into reduced precision (so the staging
# counters move); kernel@0:at=2 injects exactly one transient fault (the
# at= trigger fires once per device event counter), so the retry counters
# are exact, machine-independent numbers.
"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" --self-join \
    --window=32 --mode=Mixed --tiles=4 \
    --faults="seed=3,kernel@0:at=2" \
    --metrics-out="$WORK/metrics.json" --trace-out="$WORK/trace.json" \
    --motifs=0 > "$WORK/run.log"

grep -q "runtime metrics (counters):" "$WORK/run.log"
grep -q "runtime metrics (histograms):" "$WORK/run.log"
grep -q "metrics written to" "$WORK/run.log"
grep -q "trace written to" "$WORK/run.log"

python3 - "$WORK/metrics.json" "$WORK/trace.json" <<'EOF'
import json, sys

metrics = json.load(open(sys.argv[1]))
assert metrics["schema"] == "mpsim-metrics-v2", metrics.get("schema")
for key in ("counters", "gauges", "histograms"):
    assert key in metrics, f"missing top-level key {key!r}"

c = metrics["counters"]
assert c.get("faults.injected") == 1, c
assert c.get("faults.kernel_launch") == 1, c
assert c.get("resilient.retries") == 1, c
assert c.get("resilient.tiles_completed") == 4, c
assert c.get("resilient.attempts") == 5, c  # 4 tiles + 1 retried attempt
assert c.get("staging.misses", 0) >= 1, c
assert c.get("staging.bytes_converted", 0) > 0, c
assert any(k.startswith("kernel.") and k.endswith(".launches") and v > 0
           for k, v in c.items()), c
# v2 durability counters are registered (all zero in this non-watchdog,
# non-checkpointed run).
for key in ("resilient.checkpoint_writes", "resilient.tiles_resumed",
            "resilient.watchdog_fires", "resilient.speculative_wins",
            "resilient.speculative_losses", "resilient.tile_splits"):
    assert c.get(key, None) == 0, (key, c.get(key))

h = metrics["histograms"]
tile = h.get("resilient.tile_seconds")
assert tile is not None and tile["count"] == 5, tile
for name, data in h.items():
    assert data["count"] == sum(b["count"] for b in data["buckets"]), name
    if data["count"]:
        assert data["min"] <= data["max"], name

trace = json.load(open(sys.argv[2]))
assert isinstance(trace, list) and trace, "trace must be a non-empty array"
for ev in trace:
    assert ev["ph"] == "X", ev
    for key in ("name", "pid", "tid", "ts", "dur"):
        assert key in ev, (key, ev)
    assert ev["dur"] >= 0, ev
names = [ev["name"] for ev in trace]
assert "coordinator" in names, names
assert "merge_tile_results" in names, names
assert sum(n.startswith("tile ") for n in names) == 5, names
print(f"metrics JSON OK ({len(c)} counters, {len(h)} histograms, "
      f"{len(trace)} trace events)")
EOF

# Sketch-prefilter decision trace: a smooth repeating workload (three
# noisy copies of one smoothed pattern — the regime the sketch bound is
# tight for) must produce real skips, and the full prefilter.* decision
# accounting plus the prefilter.miss_rate gauge must land in
# --metrics-out, self-consistent and within the configured budget.
python3 - > "$WORK/smooth.csv" <<'EOF'
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
EOF
"$BUILD/tools/mpsim_cli" --reference="$WORK/smooth.csv" --self-join \
    --window=400 --mode=FP16 --exclusion=100 \
    --prefilter=sketch --prefilter-budget=0.05 \
    --metrics-out="$WORK/prefilter_metrics.json" \
    --motifs=0 > "$WORK/prefilter_run.log"

python3 - "$WORK/prefilter_metrics.json" <<'EOF'
import json, sys

metrics = json.load(open(sys.argv[1]))
c = metrics["counters"]
g = metrics["gauges"]
for key in ("prefilter.blocks_total", "prefilter.blocks_skipped",
            "prefilter.blocks_verified", "prefilter.cols_skipped",
            "prefilter.cols_verified", "prefilter.cols_missed"):
    assert key in c, (key, sorted(c))
assert c["prefilter.blocks_total"] > 0, c
assert c["prefilter.cols_skipped"] > 0, "no skips on the smooth workload"
assert (c["prefilter.blocks_skipped"] + c["prefilter.blocks_verified"]
        <= c["prefilter.blocks_total"]), c
assert c["prefilter.cols_missed"] <= c["prefilter.cols_verified"], c
rate = g.get("prefilter.miss_rate")
assert rate is not None, sorted(g)
verified = c["prefilter.cols_verified"]
expected = c["prefilter.cols_missed"] / verified if verified else 0.0
assert abs(rate - expected) < 1e-12, (rate, expected)
assert rate <= 0.05, f"measured miss rate {rate} above the 0.05 budget"
# The prefiltered rows run temporal-blocked: one pool dispatch per 16-row
# score batch plus the precalc launches, never one per row.
rows = 3 * 911 - 400 + 1
runs = (c["thread_pool.parallel_for.dispatches"]
        + c["thread_pool.parallel_for.inline_runs"])
assert runs <= -(-rows // 16) + 3, f"{runs} pool runs for {rows} rows"
print(f"prefilter metrics OK (skipped {c['prefilter.cols_skipped']} cols, "
      f"miss rate {rate})")
EOF

echo "cli metrics OK"
