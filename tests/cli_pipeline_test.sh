#!/usr/bin/env bash
# End-to-end test of the command-line tools: generate CSVs with the
# library (via the quickstart-equivalent python-free path: mpsim_cli needs
# input files, so synthesise them here), run a profile in two precision
# modes, and diff them.  Driven by CTest; $1 = build dir with the tools.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)

# On any failure, dump what we have so CTest logs show *why* instead of a
# bare exit code; on success just clean up.
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli_pipeline_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
    echo "--- build dir: $BUILD" >&2
    ls -l "$BUILD/tools" >&2 || true
    for log in "$WORK"/*.log; do
      [ -f "$log" ] || continue
      echo "--- $log:" >&2
      cat "$log" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap 'FAILED_LINE=$LINENO' ERR
trap cleanup EXIT

# Synthesise a small two-sensor CSV pair with an embedded repeat.
awk 'BEGIN {
  srand(7); print "a,b";
  for (t = 0; t < 500; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"
awk 'BEGIN {
  srand(11); print "a,b";
  for (t = 0; t < 400; ++t) {
    a = sin((t + 40) / 9.0) + (rand() - 0.5) * 0.4;
    b = cos((t + 40) / 13.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/qry.csv"

"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
    --query="$WORK/qry.csv" --window=32 \
    --output="$WORK/fp64.csv" --motifs=2 > "$WORK/fp64.log"
grep -q "top motifs" "$WORK/fp64.log"

"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
    --query="$WORK/qry.csv" --window=32 --mode=Mixed \
    --tiles=4 --output="$WORK/mixed.csv" --motifs=0 > /dev/null

"$BUILD/tools/mpsim_diff" --baseline="$WORK/fp64.csv" \
    --test="$WORK/mixed.csv" --top=3 > "$WORK/diff.log"
grep -q "relative accuracy A" "$WORK/diff.log"
grep -q "1-dim" "$WORK/diff.log"

# Self-join with auto-tiles must run clean too.
"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" --self-join \
    --window=32 --auto-tiles --motifs=1 > "$WORK/self.log"
grep -q "auto-tiles:" "$WORK/self.log"

# Fault injection: transient kernel faults must be retried transparently
# and reported in the health summary, with the profile unchanged against
# a fault-free run of the *same* tiling (tiling itself moves FP64 ulps).
"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
    --query="$WORK/qry.csv" --window=32 --tiles=4 \
    --output="$WORK/tiled.csv" --motifs=0 > /dev/null
"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
    --query="$WORK/qry.csv" --window=32 --tiles=4 \
    --faults="seed=7,kernel@0:at=2,kernel@0:at=9" \
    --output="$WORK/faulty.csv" --motifs=0 > "$WORK/faults.log"
grep -q "run health: DEGRADED" "$WORK/faults.log"
grep -q "retry" "$WORK/faults.log"
cmp "$WORK/tiled.csv" "$WORK/faulty.csv"

# Out-of-range numbers are rejected up front (exit 1), naming the flag: a
# fleet over 64 devices (each starts a worker thread and a pool), a
# negative memory cap and one whose byte count overflows (either would
# wrap), and negative slicing / chaos counts.
reject() {
  local flag=$1 rc=0
  shift
  "$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
      --query="$WORK/qry.csv" --window=32 --tiles=4 "$@" \
      > "$WORK/reject.log" 2>&1 || rc=$?
  [ "$rc" -eq 1 ]
  grep -q -- "$flag" "$WORK/reject.log"
}
reject --devices --devices=65
reject --device-memory-mb --device-memory-mb=-1
reject --device-memory-mb --device-memory-mb=17592186044416
reject --slice-rows --checkpoint="$WORK/neg.ckpt" --slice-rows=-4
reject --kill-after-tiles --kill-after-tiles=-1
reject --kill-after-slices --kill-after-slices=-1

# Bad user input is the user's error: stderr says what is wrong (naming
# the flag or file) and shows none of the check's internals (no source
# location, no C++ condition).
user_error() {
  local what=$1 rc=0
  shift
  "$@" > "$WORK/user_error.out" 2> "$WORK/user_error.log" || rc=$?
  [ "$rc" -eq 1 ]
  grep -q -- "$what" "$WORK/user_error.log"
  if grep -q -e "MPSIM_CHECK" -e "\.cpp:" "$WORK/user_error.log"; then
    echo "$what: the error message leaked internals" >&2
    exit 1
  fi
}
user_error --steal "$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
    --query="$WORK/qry.csv" --window=32 --steal=maybe
# A negative count is an error naming the flag, not a wrap to 2^64, and
# it is caught before any profile is computed.
for bad in --window=-5 --motifs=-1; do
  user_error "$bad" "$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
      --query="$WORK/qry.csv" --window=32 "$bad"
  if grep -q "computed" "$WORK/user_error.out"; then
    echo "$bad: rejected after the run" >&2
    exit 1
  fi
done
# --chains and --repair are gone: they are unknown flags now.
for gone in chains repair; do
  user_error "unknown flag --$gone" "$BUILD/tools/mpsim_cli" \
      --reference="$WORK/ref.csv" --self-join --window=32 --"$gone"
done
user_error "different shapes" "$BUILD/tools/mpsim_diff" \
    --baseline="$WORK/ref.csv" --test="$WORK/qry.csv"

# An unwritable output file is a clean error before any work (exit 1, the
# flag named, never an abort): the checkpoint journal, the profile CSV and
# both observability files.
for flag in checkpoint output metrics-out trace-out; do
  user_error "--$flag" "$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" \
      --query="$WORK/qry.csv" --window=32 --tiles=4 --devices=2 \
      --checkpoint-interval=1 --"$flag"="$WORK/missing/dir/$flag.out"
  if grep -q "computed" "$WORK/user_error.out"; then
    echo "--$flag: unwritable file rejected after the run" >&2
    exit 1
  fi
done

echo "cli pipeline OK"
