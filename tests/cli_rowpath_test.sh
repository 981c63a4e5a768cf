#!/usr/bin/env bash
# CTest smoke leg of the fused row pipeline: run mpsim_cli once with each
# per-row execution path (auto resolves to fused at these dimensionalities)
# and diff the profiles byte-for-byte — the fused path's bit-identity
# contract, checked end-to-end through the CLI.
# Covers a multi-dimensional padded case (d=3), the d=1 skip-sort path,
# reduced precision, a NaN fault-injected run, and a wide tile that runs
# temporal-blocked rows with QT halos.  $1 = build dir.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli_rowpath_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
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

# Three-sensor CSV (d=3 pads the Bitonic network to 4) and a single-sensor
# projection for the d=1 path.
awk 'BEGIN {
  srand(5); print "a,b,c";
  for (t = 0; t < 400; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    c = sin(t / 5.0) * 0.7 + (rand() - 0.5) * 0.3;
    printf "%.6f,%.6f,%.6f\n", a, b, c;
  }
}' > "$WORK/ref3.csv"
cut -d, -f1 "$WORK/ref3.csv" > "$WORK/ref1.csv"

run() {  # run <path> <outfile> <extra args...>
  local path=$1 out=$2
  shift 2
  "$BUILD/tools/mpsim_cli" --row-path="$path" --output="$out" "$@" \
      > "${out%.csv}.log"
}

# d=3 self-join, FP64 and FP16, both paths must agree byte-for-byte.
for mode in FP64 FP16 Mixed; do
  run auto "$WORK/f_$mode.csv" --reference="$WORK/ref3.csv" --self-join \
      --window=32 --mode="$mode" --tiles=2
  run cooperative "$WORK/c_$mode.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode="$mode" --tiles=2
  cmp "$WORK/f_$mode.csv" "$WORK/c_$mode.csv"
done

# d=1: the sort kernel is skipped on both paths.
run auto "$WORK/f_d1.csv" --reference="$WORK/ref1.csv" --self-join \
    --window=32
run cooperative "$WORK/c_d1.csv" --reference="$WORK/ref1.csv" --self-join \
    --window=32
cmp "$WORK/f_d1.csv" "$WORK/c_d1.csv"

# NaN-poisoned staged inputs: the same injector seed corrupts the same
# bytes, so the poisoned profiles must still match across paths.
for path in auto cooperative; do
  run "$path" "$WORK/${path}_nan.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode=FP16 \
      --faults="seed=9,nan@0:at=1:frac=0.05"
done
cmp "$WORK/auto_nan.csv" "$WORK/cooperative_nan.csv"

# --simd= is a pure performance knob: every dispatch level must produce
# byte-identical profiles (levels above the host clamp, so asking for
# avx2 or avx512fp16 is safe anywhere).  BF16 rides along to cover the
# AVX2 payload kernels; the NaN-fault FP16 runs drive the vector kernels'
# scalar fallbacks through the CLI.
for mode in FP64 FP16 BF16; do
  run auto "$WORK/s_scalar_$mode.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode="$mode" --tiles=2 --simd=scalar
  for level in f16c avx2 avx512fp16 auto; do
    run auto "$WORK/s_${level}_$mode.csv" --reference="$WORK/ref3.csv" \
        --self-join --window=32 --mode="$mode" --tiles=2 --simd="$level"
    cmp "$WORK/s_${level}_$mode.csv" "$WORK/s_scalar_$mode.csv"
  done
done
for level in scalar avx2 auto; do
  run auto "$WORK/s_${level}_nan.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode=FP16 --simd="$level" \
      --faults="seed=9,nan@0:at=1:frac=0.05"
done
cmp "$WORK/s_auto_nan.csv" "$WORK/s_scalar_nan.csv"
cmp "$WORK/s_avx2_nan.csv" "$WORK/s_scalar_nan.csv"

# Temporal-blocked rows with halos: an FP16 d=4 AB-join whose one tile
# is 2100 columns wide.  On a host with two or more cores the column
# chunks are at least 256 wide, so every full batch runs 64 rows and each
# chunk recomputes a 63-column QT halo.  Byte-diffed against the
# cooperative path and against --simd=scalar.
four_sensors() {  # four_sensors <seed> <samples> <phase>
  awk -v seed="$1" -v n="$2" -v phase="$3" 'BEGIN {
    srand(seed); print "a,b,c,d";
    for (t = 0; t < n; ++t) {
      u = t + phase;
      printf "%.6f,%.6f,%.6f,%.6f\n", sin(u / 9.0) + (rand() - 0.5) * 0.4,
          cos(u / 13.0) + (rand() - 0.5) * 0.4,
          sin(u / 5.0) * 0.7 + (rand() - 0.5) * 0.3, (rand() - 0.5) * 2.0;
    }
  }'
}
four_sensors 21 331 0 > "$WORK/ref4.csv"
four_sensors 22 2131 40 > "$WORK/qry4.csv"
blocked=(--reference="$WORK/ref4.csv" --query="$WORK/qry4.csv" --window=32
         --mode=FP16 --tiles=1 --devices=1)
run auto "$WORK/b_fused.csv" "${blocked[@]}"
run cooperative "$WORK/b_cooperative.csv" "${blocked[@]}"
run auto "$WORK/b_scalar.csv" "${blocked[@]}" --simd=scalar
cmp "$WORK/b_fused.csv" "$WORK/b_cooperative.csv"
cmp "$WORK/b_fused.csv" "$WORK/b_scalar.csv"

# The metrics JSON reports the dispatch variant each stage ran with.
run auto "$WORK/m.csv" --reference="$WORK/ref3.csv" --self-join \
    --window=32 --mode=FP16 --simd=scalar --metrics-out="$WORK/metrics.json"
for stage in dist_calc sort_scan merge precalc; do
  grep -q "\"simd.$stage.scalar\"" "$WORK/metrics.json" || {
    echo "metrics.json missing simd.$stage.scalar" >&2
    cat "$WORK/metrics.json" >&2
    exit 1
  }
done

echo "cli row-path OK"
