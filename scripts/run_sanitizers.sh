#!/usr/bin/env bash
# Builds and tests the project under ThreadSanitizer and ASan+UBSan.
#
#   scripts/run_sanitizers.sh [thread|address]...
#
# With no arguments both sanitizers run.  Each uses its own build tree
# (build-tsan / build-asan) so the regular build/ stays untouched.
# Benchmarks are skipped: google-benchmark is rarely built with the
# sanitizer runtimes, and the unit + integration tests cover the
# concurrency paths (streams, resilient scheduler) the sanitizers exist
# to check.
set -euo pipefail
cd "$(dirname "$0")/.."

run_one() {
  local kind=$1 dir flags
  case "$kind" in
    thread)  dir=build-tsan ;;
    address) dir=build-asan ;;
    *) echo "unknown sanitizer '$kind' (want thread or address)" >&2
       exit 2 ;;
  esac
  echo "=== $kind sanitizer -> $dir ==="
  cmake -B "$dir" -S . \
      -DMPSIM_SANITIZE="$kind" \
      -DMPSIM_BUILD_BENCH=OFF \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  # The chaos and cluster legs must be deterministic, not merely pass
  # once: node faults fire at claims fixed when the tiles are dealt, so a
  # seeded fault fires the same under any interleaving.  Repeat them 20
  # times or until one fails.
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
      --repeat until-fail:20 \
      -R '^(ElasticCoordinator\.|tool_cli_cluster$|tool_cli_chaos_soak$)'
  # The explicit SIMD kernels do raw intrinsic loads/stores and the
  # engine's row loop (fused_rows_blocked) hands column chunks of a row
  # batch, halo recomputation included, to pool workers; run the dispatch
  # bit-equality suite, the blocked-row tests and the prefiltered blocked
  # batches once per MPSIM_SIMD level so the env request path and every
  # kernel variant sit under the sanitizer (the level clamps to the host,
  # so this is safe on any machine).  The prefilter legs also cover the
  # sketch layer's split passes: range sketching inside the GEMM-seed
  # launch and concurrent flag_cols writes inside the row dispatch, across
  # pool sizes and against the serial build / score_batch.
  for level in scalar f16c avx2; do
    MPSIM_SIMD=$level "$dir"/tests/test_simd_dispatch \
        --gtest_filter='SimdDispatchEquality.PaperModesNanPoisoned:SimdDispatchEquality.BatchedVersusUnbatchedRows:BlockedRows.*'
    MPSIM_SIMD=$level "$dir"/tests/test_sketch_prefilter \
        --gtest_filter='SketchPrefilter.BlockedBatchesMatchPerRowDispatch:SketchPrefilter.PoolSizesMatchOneWorker:SketchPrefilter.Split*'
  done
  if [ "$kind" = thread ]; then
    # Hammer the lock-free metrics registry beyond the single CTest pass:
    # repeated runs of the concurrent-recording tests give TSan many more
    # thread interleavings of the relaxed-atomic hot path to inspect.
    "$dir"/tests/test_runtime_metrics \
        --gtest_filter='RuntimeMetrics.Concurrent*' --gtest_repeat=25
    # The watchdog/speculation/cancellation machinery is the raciest code
    # in the tree (monitor thread + per-device workers + first-finisher
    # commits); soak it repeatedly under TSan, then run the full chaos
    # script against the sanitized CLI.
    "$dir"/tests/test_faults \
        --gtest_filter='ResilientScheduler.Watchdog*:ResilientScheduler.RepeatedHangs*' \
        --gtest_repeat=5
    bash tests/chaos_soak_test.sh "$dir"
    # The elastic coordinator runs a monitor thread plus one shard
    # scheduler (monitor + device workers) per simulated node; soak the
    # cross-node recovery paths and the full multi-node identity leg.
    "$dir"/tests/test_cluster --gtest_filter='ElasticCoordinator.*' \
        --gtest_repeat=3
    bash tests/cli_cluster_test.sh "$dir"
    # The serve daemon adds accept/connection/executor threads on top of
    # the scheduler; soak the in-process server end-to-end, the SIGTERM
    # drain-vs-admission race, and the full concurrent-client shell leg
    # under TSan.
    "$dir"/tests/test_serve --gtest_filter='ServeServer.*' --gtest_repeat=5
    "$dir"/tests/test_serve \
        --gtest_filter='ServeJobQueue.ConcurrentDrain*' --gtest_repeat=10
    if command -v python3 >/dev/null; then
      bash tests/cli_serve_test.sh "$dir"
    fi
  fi
}

if [ $# -eq 0 ]; then
  set -- thread address
fi
for kind in "$@"; do
  run_one "$kind"
done
echo "all sanitizer runs passed"
