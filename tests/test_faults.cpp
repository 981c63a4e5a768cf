// Fault injection and the resilient multi-tile scheduler: transient
// kernel faults must be retried without changing the FP64 result
// bit-for-bit, a device lost mid-run must be blacklisted and its tiles
// reassigned, an all-devices-lost run must finish on the CPU reference
// path, and NaN-poisoned reduced-precision tiles must escalate one
// precision rung and re-run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/faults.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tuning.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

using gpusim::FaultInjector;
using gpusim::FaultKind;
using gpusim::FaultRule;
using gpusim::FaultSite;
using gpusim::FaultSpec;
using gpusim::parse_fault_spec;

SyntheticDataset small_dataset(std::size_t segments = 200,
                               std::size_t dims = 2,
                               std::size_t window = 16,
                               std::uint64_t seed = 31) {
  SyntheticSpec spec;
  spec.segments = segments;
  spec.dims = dims;
  spec.window = window;
  spec.injections_per_dim = 2;
  spec.seed = seed;
  return make_synthetic_dataset(spec);
}

// ---------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------

TEST(FaultSpecParsing, ParsesFullSpec) {
  const FaultSpec spec = parse_fault_spec(
      "seed=42,kernel@0:at=5,offline@1:at=12,nan:every=2:frac=0.5,"
      "copy:p=0.25,bitflip@3:at=1:frac=1.0");
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.rules.size(), 5u);

  EXPECT_EQ(spec.rules[0].kind, FaultKind::kKernelLaunch);
  EXPECT_EQ(spec.rules[0].device, 0);
  EXPECT_EQ(spec.rules[0].at, 5u);

  EXPECT_EQ(spec.rules[1].kind, FaultKind::kDeviceOffline);
  EXPECT_EQ(spec.rules[1].device, 1);
  EXPECT_EQ(spec.rules[1].at, 12u);

  EXPECT_EQ(spec.rules[2].kind, FaultKind::kNaNPoison);
  EXPECT_EQ(spec.rules[2].device, -1);
  EXPECT_EQ(spec.rules[2].every, 2u);
  EXPECT_DOUBLE_EQ(spec.rules[2].fraction, 0.5);

  EXPECT_EQ(spec.rules[3].kind, FaultKind::kCopy);
  EXPECT_DOUBLE_EQ(spec.rules[3].probability, 0.25);

  EXPECT_EQ(spec.rules[4].kind, FaultKind::kBitFlip);
  EXPECT_EQ(spec.rules[4].device, 3);
  EXPECT_DOUBLE_EQ(spec.rules[4].fraction, 1.0);
}

TEST(FaultSpecParsing, ParsesHangAndSlowdownRules) {
  const FaultSpec spec =
      parse_fault_spec("hang@0:at=3:ms=60000,slow@1:p=0.5:ms=25,slow:every=4");
  ASSERT_EQ(spec.rules.size(), 3u);
  EXPECT_EQ(spec.rules[0].kind, FaultKind::kHang);
  EXPECT_EQ(spec.rules[0].device, 0);
  EXPECT_EQ(spec.rules[0].at, 3u);
  EXPECT_DOUBLE_EQ(spec.rules[0].delay_ms, 60000.0);
  EXPECT_EQ(spec.rules[1].kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(spec.rules[1].delay_ms, 25.0);
  // No ms= → the kind's default (an hour-scale stall for hangs, a small
  // perturbation for slowdowns).
  EXPECT_LT(spec.rules[2].delay_ms, 0.0);
}

TEST(FaultSpecParsing, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("bogus:at=1"), ConfigError);
  EXPECT_THROW(parse_fault_spec("kernel@0"), ConfigError);  // no trigger
  EXPECT_THROW(parse_fault_spec("offline:at=1"), ConfigError);  // no device
  EXPECT_THROW(parse_fault_spec("kernel@0:wat=1"), ConfigError);
  EXPECT_THROW(parse_fault_spec("kernel@zero:at=1"), ConfigError);
}

// ---------------------------------------------------------------------
// Injector mechanics.
// ---------------------------------------------------------------------

TEST(FaultInjectorBasics, TransientRuleFiresAtExactEventCount) {
  FaultInjector injector;
  injector.configure("kernel@0:at=2");
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"));
  EXPECT_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"),
               TransientFaultError);
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"));
  // Another device's counter is independent.
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 1, "k"));
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 1, "k"));
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].sequence, 2u);
  EXPECT_EQ(injector.fault_count(), 1u);
}

TEST(FaultInjectorBasics, OfflineIsPermanent) {
  FaultInjector injector;
  injector.configure("offline@0:at=1");
  EXPECT_FALSE(injector.device_offline(0));
  EXPECT_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"),
               DeviceFailedError);
  EXPECT_TRUE(injector.device_offline(0));
  EXPECT_FALSE(injector.device_offline(1));
  // Every later event on the dead device keeps failing, copies included.
  EXPECT_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"),
               DeviceFailedError);
  EXPECT_THROW(injector.fire(FaultSite::kCopyH2D, 0, "c"),
               DeviceFailedError);
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 1, "k"));
}

TEST(FaultInjectorBasics, NanPoisonCorruptsRequestedFraction) {
  FaultInjector injector;
  injector.configure("seed=9,nan@0:at=1:frac=0.5");
  std::vector<double> data(100, 1.0);
  const std::size_t hit = injector.corrupt_span(0, data.data(), data.size());
  EXPECT_EQ(hit, 50u);
  std::size_t nans = 0;
  for (const double v : data) {
    if (std::isnan(v)) ++nans;
  }
  EXPECT_EQ(nans, 50u);
  // at=1 spent: a second staging event passes through untouched.
  std::vector<double> clean(100, 1.0);
  EXPECT_EQ(injector.corrupt_span(0, clean.data(), clean.size()), 0u);
}

TEST(FaultInjectorBasics, BitFlipAltersEveryChosenElement) {
  FaultInjector injector;
  injector.configure("seed=9,bitflip@0:at=1:frac=1.0");
  std::vector<double> data(64);
  for (std::size_t e = 0; e < data.size(); ++e) data[e] = double(e) + 0.5;
  const std::vector<double> before = data;
  EXPECT_EQ(injector.corrupt_span(0, data.data(), data.size()), data.size());
  for (std::size_t e = 0; e < data.size(); ++e) {
    EXPECT_NE(std::memcmp(&data[e], &before[e], sizeof(double)), 0)
        << "element " << e;
  }
}

// ---------------------------------------------------------------------
// The hard invariant: an FP64 run surviving injected transient faults
// and a permanent device loss is bit-identical to the fault-free run.
// ---------------------------------------------------------------------

TEST(ResilientScheduler, Fp64SurvivesFaultsBitIdentically) {
  const auto data = small_dataset();
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP64;
  config.tiles = 8;
  config.devices = 2;

  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);
  EXPECT_FALSE(clean.health.degraded);
  EXPECT_EQ(clean.health.faults_injected, 0);

  // Three transient kernel faults on device 0 plus a permanent loss of
  // device 1 partway through its kernel stream.
  FaultInjector injector;
  injector.configure(
      "seed=5,kernel@0:at=4,kernel@0:at=11,kernel@0:at=27,offline@1:at=40");
  config.fault_injector = &injector;
  const auto faulty = compute_matrix_profile(data.reference, data.query,
                                             config);

  EXPECT_EQ(faulty.profile, clean.profile);
  EXPECT_EQ(faulty.index, clean.index);

  const RunHealth& health = faulty.health;
  EXPECT_TRUE(health.degraded);
  EXPECT_GE(health.faults_injected, 4);
  EXPECT_GE(health.retries, 3);
  EXPECT_GE(health.blacklist_events, 1);
  EXPECT_GE(health.reassigned_tiles, 1);
  ASSERT_EQ(health.devices.size(), 2u);
  EXPECT_TRUE(health.devices[1].blacklisted);
  EXPECT_TRUE(health.devices[1].offline);
  EXPECT_FALSE(health.devices[0].blacklisted);
  EXPECT_FALSE(health.events.empty());
  // Typed events: the retry lines carry the tile/device they happened on.
  bool saw_retry = false;
  for (const auto& event : health.events) {
    if (event.kind == RunEvent::Kind::kRetry) {
      saw_retry = true;
      EXPECT_GE(event.tile_id, 0);
      EXPECT_GE(event.device, 0);
      EXPECT_NE(event.to_string().find("retry"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(injector.device_offline(1));
  EXPECT_EQ(health.escalations.size(), 0u);
}

TEST(ResilientScheduler, AllDevicesLostFallsBackToCpu) {
  const auto data = small_dataset(150, 2, 16, 7);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP64;
  config.tiles = 4;
  config.devices = 2;

  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  FaultInjector injector;
  injector.configure("offline@0:at=1,offline@1:at=1");
  config.fault_injector = &injector;
  const auto faulty = compute_matrix_profile(data.reference, data.query,
                                             config);

  // The CPU reference path is bit-identical to the FP64 engine per tile,
  // so graceful degradation loses no accuracy at all.
  EXPECT_EQ(faulty.profile, clean.profile);
  EXPECT_EQ(faulty.index, clean.index);
  EXPECT_TRUE(faulty.health.degraded);
  EXPECT_GE(faulty.health.cpu_fallback_tiles, 4);
  EXPECT_EQ(faulty.health.blacklist_events, 2);
  EXPECT_TRUE(faulty.health.devices[0].offline);
  EXPECT_TRUE(faulty.health.devices[1].offline);
  // No device ran anything to completion.
  EXPECT_EQ(faulty.health.devices[0].tiles_completed, 0);
  EXPECT_EQ(faulty.health.devices[1].tiles_completed, 0);
  // The modelled seconds are the plan's, not the executing devices'.
  EXPECT_EQ(faulty.modeled_device_seconds, clean.modeled_device_seconds);
  EXPECT_EQ(faulty.modeled_merge_seconds, clean.modeled_merge_seconds);
}

// ---------------------------------------------------------------------
// Numerical self-healing: NaN-poisoned FP16 tiles escalate and re-run.
// ---------------------------------------------------------------------

TEST(ResilientScheduler, NanPoisonedFp16TileEscalates) {
  const auto data = small_dataset(150, 2, 16, 9);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP16;
  config.tiles = 1;
  config.resilience.escalate_precision = true;

  // Poison 20% of the first staged reference buffer: nearly every window
  // overlaps a NaN, so the whole tile profile goes non-finite.
  FaultInjector injector;
  injector.configure("seed=3,nan@0:at=1:frac=0.2");
  config.fault_injector = &injector;
  const auto result = compute_matrix_profile(data.reference, data.query,
                                             config);

  ASSERT_GE(result.health.escalations.size(), 1u);
  EXPECT_EQ(result.health.escalations[0].from, PrecisionMode::FP16);
  EXPECT_EQ(result.health.escalations[0].to, PrecisionMode::Mixed);
  EXPECT_GT(result.health.escalations[0].non_finite_fraction,
            kNonFiniteThreshold);
  // The re-run is clean: the poison rule was a one-shot.
  EXPECT_LE(non_finite_fraction(result.profile), kNonFiniteThreshold);
}

TEST(ResilientScheduler, EscalationLadderStopsAtFp64) {
  EXPECT_EQ(escalated_precision(PrecisionMode::FP16), PrecisionMode::Mixed);
  EXPECT_EQ(escalated_precision(PrecisionMode::Mixed), PrecisionMode::FP32);
  EXPECT_EQ(escalated_precision(PrecisionMode::FP32), PrecisionMode::FP64);
  EXPECT_EQ(escalated_precision(PrecisionMode::FP64), PrecisionMode::FP64);
}

TEST(ResilientScheduler, EscalationOffByDefaultKeepsReducedPrecision) {
  const auto data = small_dataset(120, 2, 16, 10);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP16;
  config.tiles = 1;

  FaultInjector injector;
  injector.configure("seed=3,nan@0:at=1:frac=0.2");
  config.fault_injector = &injector;
  const auto result = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_EQ(result.health.escalations.size(), 0u);
}

// ---------------------------------------------------------------------
// Hangs, the watchdog, and speculative re-execution.
// ---------------------------------------------------------------------

TEST(FaultInjectorBasics, SlowdownStallsButReturns) {
  FaultInjector injector;
  injector.configure("slow@0:at=1:ms=30");
  Stopwatch sw;
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k"));
  EXPECT_GE(sw.seconds(), 0.025);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].kind, FaultKind::kSlowdown);
}

TEST(FaultInjectorBasics, HangIsCancellable) {
  FaultInjector injector;
  injector.configure("hang@0:at=1:ms=60000");
  gpusim::CancellationToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  Stopwatch sw;
  EXPECT_THROW(injector.fire(FaultSite::kKernelLaunch, 0, "k", &token),
               CancelledError);
  canceller.join();
  // The minute-long stall unwound within the cancellation latency, not
  // the rule's duration.
  EXPECT_LT(sw.seconds(), 10.0);
}

TEST(FaultInjectorBasics, HangDoesNotStallOtherDevices) {
  // The stall must happen outside the injector's lock: while device 0
  // hangs, device 1's fault points keep flowing.
  FaultInjector injector;
  injector.configure("hang@0:at=1:ms=400");
  std::thread hung([&injector] {
    injector.fire(FaultSite::kKernelLaunch, 0, "k");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch sw;
  EXPECT_NO_THROW(injector.fire(FaultSite::kKernelLaunch, 1, "k"));
  EXPECT_LT(sw.seconds(), 0.2);
  hung.join();
}

TEST(ResilientScheduler, WatchdogSpeculationBeatsHungDevice) {
  const auto data = small_dataset(160, 2, 16, 11);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP64;
  config.tiles = 4;
  config.devices = 2;
  config.resilience.watchdog = true;

  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  // Device 0's second kernel launch stalls for a minute — without the
  // watchdog the run would take that long.  The backup on device 1 wins
  // and the hung attempt is cancelled, so the whole run stays well under
  // the stall duration.
  FaultInjector injector;
  injector.configure("hang@0:at=2:ms=60000");
  config.fault_injector = &injector;
  Stopwatch sw;
  const auto faulty = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_LT(sw.seconds(), 30.0);

  EXPECT_EQ(faulty.profile, clean.profile);
  EXPECT_EQ(faulty.index, clean.index);
  EXPECT_TRUE(faulty.health.degraded);
  EXPECT_GE(faulty.health.watchdog_fires, 1);
  EXPECT_GE(faulty.health.speculative_wins + faulty.health.retries, 1);
  bool saw_fire = false;
  for (const auto& event : faulty.health.events) {
    if (event.kind == RunEvent::Kind::kWatchdogFired) {
      saw_fire = true;
      EXPECT_EQ(event.device, 0);
      EXPECT_NE(event.to_string().find("watchdog"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_fire);
}

TEST(ResilientScheduler, UncalibratedWatchdogRescuesFirstTileHang) {
  const auto data = small_dataset(160, 2, 16, 14);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP64;
  config.tiles = 4;
  config.devices = 1;
  config.resilience.watchdog = true;

  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  // The first tile's second launch stalls for a minute on the only
  // device, before any attempt completed (no calibration, no peer for a
  // backup).  With no progress for kWatchdogSlack x kWatchdogMinDeadlineMs
  // the watchdog cancels the attempt and the retry commits the tile.
  FaultInjector injector;
  injector.configure("hang@0:at=2:ms=60000");
  config.fault_injector = &injector;
  Stopwatch sw;
  const auto faulty = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_LT(sw.seconds(), 10.0);

  EXPECT_EQ(faulty.profile, clean.profile);
  EXPECT_EQ(faulty.index, clean.index);
  EXPECT_TRUE(faulty.health.degraded);
  EXPECT_EQ(faulty.health.watchdog_fires, 1);
  EXPECT_EQ(faulty.health.speculative_wins, 0);
  ASSERT_EQ(faulty.health.devices.size(), 1u);
  EXPECT_FALSE(faulty.health.devices[0].blacklisted);  // no strike
  EXPECT_EQ(faulty.health.devices[0].tiles_completed, 4);
}

TEST(ResilientScheduler, RepeatedHangsBlacklistTheDevice) {
  const auto data = small_dataset(160, 2, 16, 12);
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP64;
  config.tiles = 6;
  config.devices = 2;
  config.resilience.watchdog = true;

  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  // Every kernel launch on device 0 hangs: after kBlacklistAfter deadline
  // overruns the device is dropped and its tiles finish on device 1.
  FaultInjector injector;
  injector.configure("hang@0:every=1:ms=60000");
  config.fault_injector = &injector;
  Stopwatch sw;
  const auto faulty = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_LT(sw.seconds(), 60.0);

  EXPECT_EQ(faulty.profile, clean.profile);
  EXPECT_EQ(faulty.index, clean.index);
  EXPECT_GE(faulty.health.watchdog_fires, kBlacklistAfter);
  ASSERT_EQ(faulty.health.devices.size(), 2u);
  EXPECT_TRUE(faulty.health.devices[0].blacklisted);
  EXPECT_FALSE(faulty.health.devices[0].offline);
  EXPECT_EQ(faulty.health.devices[0].tiles_completed, 0);
  EXPECT_GE(faulty.health.devices[1].tiles_completed, 6);
}

// ---------------------------------------------------------------------
// Memory-pressure tile splitting.
// ---------------------------------------------------------------------

TEST(ResilientScheduler, MemoryPressureSplitsTileBitIdentically) {
  const auto data = small_dataset(200, 2, 16, 13);
  const std::size_t window = 16;
  const std::size_t n_r = data.reference.segment_count(window);
  const std::size_t n_q = data.query.segment_count(window);
  const std::size_t dims = data.reference.dims();

  for (const RowPath path : {RowPath::kAuto, RowPath::kCooperative}) {
    SCOPED_TRACE(path == RowPath::kAuto ? "fused" : "cooperative");
    MatrixProfileConfig config;
    config.window = window;
    config.mode = PrecisionMode::FP64;
    config.tiles = 1;
    config.row_path = path;

    // The single tile's device working set, from the tuner's mirror of
    // the engine's allocations (the fused path skips the distance / scan
    // row buffers).  It fits at exactly that capacity; one byte short it
    // cannot, and must split along the row axis instead of failing.
    const auto working_set = [&](std::size_t rows) {
      return path == RowPath::kAuto
                 ? fused_tile_working_set_bytes(rows, n_q, dims, window,
                                                config.mode)
                 : tile_working_set_bytes(rows, n_q, dims, window,
                                          config.mode);
    };
    const std::size_t peak = working_set(n_r);
    const auto one_tile = compute_matrix_profile(data.reference, data.query,
                                                 config);
    MatrixProfileConfig exact = config;
    exact.device_memory_bytes = peak;
    const auto fits = compute_matrix_profile(data.reference, data.query,
                                             exact);
    EXPECT_EQ(fits.health.tile_splits, 0);
    EXPECT_EQ(fits.profile, one_tile.profile);

    // The splitter halves the row range on the planner's split_range
    // boundaries (first half takes the extra row), so one forced split of
    // the single tile is the planner's tiles=2 run (a 2x1 grid): each row
    // sub-tile restarts the QT recurrence from its own precalculation
    // exactly like a planner tile does.  That run is the bit-identity
    // baseline; the unsplit single-tile run legitimately differs, because
    // row partitioning changes where the recurrence restarts.
    MatrixProfileConfig two_tiles = config;
    two_tiles.tiles = 2;
    const auto planner = compute_matrix_profile(data.reference, data.query,
                                                two_tiles);
    const std::size_t half_peak = working_set(n_r - n_r / 2);
    ASSERT_LT(half_peak, peak - 1);

    // One byte short of the full tile: it must split exactly once, and
    // both halves must then fit.
    config.device_memory_bytes = peak - 1;
    const auto squeezed = compute_matrix_profile(data.reference, data.query,
                                                 config);
    EXPECT_EQ(squeezed.health.tile_splits, 1);
    EXPECT_TRUE(squeezed.health.degraded);
    EXPECT_EQ(squeezed.profile, planner.profile);
    EXPECT_EQ(squeezed.index, planner.index);
    EXPECT_EQ(squeezed.segments, one_tile.segments);
    bool saw_split = false;
    for (const auto& event : squeezed.health.events) {
      if (event.kind == RunEvent::Kind::kTileSplit) {
        saw_split = true;
        EXPECT_NE(event.to_string().find("memory pressure"),
                  std::string::npos);
      }
    }
    EXPECT_TRUE(saw_split);
  }
}

TEST(ResilientScheduler, HopelessMemoryPressureFallsBackToCpu) {
  const auto data = small_dataset(120, 2, 16, 14);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 1;
  // A few kilobytes cannot hold any sub-tile at any split depth; the
  // allocation failure ends up a normal fault and the CPU finishes.
  config.device_memory_bytes = 4096;
  const auto result = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_GE(result.health.cpu_fallback_tiles, 1);

  MatrixProfileConfig unlimited = config;
  unlimited.device_memory_bytes = 0;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            unlimited);
  EXPECT_EQ(result.profile, clean.profile);
  EXPECT_EQ(result.index, clean.index);
}

// ---------------------------------------------------------------------
// Merge semantics under corruption.
// ---------------------------------------------------------------------

TEST(TileMerge, NanTileValuesNeverDisplaceFiniteEntries) {
  // Two tiles covering the same query range: one clean, one poisoned.
  const std::size_t n_q = 4, d = 1;
  std::vector<Tile> tiles(2);
  tiles[0] = Tile{0, 4, 0, n_q, 0, 0};
  tiles[1] = Tile{4, 4, 0, n_q, 0, 1};

  std::vector<TileResult> results(2);
  results[0].profile = {1.0, 2.0, 3.0, 4.0};
  results[0].index = {0, 1, 2, 3};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  results[1].profile = {nan, 0.5, nan,
                        std::numeric_limits<double>::infinity()};
  results[1].index = {4, 5, 6, 7};

  MatrixProfileResult out;
  merge_tile_results(tiles, results, n_q, d, out);
  EXPECT_EQ(out.profile[0], 1.0);  // NaN lost against finite
  EXPECT_EQ(out.index[0], 0);
  EXPECT_EQ(out.profile[1], 0.5);  // smaller finite value still wins
  EXPECT_EQ(out.index[1], 5);
  EXPECT_EQ(out.profile[2], 3.0);
  EXPECT_EQ(out.profile[3], 4.0);  // inf lost against finite

  // All-NaN column: the merge leaves the identity (+inf, -1) rather than
  // propagating NaN.
  results[0].profile[0] = nan;
  results[0].index[0] = -1;
  results[1].index[0] = -1;
  merge_tile_results(tiles, results, n_q, d, out);
  EXPECT_TRUE(std::isinf(out.profile[0]));
  EXPECT_EQ(out.index[0], -1);
}

TEST(TileMerge, NonFiniteFractionCountsNanAndInf) {
  EXPECT_DOUBLE_EQ(non_finite_fraction({}), 0.0);
  EXPECT_DOUBLE_EQ(non_finite_fraction({1.0, 2.0}), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(non_finite_fraction({nan, inf, 1.0, 2.0}), 0.5);
}

}  // namespace
}  // namespace mpsim::mp
