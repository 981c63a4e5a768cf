// Tests for the automatic tile-count tuner (§III-B's "careful selection
// of the number of tiles", implemented).
#include <gtest/gtest.h>

#include "metrics/accuracy.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/tuning.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

TileTuningRequest paper_request(PrecisionMode mode) {
  TileTuningRequest request;
  request.n_r = request.n_q = 1 << 16;
  request.dims = 1 << 6;
  request.window = 1 << 6;
  request.mode = mode;
  request.devices = 1;
  return request;
}

TEST(TileTuner, Fp64NeedsNoExtraTilesAtPaperScale) {
  const auto result = suggest_tiles(paper_request(PrecisionMode::FP64),
                                    gpusim::a100());
  EXPECT_EQ(result.tiles, 1);
  EXPECT_FALSE(result.accuracy_limited);
  EXPECT_FALSE(result.memory_limited);
}

TEST(TileTuner, Fp16BoundsTheRecurrenceLength) {
  // Fig. 7 finds hundreds of (square) tiles the FP16 sweet spot at
  // n=2^16; the tuner reaches the same per-tile recurrence bound more
  // cheaply with row-strip tilings, so assert the binding quantity: the
  // rows per tile obey the diffusive error bound (tol/eps)^2 ~ 3777.
  const auto result = suggest_tiles(paper_request(PrecisionMode::FP16),
                                    gpusim::a100());
  EXPECT_TRUE(result.accuracy_limited);
  EXPECT_GT(result.tiles, 1);
  EXPECT_LE(result.tile_rows, 3800u);
  // And the bound actually required splitting: one tile would be 2^16.
  EXPECT_LT(result.tile_rows, std::size_t(1) << 16);
}

TEST(TileTuner, MemoryConstraintForcesTilingForHugeProblems) {
  TileTuningRequest request;
  request.n_r = request.n_q = 1 << 23;  // 8M segments
  request.dims = 1 << 6;
  request.window = 1 << 7;
  request.mode = PrecisionMode::FP64;
  request.devices = 4;
  const auto result = suggest_tiles(request, gpusim::a100());
  EXPECT_TRUE(result.memory_limited);
  EXPECT_GT(result.tiles, 4);
  // The chosen tiling's working set actually fits the device.
  EXPECT_LT(double(result.tile_bytes), 0.8 * double(40ull << 30));
}

TEST(TileTuner, TileCountIsMultipleOfDeviceCount) {
  for (int devices : {1, 3, 4, 7}) {
    auto request = paper_request(PrecisionMode::FP16);
    request.devices = devices;
    const auto result = suggest_tiles(request, gpusim::a100());
    EXPECT_EQ(result.tiles % devices, 0) << devices;
  }
}

TEST(TileTuner, TighterToleranceMeansMoreTiles) {
  auto request = paper_request(PrecisionMode::FP16);
  request.correlation_tolerance = 0.05;
  const int loose = suggest_tiles(request, gpusim::a100()).tiles;
  request.correlation_tolerance = 0.01;
  const int tight = suggest_tiles(request, gpusim::a100()).tiles;
  EXPECT_GT(tight, loose);
}

TEST(TileTuner, FusedRequestsUseTheFusedFootprint) {
  // A device whose capacity sits between the fused and the cooperative
  // working set of the untiled problem: only a cooperative request is
  // memory-limited.
  TileTuningRequest request;
  request.n_r = request.n_q = 4096;
  request.dims = 4;
  request.window = 64;
  request.mode = PrecisionMode::FP64;
  const std::size_t cooperative =
      tile_working_set_bytes(4096, 4096, 4, 64, PrecisionMode::FP64);
  const std::size_t fused =
      fused_tile_working_set_bytes(4096, 4096, 4, 64, PrecisionMode::FP64);
  ASSERT_LT(fused, cooperative);
  gpusim::MachineSpec spec = gpusim::a100();
  spec.memory_capacity_bytes =
      std::size_t(double(fused + cooperative) / 2.0 / 0.8);

  const auto coop = suggest_tiles(request, spec);
  EXPECT_TRUE(coop.memory_limited);
  EXPECT_GT(coop.tiles, 1);

  request.fused_rows = true;
  const auto tuned = suggest_tiles(request, spec);
  EXPECT_FALSE(tuned.memory_limited);
  EXPECT_EQ(tuned.tiles, 1);
  EXPECT_EQ(tuned.tile_bytes, fused);
}

TEST(TileTuner, WorkingSetGrowsWithEveryDimension) {
  const std::size_t base = tile_working_set_bytes(1024, 1024, 8, 64,
                                                  PrecisionMode::FP64);
  EXPECT_GT(tile_working_set_bytes(2048, 1024, 8, 64, PrecisionMode::FP64),
            base);
  EXPECT_GT(tile_working_set_bytes(1024, 2048, 8, 64, PrecisionMode::FP64),
            base);
  EXPECT_GT(tile_working_set_bytes(1024, 1024, 16, 64, PrecisionMode::FP64),
            base);
  // Half precision halves the (dominant) storage-typed parts.
  EXPECT_LT(tile_working_set_bytes(1024, 1024, 8, 64, PrecisionMode::FP16),
            base);
}

TEST(TileTuner, SuggestedTilingDeliversAccuracyEndToEnd) {
  // Close the loop: run FP16 with the tuner's suggestion on real data and
  // check the recall beats the untiled run.
  SyntheticSpec spec;
  spec.segments = 1024;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  const auto data = make_synthetic_dataset(spec);
  CpuReferenceConfig cpu;
  cpu.window = 32;
  const auto exact =
      compute_matrix_profile_cpu(data.reference, data.query, cpu);

  TileTuningRequest request;
  request.n_r = request.n_q = 1024;
  request.dims = 4;
  request.window = 32;
  request.mode = PrecisionMode::FP16;
  request.correlation_tolerance = 0.005;  // n=1024 binds only when tight
  const auto tuned = suggest_tiles(request, gpusim::a100());
  ASSERT_GT(tuned.tiles, 1);

  MatrixProfileConfig config;
  config.window = 32;
  config.mode = PrecisionMode::FP16;
  config.tiles = 1;
  const auto untiled =
      compute_matrix_profile(data.reference, data.query, config);
  config.tiles = tuned.tiles;
  const auto tiled =
      compute_matrix_profile(data.reference, data.query, config);

  EXPECT_GE(metrics::recall_rate(tiled.index, exact.index) + 0.01,
            metrics::recall_rate(untiled.index, exact.index));
}

TEST(TileTuner, RejectsImpossibleRequests) {
  TileTuningRequest request;
  request.n_r = 0;
  EXPECT_THROW(suggest_tiles(request, gpusim::a100()), Error);
}

}  // namespace
}  // namespace mpsim::mp
