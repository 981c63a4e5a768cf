// Correctness tests of the matrix-profile engines: the FP64 GPU simulator
// must agree bit-for-bit with the CPU reference (as the paper reports) and
// within tolerance with the independent brute-force oracle; multi-tile
// execution must merge to the single-tile result; self-join exclusion and
// argmin tie-breaking must hold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "oracles/brute_force.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

SyntheticDataset small_dataset(std::size_t segments = 256, std::size_t dims = 4,
                               std::size_t window = 16,
                               std::uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.segments = segments;
  spec.dims = dims;
  spec.window = window;
  spec.injections_per_dim = 2;
  spec.seed = seed;
  return make_synthetic_dataset(spec);
}

MatrixProfileConfig fp64_config(std::size_t window) {
  MatrixProfileConfig c;
  c.window = window;
  c.mode = PrecisionMode::FP64;
  return c;
}

TEST(MatrixProfileFp64, MatchesCpuReferenceBitExact) {
  const auto data = small_dataset();
  const auto gpu = compute_matrix_profile(data.reference, data.query,
                                          fp64_config(16));
  CpuReferenceConfig cpu_config;
  cpu_config.window = 16;
  const auto cpu =
      compute_matrix_profile_cpu(data.reference, data.query, cpu_config);

  ASSERT_EQ(gpu.profile.size(), cpu.profile.size());
  for (std::size_t e = 0; e < gpu.profile.size(); ++e) {
    EXPECT_EQ(gpu.profile[e], cpu.profile[e]) << "entry " << e;
    EXPECT_EQ(gpu.index[e], cpu.index[e]) << "entry " << e;
  }
}

TEST(MatrixProfileFp64, MatchesBruteForceOracle) {
  const auto data = small_dataset(128, 3, 12, 21);
  const auto gpu = compute_matrix_profile(data.reference, data.query,
                                          fp64_config(12));
  const auto oracle =
      compute_matrix_profile_brute_force(data.reference, data.query, 12);

  ASSERT_EQ(gpu.profile.size(), oracle.profile.size());
  std::size_t index_mismatches = 0;
  for (std::size_t e = 0; e < gpu.profile.size(); ++e) {
    EXPECT_NEAR(gpu.profile[e], oracle.profile[e], 1e-7) << "entry " << e;
    if (gpu.index[e] != oracle.index[e]) ++index_mismatches;
  }
  // Ties broken in a different summation order may flip an index on
  // exactly-equal distances; anything beyond a stray disagreement is a bug.
  EXPECT_LE(index_mismatches, gpu.profile.size() / 100);
}

TEST(MatrixProfileFp64, ProfileIsMonotoneAcrossDimensions) {
  // D''[k] is an average over the k+1 *smallest* per-dimension distances,
  // so adding dimensions can only grow each column's profile value.
  const auto data = small_dataset(200, 6, 16, 33);
  const auto r = compute_matrix_profile(data.reference, data.query,
                                        fp64_config(16));
  for (std::size_t j = 0; j < r.segments; ++j) {
    for (std::size_t k = 1; k < r.dims; ++k) {
      EXPECT_GE(r.at(j, k), r.at(j, k - 1) - 1e-12)
          << "column " << j << " dim " << k;
    }
  }
}

TEST(MatrixProfileFp64, SelfJoinWithoutExclusionIsZero) {
  // Joining a series against itself with no exclusion zone: every segment
  // matches itself at distance 0.
  const auto data = small_dataset(128, 2, 16, 5);
  const auto r = compute_matrix_profile(data.query, data.query,
                                        fp64_config(16));
  std::size_t self_indexed = 0;
  for (std::size_t j = 0; j < r.segments; ++j) {
    EXPECT_NEAR(r.at(j, 0), 0.0, 1e-6);
    if (r.index_at(j, 0) == std::int64_t(j)) ++self_indexed;
  }
  // Rounding can produce a sub-1e-7 distance to a *different* segment for
  // a handful of columns; the vast majority must still match themselves.
  EXPECT_GT(double(self_indexed) / double(r.segments), 0.95);
}

TEST(MatrixProfileFp64, ExclusionZoneSuppressesTrivialMatches) {
  const auto data = small_dataset(128, 2, 16, 6);
  auto config = fp64_config(16);
  config.exclusion = 8;  // m/2, the usual self-join exclusion
  const auto r = compute_matrix_profile(data.query, data.query, config);
  for (std::size_t j = 0; j < r.segments; ++j) {
    for (std::size_t k = 0; k < r.dims; ++k) {
      const auto idx = r.index_at(j, k);
      ASSERT_GE(idx, 0);
      EXPECT_GE(std::llabs(idx - std::int64_t(j)), 8)
          << "trivial match at column " << j;
    }
  }
  // And the CPU reference agrees under the same exclusion.
  CpuReferenceConfig cpu_config;
  cpu_config.window = 16;
  cpu_config.exclusion = 8;
  const auto cpu = compute_matrix_profile_cpu(data.query, data.query,
                                              cpu_config);
  EXPECT_EQ(r.profile, cpu.profile);
  EXPECT_EQ(r.index, cpu.index);
}

class MultiTileEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MultiTileEquivalence, Fp64TilingPreservesResults) {
  const int ntiles = GetParam();
  const auto data = small_dataset(220, 3, 16, 44);
  const auto single = compute_matrix_profile(data.reference, data.query,
                                             fp64_config(16));
  auto config = fp64_config(16);
  config.tiles = ntiles;
  const auto tiled =
      compute_matrix_profile(data.reference, data.query, config);

  ASSERT_EQ(tiled.profile.size(), single.profile.size());
  std::size_t index_mismatches = 0;
  for (std::size_t e = 0; e < single.profile.size(); ++e) {
    // Tile-local precalculation restarts the cumulative sums, so FP64
    // values may differ in the last ulps; indices must stay put except on
    // exact ties.
    EXPECT_NEAR(tiled.profile[e], single.profile[e],
                1e-9 * (1.0 + std::fabs(single.profile[e])))
        << "entry " << e;
    if (tiled.index[e] != single.index[e]) ++index_mismatches;
  }
  EXPECT_LE(index_mismatches, single.profile.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, MultiTileEquivalence,
                         ::testing::Values(2, 3, 4, 7, 16, 25));

TEST(MultiTile, MultiDeviceMatchesSingleDevice) {
  const auto data = small_dataset(200, 2, 16, 55);
  auto config = fp64_config(16);
  config.tiles = 8;
  config.devices = 1;
  const auto one = compute_matrix_profile(data.reference, data.query, config);
  config.devices = 4;
  const auto four = compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(one.profile, four.profile);
  EXPECT_EQ(one.index, four.index);
}

TEST(MatrixProfile, AsymmetricReferenceAndQueryLengths) {
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = 2;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);
  const TimeSeries shorter = data.reference.slice(0, 120 + 16 - 1);
  const auto r = compute_matrix_profile(shorter, data.query, fp64_config(16));
  EXPECT_EQ(r.segments, data.query.segment_count(16));
  for (std::size_t e = 0; e < r.index.size(); ++e) {
    EXPECT_GE(r.index[e], 0);
    EXPECT_LT(r.index[e], 120);
  }
  const auto oracle =
      compute_matrix_profile_brute_force(shorter, data.query, 16);
  for (std::size_t e = 0; e < r.profile.size(); ++e) {
    EXPECT_NEAR(r.profile[e], oracle.profile[e], 1e-7);
  }
}

TEST(MatrixProfile, IndicesAlwaysInReferenceRange) {
  const auto data = small_dataset(180, 3, 16, 77);
  auto config = fp64_config(16);
  config.tiles = 9;
  const auto r = compute_matrix_profile(data.reference, data.query, config);
  const auto nr = std::int64_t(data.reference.segment_count(16));
  for (const auto idx : r.index) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, nr);
  }
}

TEST(MatrixProfile, ValidatesConfiguration) {
  const auto data = small_dataset(128, 2, 16, 88);
  MatrixProfileConfig config;
  config.window = 2;  // too small
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  config.window = 16;
  config.tiles = 0;
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  config.tiles = 1;
  config.window = 100000;
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               ConfigError);

  TimeSeries mismatched(data.query.length(), data.query.dims() + 1);
  config.window = 16;
  EXPECT_THROW(compute_matrix_profile(data.reference, mismatched, config),
               ConfigError);

  // A NaN prefilter budget used to pass and silently disable every skip.
  config.prefilter.mode = PrefilterMode::kSketch;
  for (const double budget :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -3.0, 0.0, 1.0}) {
    config.prefilter.budget = budget;
    EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
                 ConfigError)
        << budget;
  }
  config.prefilter.budget = 0.05;
  EXPECT_NO_THROW(compute_matrix_profile(data.reference, data.query, config));
  config.prefilter = {};

  // Negative chaos and slicing counts were accepted as "off".
  for (int* field : {&config.checkpoint.slice_rows,
                     &config.checkpoint.kill_after_tiles,
                     &config.checkpoint.kill_after_slices}) {
    *field = -1;
    EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
                 ConfigError);
    *field = 0;
  }
  // ... and so was a negative exclusion radius.
  config.exclusion = -1;
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  config.exclusion = 0;
  EXPECT_NO_THROW(compute_matrix_profile(data.reference, data.query, config));
}

TEST(SelfJoin, DefaultsToHalfWindowExclusion) {
  SyntheticSpec spec;
  spec.segments = 200;
  spec.dims = 2;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);

  MatrixProfileConfig config;
  config.window = 16;
  const auto r = compute_self_join(data.query, config);
  for (std::size_t j = 0; j < r.segments; ++j) {
    const auto idx = r.index_at(j, 0);
    ASSERT_GE(idx, 0);
    EXPECT_GE(std::llabs(idx - std::int64_t(j)), 8);
  }

  // An explicit exclusion radius is respected instead.
  config.exclusion = 3;
  const auto tight = compute_self_join(data.query, config);
  for (std::size_t j = 0; j < tight.segments; ++j) {
    EXPECT_GE(std::llabs(tight.index_at(j, 0) - std::int64_t(j)), 3);
  }
}

TEST(MatrixProfile, BreakdownContainsAllFourKernels) {
  const auto data = small_dataset(100, 2, 16, 99);
  const auto r = compute_matrix_profile(data.reference, data.query,
                                        fp64_config(16));
  std::set<std::string> names;
  for (const auto& entry : r.breakdown) names.insert(entry.name);
  EXPECT_TRUE(names.count("precalculation"));
  EXPECT_TRUE(names.count("dist_calc"));
  EXPECT_TRUE(names.count("sort_&_incl_scan"));
  EXPECT_TRUE(names.count("update_mat_prof"));
  EXPECT_TRUE(names.count("memcpy_h2d"));
  EXPECT_GT(r.modeled_device_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(MatrixProfileFp64, SingleDimensionFastPathSkipsSortKernel) {
  // d = 1: sorting one value per column is the identity, so the engine
  // drops the kernel (the paper's turbine case study setting).  Results
  // must still match the CPU reference bit-for-bit.
  const auto data = small_dataset(200, 1, 16, 3);
  const auto gpu = compute_matrix_profile(data.reference, data.query,
                                          fp64_config(16));
  for (const auto& entry : gpu.breakdown) {
    EXPECT_NE(entry.name, "sort_&_incl_scan") << "d=1 must skip the sort";
  }
  CpuReferenceConfig cpu_config;
  cpu_config.window = 16;
  const auto cpu =
      compute_matrix_profile_cpu(data.reference, data.query, cpu_config);
  EXPECT_EQ(gpu.profile, cpu.profile);
  EXPECT_EQ(gpu.index, cpu.index);
}

TEST(CpuReference, ThreadCountDoesNotChangeResults) {
  const auto data = small_dataset(160, 3, 16, 12);
  CpuReferenceConfig one;
  one.window = 16;
  one.threads = 1;
  CpuReferenceConfig two;
  two.window = 16;
  two.threads = 2;
  const auto a = compute_matrix_profile_cpu(data.reference, data.query, one);
  const auto b = compute_matrix_profile_cpu(data.reference, data.query, two);
  EXPECT_EQ(a.profile, b.profile);
  EXPECT_EQ(a.index, b.index);
}

TEST(CpuReference, ModeledTimeScalesQuadraticallyWithSegments) {
  const double t1 = modeled_cpu_seconds(1 << 12, 1 << 12, 16, 64);
  const double t2 = modeled_cpu_seconds(1 << 13, 1 << 13, 16, 64);
  EXPECT_NEAR(t2 / t1, 4.0, 0.3);
}

TEST(BruteForce, ZnormDistanceBasics) {
  // Identical segments: distance 0; anti-correlated: sqrt(4m).
  std::vector<double> a{1, 2, 3, 4, 3, 2, 1, 2};
  std::vector<double> b(a);
  EXPECT_NEAR(znormalized_distance(a.data(), b.data(), a.size()), 0.0, 1e-9);
  std::vector<double> c(a.size());
  for (std::size_t t = 0; t < a.size(); ++t) c[t] = -a[t];
  EXPECT_NEAR(znormalized_distance(a.data(), c.data(), a.size()),
              std::sqrt(4.0 * double(a.size())), 1e-9);
  // Scale/offset invariance of z-normalisation.
  std::vector<double> scaled(a.size());
  for (std::size_t t = 0; t < a.size(); ++t) scaled[t] = 5.0 * a[t] + 100.0;
  EXPECT_NEAR(znormalized_distance(a.data(), scaled.data(), a.size()), 0.0,
              1e-7);
}

}  // namespace
}  // namespace mpsim::mp
