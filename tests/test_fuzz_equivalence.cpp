// Randomised cross-validation: for a sweep of randomly drawn problem
// shapes (segment counts, dimensionalities, windows, tilings, devices,
// asymmetric lengths), the FP64 simulator must agree with the independent
// brute-force oracle and the CPU reference.  This is the repository's
// backstop against shape-dependent indexing bugs.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "oracles/brute_force.hpp"
#include "oracles/mass.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

struct FuzzShape {
  std::size_t n_r, n_q, dims, window;
  int tiles, devices;
};

FuzzShape draw_shape(Rng& rng) {
  FuzzShape s;
  s.window = 4 + rng.uniform_index(29);              // 4..32
  s.n_r = 2 * s.window + 3 + rng.uniform_index(150); // small but varied
  s.n_q = 2 * s.window + 3 + rng.uniform_index(150);
  s.dims = 1 + rng.uniform_index(7);                 // 1..7 (incl. non-pow2)
  s.tiles = 1 + int(rng.uniform_index(9));           // 1..9
  s.devices = 1 + int(rng.uniform_index(3));         // 1..3
  return s;
}

class FuzzEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalence, Fp64AgreesWithOracleAndReference) {
  Rng rng(5000 + std::uint64_t(GetParam()));
  const FuzzShape shape = draw_shape(rng);

  // Random noise plus a few shared structures so minima are non-trivial.
  TimeSeries reference(shape.n_r + shape.window - 1, shape.dims);
  TimeSeries query(shape.n_q + shape.window - 1, shape.dims);
  for (std::size_t k = 0; k < shape.dims; ++k) {
    for (std::size_t t = 0; t < reference.length(); ++t) {
      reference.at(t, k) = rng.normal();
    }
    for (std::size_t t = 0; t < query.length(); ++t) {
      query.at(t, k) = rng.normal();
    }
    // Copy one window from reference to query (a planted match).
    const std::size_t src = rng.uniform_index(shape.n_r);
    const std::size_t dst = rng.uniform_index(shape.n_q);
    for (std::size_t t = 0; t < shape.window; ++t) {
      query.at(dst + t, k) = reference.at(src + t, k);
    }
  }

  MatrixProfileConfig config;
  config.window = shape.window;
  config.tiles = shape.tiles;
  config.devices = shape.devices;
  const auto gpu = compute_matrix_profile(reference, query, config);

  const auto oracle =
      compute_matrix_profile_brute_force(reference, query, shape.window);
  ASSERT_EQ(gpu.profile.size(), oracle.profile.size());
  for (std::size_t e = 0; e < gpu.profile.size(); ++e) {
    EXPECT_NEAR(gpu.profile[e], oracle.profile[e],
                1e-6 * (1.0 + oracle.profile[e]))
        << "shape {nr=" << shape.n_r << " nq=" << shape.n_q
        << " d=" << shape.dims << " m=" << shape.window
        << " tiles=" << shape.tiles << "} entry " << e;
  }

  // Single-tile runs must match the CPU reference bit-for-bit.
  if (shape.tiles == 1) {
    CpuReferenceConfig cpu;
    cpu.window = shape.window;
    const auto reference_result =
        compute_matrix_profile_cpu(reference, query, cpu);
    EXPECT_EQ(gpu.profile, reference_result.profile);
    EXPECT_EQ(gpu.index, reference_result.index);
  }

  // Every fourth shape also runs the FFT-based STAMP oracle (it is the
  // slowest of the three independent algorithms).
  if (GetParam() % 4 == 0) {
    const auto stamp =
        compute_matrix_profile_stamp(reference, query, shape.window);
    for (std::size_t e = 0; e < gpu.profile.size(); ++e) {
      EXPECT_NEAR(gpu.profile[e], stamp.profile[e],
                  1e-6 * (1.0 + stamp.profile[e]))
          << "STAMP disagreement at entry " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, FuzzEquivalence,
                         ::testing::Range(0, 24));

class FuzzReducedPrecision : public ::testing::TestWithParam<int> {};

TEST_P(FuzzReducedPrecision, AllModesStayInBounds) {
  // Reduced-precision runs on random shapes must never produce an
  // out-of-range index or a NaN-backed match, whatever the rounding does.
  Rng rng(9000 + std::uint64_t(GetParam()));
  const FuzzShape shape = draw_shape(rng);
  TimeSeries reference(shape.n_r + shape.window - 1, shape.dims);
  TimeSeries query(shape.n_q + shape.window - 1, shape.dims);
  const double offset = rng.uniform(0.0, 50.0);  // stress the FP16 range
  for (std::size_t k = 0; k < shape.dims; ++k) {
    for (std::size_t t = 0; t < reference.length(); ++t) {
      reference.at(t, k) = offset + rng.normal();
    }
    for (std::size_t t = 0; t < query.length(); ++t) {
      query.at(t, k) = offset + rng.normal();
    }
  }

  for (PrecisionMode mode : kExtendedPrecisionModes) {
    MatrixProfileConfig config;
    config.window = shape.window;
    config.mode = mode;
    config.tiles = shape.tiles;
    const auto r = compute_matrix_profile(reference, query, config);
    for (std::size_t e = 0; e < r.index.size(); ++e) {
      EXPECT_GE(r.index[e], -1) << to_string(mode);
      EXPECT_LT(r.index[e], std::int64_t(shape.n_r)) << to_string(mode);
      if (r.index[e] >= 0) {
        EXPECT_FALSE(std::isnan(r.profile[e])) << to_string(mode);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, FuzzReducedPrecision,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mpsim::mp
