// Tests for the test-only oracles: the z-normalisation helpers, the FFT,
// MASS, and the STAMP-style oracle built on them — the algorithmically
// independent third validation path.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "mp/matrix_profile.hpp"
#include "oracles/brute_force.hpp"
#include "oracles/mass.hpp"
#include "oracles/znorm.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

TEST(Fft, RoundTripRecoversInput) {
  Rng rng(1);
  std::vector<std::complex<double>> data(256);
  std::vector<std::complex<double>> original(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.normal(), rng.normal()};
    original[i] = data[i];
  }
  fft(data, false);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, MatchesDftOnKnownSignals) {
  // Impulse: flat spectrum of ones.
  std::vector<std::complex<double>> impulse(8, 0.0);
  impulse[0] = 1.0;
  fft(impulse, false);
  for (const auto& x : impulse) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
  // Pure tone: a single spectral line of magnitude n.
  const std::size_t n = 64;
  std::vector<std::complex<double>> tone(n);
  for (std::size_t t = 0; t < n; ++t) {
    tone[t] = std::cos(2.0 * std::numbers::pi * 5.0 * double(t) / double(n));
  }
  fft(tone, false);
  for (std::size_t f = 0; f < n; ++f) {
    const double expected = (f == 5 || f == n - 5) ? double(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(tone[f]), expected, 1e-9) << "bin " << f;
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(12);
  EXPECT_THROW(fft(data, false), Error);
}

TEST(SlidingDots, MatchesDirectComputation) {
  Rng rng(2);
  std::vector<double> series(300), query(24);
  for (auto& v : series) v = rng.normal();
  for (auto& v : query) v = rng.normal();
  const auto dots = sliding_dot_products(series, query);
  ASSERT_EQ(dots.size(), series.size() - query.size() + 1);
  for (std::size_t i = 0; i < dots.size(); ++i) {
    double direct = 0.0;
    for (std::size_t t = 0; t < query.size(); ++t) {
      direct += series[i + t] * query[t];
    }
    EXPECT_NEAR(dots[i], direct, 1e-8) << "alignment " << i;
  }
}

TEST(Mass, MatchesBruteForceZnormDistances) {
  Rng rng(3);
  const std::size_t m = 16;
  std::vector<double> series(200), segment(m);
  for (auto& v : series) v = rng.normal();
  for (auto& v : segment) v = rng.normal();
  const auto distances = mass(series, segment);
  for (std::size_t i = 0; i < distances.size(); ++i) {
    const double expected =
        znormalized_distance(series.data() + i, segment.data(), m);
    EXPECT_NEAR(distances[i], expected, 1e-7) << "segment " << i;
  }
}

TEST(Mass, SelfMatchIsZeroAndFlatIsSqrt2m) {
  std::vector<double> series(100);
  Rng rng(4);
  for (auto& v : series) v = rng.normal();
  std::vector<double> segment(series.begin() + 10, series.begin() + 26);
  const auto distances = mass(series, segment);
  EXPECT_NEAR(distances[10], 0.0, 1e-7);

  const std::vector<double> flat(16, 3.0);
  const auto vs_flat = mass(series, flat);
  for (const double dist : vs_flat) {
    EXPECT_NEAR(dist, std::sqrt(32.0), 1e-9);
  }
}

TEST(Stamp, MatchesStreamingEngineAndBruteForce) {
  SyntheticSpec spec;
  spec.segments = 160;
  spec.dims = 3;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);

  const auto stamp =
      compute_matrix_profile_stamp(data.reference, data.query, 16);
  MatrixProfileConfig config;
  config.window = 16;
  const auto stomp = compute_matrix_profile(data.reference, data.query,
                                            config);
  const auto oracle =
      compute_matrix_profile_brute_force(data.reference, data.query, 16);

  ASSERT_EQ(stamp.profile.size(), stomp.profile.size());
  for (std::size_t e = 0; e < stamp.profile.size(); ++e) {
    // Three independent algorithms (FFT, streaming recurrence, direct
    // scan) agree on the profile.
    EXPECT_NEAR(stamp.profile[e], stomp.profile[e], 1e-6) << e;
    EXPECT_NEAR(stamp.profile[e], oracle.profile[e], 1e-6) << e;
  }
}

TEST(Znorm, SlidingStatsMatchDirect) {
  const std::vector<double> x{1, 2, 3, 4, 5, 4, 3, 2};
  const auto stats = sliding_stats(x, 4);
  ASSERT_EQ(stats.mean.size(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean[0], 2.5);
  EXPECT_DOUBLE_EQ(stats.mean[4], 3.5);
  // norm of {1,2,3,4} around 2.5: sqrt(2.25+0.25+0.25+2.25) = sqrt(5).
  EXPECT_DOUBLE_EQ(stats.norm[0], std::sqrt(5.0));
}

TEST(Znorm, SegmentNormalisation) {
  const std::vector<double> x{10, 20, 30, 40};
  const auto z = znormalize_segment(x, 0, 4);
  double sum = 0.0, ssq = 0.0;
  for (double v : z) {
    sum += v;
    ssq += v * v;
  }
  EXPECT_NEAR(sum, 0.0, 1e-12);
  EXPECT_NEAR(ssq, 1.0, 1e-12);

  const std::vector<double> flat{5, 5, 5, 5};
  const auto zf = znormalize_segment(flat, 0, 4);
  for (double v : zf) EXPECT_DOUBLE_EQ(v, 0.0);

  EXPECT_THROW(znormalize_segment(x, 2, 4), Error);
}

TEST(Znorm, ScaleAndOffsetInvariance) {
  // Two affinely related segments z-normalise identically.
  const std::vector<double> a{1.0, 3.0, 2.0, 5.0, 4.0, 1.5};
  std::vector<double> b(a.size());
  for (std::size_t t = 0; t < a.size(); ++t) b[t] = 7.0 * a[t] - 100.0;
  const auto za = znormalize_segment(a, 0, a.size());
  const auto zb = znormalize_segment(b, 0, b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_NEAR(za[t], zb[t], 1e-12);
  }
}

}  // namespace
}  // namespace mpsim::mp
