// Statistical acceptance tests of the FP16 sketch prefilter
// (PrefilterMode::kSketch, mp/sketch.hpp).  The prefilter is a
// statistical gate, not a proof, so the contract under test is the
// MEASURED one: on seeded random and adversarial near-tie series the
// realized miss rate (verify-sample misses and the true profile
// disagreement against an exact run) must stay within the configured
// budget, skips must actually happen on prefilter-friendly data, the
// decision accounting must add up, and identical configurations must
// replay identical decisions bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "metrics/accuracy.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/sketch.hpp"
#include "mp/tuning.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::mp {
namespace {

/// Smooth, repeating 2-dimensional series: Gaussian-smoothed seeded noise
/// (correlation length ~ sigma, so the sketch interval boxes are tight),
/// repeated `reps` times with fresh per-repeat noise so every segment has
/// a near-perfect match somewhere — the regime the prefilter is built
/// for.  Dimension k is the same base pattern cyclically shifted by
/// k * seg / 3, keeping every dimension equally matchable.
TimeSeries smooth_repeats(std::size_t seg, std::size_t reps, double sigma,
                          double noise, std::uint64_t seed,
                          std::size_t dims = 2) {
  Rng rng(seed);
  const std::size_t support = std::size_t(sigma) * 6 + 20;
  std::vector<double> white(seg + support);
  for (auto& w : white) w = rng.normal(0.0, 1.0);
  std::vector<double> kern(support);
  for (std::size_t t = 0; t < support; ++t) {
    const double u = (double(t) - double(support) / 2.0) / sigma;
    kern[t] = std::exp(-0.5 * u * u);
  }
  std::vector<double> base(seg, 0.0);
  double sum = 0.0;
  for (std::size_t t = 0; t < seg; ++t) {
    for (std::size_t u = 0; u < support; ++u) base[t] += white[t + u] * kern[u];
    sum += base[t];
  }
  const double mean = sum / double(seg);
  double ssq = 0.0;
  for (const double v : base) ssq += (v - mean) * (v - mean);
  const double inv_sd = 1.0 / std::sqrt(ssq / double(seg));
  for (auto& v : base) v = (v - mean) * inv_sd;

  const std::size_t len = seg * reps;
  std::vector<double> data(dims * len);
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t k = 0; k < dims; ++k) {
      data[k * len + t] =
          base[(t + k * (seg / 3)) % seg] + rng.normal(0.0, noise);
    }
  }
  return TimeSeries(len, dims, std::move(data));
}

MatrixProfileConfig sketch_config(std::size_t window, double budget) {
  MatrixProfileConfig config;
  config.window = window;
  config.mode = PrecisionMode::FP16;
  config.exclusion = std::int64_t(window / 4);
  config.prefilter.mode = PrefilterMode::kSketch;
  config.prefilter.budget = budget;
  return config;
}

/// Fraction of profile entries where the prefiltered run disagrees with
/// the exact run — the TRUE miss rate, of which the verify sample is an
/// estimate.  Compared bitwise: FP16 outputs are exact little numbers.
double true_miss_fraction(const MatrixProfileResult& exact,
                          const MatrixProfileResult& pre) {
  EXPECT_EQ(exact.profile.size(), pre.profile.size());
  std::size_t missed = 0;
  for (std::size_t e = 0; e < exact.profile.size(); ++e) {
    if (std::memcmp(&exact.profile[e], &pre.profile[e], sizeof(double)) !=
        0) {
      ++missed;
    }
  }
  return double(missed) / double(exact.profile.size());
}

void expect_accounting_consistent(const PrefilterStats& stats) {
  // Every scored block got exactly one decision, and the column tallies
  // can only come from skip/verify blocks.
  EXPECT_GE(stats.blocks_total,
            stats.blocks_skipped + stats.blocks_verified);
  EXPECT_LE(stats.cols_skipped,
            stats.blocks_skipped * kPrefilterColGroup);
  EXPECT_LE(stats.cols_verified,
            stats.blocks_verified * kPrefilterColGroup);
  EXPECT_LE(stats.cols_missed, stats.cols_verified);
  // The verify stride samples skippable blocks at a fixed deterministic
  // rate, so verified and skipped block counts keep that ratio.
  if (stats.blocks_skipped >= kPrefilterVerifyStride) {
    EXPECT_GE(stats.blocks_verified, 1u);
  }
}

TEST(SketchPrefilter, SkipsOnSmoothRepeatsWithinBudget) {
  const auto series = smooth_repeats(911, 3, 15.0, 0.005, 101);
  const double budget = 0.05;
  const auto pre = compute_self_join(series, sketch_config(400, budget));
  auto off = sketch_config(400, budget);
  off.prefilter.mode = PrefilterMode::kOff;
  const auto reference = compute_self_join(series, off);

  const PrefilterStats& stats = pre.prefilter;
  ASSERT_TRUE(stats.any());
  expect_accounting_consistent(stats);
  EXPECT_GT(stats.cols_skipped, 0u) << "prefilter never skipped on the "
                                       "workload built to be skippable";
  // Real win, not a technicality: a fifth of all scored columns skipped.
  EXPECT_GT(double(stats.cols_skipped),
            0.2 * double(stats.blocks_total * kPrefilterColGroup));
  EXPECT_TRUE(metrics::prefilter_within_budget(stats, budget))
      << "measured miss rate " << metrics::prefilter_miss_rate(stats)
      << " above budget " << budget;
  EXPECT_LE(true_miss_fraction(reference, pre), budget)
      << "true profile disagreement above the configured budget";
}

TEST(SketchPrefilter, NearTieAdversarialStaysWithinBudget) {
  // Heavy per-repeat noise turns every match into a near-tie: many
  // candidate correlations crowd just below the current profile entry,
  // exactly where an overconfident bound would start missing updates.
  for (const double noise : {0.15, 0.3}) {
    const auto series = smooth_repeats(911, 4, 15.0, noise, 202);
    const double budget = 0.05;
    const auto pre = compute_self_join(series, sketch_config(400, budget));
    auto off = sketch_config(400, budget);
    off.prefilter.mode = PrefilterMode::kOff;
    const auto reference = compute_self_join(series, off);

    const PrefilterStats& stats = pre.prefilter;
    ASSERT_TRUE(stats.any()) << "noise " << noise;
    expect_accounting_consistent(stats);
    EXPECT_GT(stats.cols_skipped, 0u) << "noise " << noise;
    EXPECT_TRUE(metrics::prefilter_within_budget(stats, budget))
        << "noise " << noise << " miss rate "
        << metrics::prefilter_miss_rate(stats);
    EXPECT_LE(true_miss_fraction(reference, pre), budget)
        << "noise " << noise;
  }
}

TEST(SketchPrefilter, SeededRandomSeriesNeverBreaksBudget) {
  // Plain seeded random data (no engineered structure): the prefilter may
  // or may not find anything to skip, but the budget contract and the
  // accounting identities must hold regardless.
  for (const std::uint64_t seed : {7u, 19u, 31u}) {
    Rng rng(seed);
    const std::size_t len = 1500;
    std::vector<double> data(2 * len);
    for (auto& v : data) v = rng.normal(0.0, 1.0);
    const TimeSeries series(len, 2, std::move(data));
    const double budget = 0.05;
    const auto pre = compute_self_join(series, sketch_config(128, budget));
    auto off = sketch_config(128, budget);
    off.prefilter.mode = PrefilterMode::kOff;
    const auto reference = compute_self_join(series, off);

    ASSERT_TRUE(pre.prefilter.any()) << "seed " << seed;
    expect_accounting_consistent(pre.prefilter);
    EXPECT_TRUE(metrics::prefilter_within_budget(pre.prefilter, budget))
        << "seed " << seed;
    EXPECT_LE(true_miss_fraction(reference, pre), budget) << "seed " << seed;
  }
}

TEST(SketchPrefilter, DecisionsReplayDeterministically) {
  const auto series = smooth_repeats(911, 3, 15.0, 0.005, 101);
  const auto a = compute_self_join(series, sketch_config(400, 0.05));
  const auto b = compute_self_join(series, sketch_config(400, 0.05));
  EXPECT_EQ(a.prefilter.blocks_total, b.prefilter.blocks_total);
  EXPECT_EQ(a.prefilter.blocks_skipped, b.prefilter.blocks_skipped);
  EXPECT_EQ(a.prefilter.blocks_verified, b.prefilter.blocks_verified);
  EXPECT_EQ(a.prefilter.cols_skipped, b.prefilter.cols_skipped);
  EXPECT_EQ(a.prefilter.cols_verified, b.prefilter.cols_verified);
  EXPECT_EQ(a.prefilter.cols_missed, b.prefilter.cols_missed);
  ASSERT_EQ(a.profile.size(), b.profile.size());
  EXPECT_EQ(std::memcmp(a.profile.data(), b.profile.data(),
                        a.profile.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.index, b.index);
}

TEST(SketchPrefilter, TighterBudgetSkipsNoMore) {
  // A smaller miss budget widens the guard band, so it can only reduce
  // the number of skipped columns.
  const auto series = smooth_repeats(911, 3, 15.0, 0.05, 303);
  const auto loose = compute_self_join(series, sketch_config(400, 0.05));
  const auto tight = compute_self_join(series, sketch_config(400, 1e-4));
  EXPECT_LE(tight.prefilter.cols_skipped, loose.prefilter.cols_skipped);
  EXPECT_TRUE(metrics::prefilter_within_budget(tight.prefilter, 1e-4));
}

TEST(SketchPrefilter, OffModeCarriesNoStats) {
  const auto series = smooth_repeats(911, 2, 15.0, 0.05, 404);
  auto off = sketch_config(400, 0.05);
  off.prefilter.mode = PrefilterMode::kOff;
  const auto result = compute_self_join(series, off);
  EXPECT_FALSE(result.prefilter.any());
  EXPECT_EQ(metrics::prefilter_miss_rate(result.prefilter), 0.0);
  EXPECT_TRUE(metrics::prefilter_within_budget(result.prefilter, 0.0));
}

// Temporal blocking is pure scheduling under the prefilter too: a row
// batch never crosses a score-batch end, so every batch size replays the
// one-dispatch-per-row run (bt = 1) bit for bit, decisions and miss
// samples included.  The 781-column tile and its three-tile split are
// not multiples of the 32-column group, so chunk edges split groups.
TEST(SketchPrefilter, BlockedBatchesMatchPerRowDispatch) {
  struct Guard {
    ~Guard() {
      simd::clear_override();
      set_row_batch_override(0);
    }
  } guard;
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  for (const std::size_t dims : {1ul, 2ul, 5ul}) {
    const auto series = smooth_repeats(300, 3, 15.0, 0.005, 40 + dims, dims);
    for (const PrecisionMode mode : {PrecisionMode::FP16, PrecisionMode::FP32}) {
      for (const int tiles : {1, 3}) {
        auto config = sketch_config(120, 0.05);
        config.mode = mode;
        config.tiles = tiles;
        for (const simd::Level lv : {simd::kScalar, simd::detected_level()}) {
          simd::set_override(lv);
          set_row_batch_override(1);
          const auto want = compute_self_join(series, config);
          const PrefilterStats& ws = want.prefilter;
          ASSERT_GT(ws.cols_skipped, 0u) << "d=" << dims;
          for (const std::size_t bt : {0ul, 3ul, 7ul, 16ul, 64ul}) {
            set_row_batch_override(bt);
            const auto got = compute_self_join(series, config);
            const PrefilterStats& gs = got.prefilter;
            const auto where = [&] {
              return ::testing::Message()
                     << to_string(mode) << " d=" << dims << " tiles=" << tiles
                     << " level=" << simd::to_string(lv) << " bt=" << bt;
            };
            EXPECT_TRUE(same(got.profile, want.profile)) << where();
            EXPECT_TRUE(same(got.index, want.index)) << where();
            EXPECT_EQ(gs.blocks_total, ws.blocks_total) << where();
            EXPECT_EQ(gs.blocks_skipped, ws.blocks_skipped) << where();
            EXPECT_EQ(gs.blocks_verified, ws.blocks_verified) << where();
            EXPECT_EQ(gs.cols_skipped, ws.cols_skipped) << where();
            EXPECT_EQ(gs.cols_verified, ws.cols_verified) << where();
            EXPECT_EQ(gs.cols_missed, ws.cols_missed) << where();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mpsim::mp
