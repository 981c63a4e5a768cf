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

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "metrics/accuracy.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/sketch.hpp"
#include "mp/tuning.hpp"
#include "precision/modes.hpp"
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
// samples included.  bt = 3 and 7 take several dispatches per score
// batch, of which only the last scores the next batch.  The 781-column
// tile and its three-tile split are not multiples of the 32-column
// group, so the last group is partial.
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

// The engine builds the sketches inside the GEMM-seed launch's chunks and
// scores each batch inside the chunks of the dispatch before it; both
// partitions follow the pool's worker count (the row chunks are rounded
// to whole column groups).  Every pool size must replay the one-worker
// run: bytes, index and all six decision counters.
TEST(SketchPrefilter, PoolSizesMatchOneWorker) {
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  for (const std::size_t dims : {1ul, 2ul}) {
    const auto series = smooth_repeats(300, 3, 15.0, 0.005, 40 + dims, dims);
    for (const int tiles : {1, 3}) {
      auto config = sketch_config(120, 0.05);
      config.tiles = tiles;
      config.workers = 1;
      const auto want = compute_self_join(series, config);
      const PrefilterStats& ws = want.prefilter;
      ASSERT_GT(ws.cols_skipped, 0u) << "d=" << dims;
      for (const std::size_t workers : {2ul, 3ul, 4ul, 7ul}) {
        config.workers = workers;
        const auto got = compute_self_join(series, config);
        const PrefilterStats& gs = got.prefilter;
        const auto where = [&] {
          return ::testing::Message() << "d=" << dims << " tiles=" << tiles
                                      << " workers=" << workers;
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

using F16T = PrecisionTraits<PrecisionMode::FP16>;

/// One AB-join tile's staged FP16 inputs and their precalc mu/inv: smooth
/// seeded series, so the sketch boxes are tight enough for skips.
struct StagedTile {
  std::size_t m = 0, d = 0, nr = 0, nq = 0;
  std::vector<float16> r, q, mu_r, inv_r, mu_q, inv_q;

  StagedTile(std::size_t m_, std::size_t d_, std::size_t nr_,
             std::size_t nq_, std::uint64_t seed)
      : m(m_), d(d_), nr(nr_), nq(nq_) {
    Rng rng(seed);
    const auto side = [&](std::size_t nseg, std::vector<float16>& x,
                          std::vector<float16>& mu, std::vector<float16>& inv) {
      const std::size_t len = nseg + m - 1;
      x.resize(d * len);
      mu.resize(d * nseg);
      inv.resize(d * nseg);
      std::vector<float16> df(d * nseg), dg(d * nseg);
      const double phase = rng.uniform(0.0, 6.0);
      for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t t = 0; t < len; ++t) {
          x[k * len + t] = float16(std::sin(double(t) / 40.0 + phase +
                                            double(k)) +
                                   rng.normal(0.0, 0.05));
        }
        precalc_dimension<F16T>(x.data() + k * len, m, nseg,
                                mu.data() + k * nseg, inv.data() + k * nseg,
                                df.data() + k * nseg, dg.data() + k * nseg);
      }
    };
    side(nr, r, mu_r, inv_r);
    side(nq, q, mu_q, inv_q);
  }

  std::size_t len_r() const { return nr + m - 1; }
  std::size_t len_q() const { return nq + m - 1; }

  TilePrefilter serial_build() const {
    TilePrefilter pf(config(), m, d, nr, nq);
    pf.build<F16T>(r.data(), len_r(), mu_r.data(), inv_r.data(), q.data(),
                   len_q(), mu_q.data(), inv_q.data());
    return pf;
  }

  static PrefilterConfig config() {
    PrefilterConfig c;
    c.mode = PrefilterMode::kSketch;
    c.budget = 0.05;
    return c;
  }
};

/// Seeded random cut points of [0, n) into at most `pieces` ranges, each
/// starting at a multiple of `align`; returned shuffled, so pieces run
/// out of order.
std::vector<std::pair<std::size_t, std::size_t>> random_partition(
    std::size_t n, std::size_t align, std::size_t pieces, Rng& rng) {
  std::vector<std::size_t> cuts = {0, n};
  const std::size_t slots = (n + align - 1) / align;
  for (std::size_t c = 1; c < pieces; ++c) {
    cuts.push_back(std::min(n, std::size_t(rng.uniform_index(slots)) * align));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    ranges.emplace_back(cuts[c], cuts[c + 1]);
  }
  std::shuffle(ranges.begin(), ranges.end(), rng);
  return ranges;
}

/// Runs fn(begin, end) over every range on its own thread.
template <typename Fn>
void run_concurrently(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges, Fn fn) {
  std::vector<std::thread> threads;
  for (const auto& [b, e] : ranges) threads.emplace_back(fn, b, e);
  for (auto& t : threads) t.join();
}

// prepare + sketch_rows / sketch_cols over any partition + finish_build
// writes the serial build()'s sketches byte for byte, and the column
// boxes it derives score identically.
TEST(SketchPrefilter, SplitBuildMatchesSerialBuild) {
  for (const std::size_t d : {1ul, 2ul, 5ul}) {
    const StagedTile tile(96, d, 203, 781, 500 + d);
    const TilePrefilter want = tile.serial_build();
    Rng rng(900 + d);
    for (int trial = 0; trial < 4; ++trial) {
      TilePrefilter got(StagedTile::config(), tile.m, d, tile.nr, tile.nq);
      got.prepare<F16T>(tile.r.data(), tile.len_r(), tile.mu_r.data(),
                        tile.inv_r.data(), tile.q.data(), tile.len_q(),
                        tile.mu_q.data(), tile.inv_q.data());
      run_concurrently(random_partition(tile.nr, 1, 1 + trial * 3, rng),
                       [&](std::size_t b, std::size_t e) {
                         got.sketch_rows(b, e);
                       });
      run_concurrently(random_partition(tile.nq, 1, 1 + trial * 3, rng),
                       [&](std::size_t b, std::size_t e) {
                         got.sketch_cols(b, e);
                       });
      got.finish_build();
      const auto where = [&] {
        return ::testing::Message() << "d=" << d << " trial=" << trial;
      };
      ASSERT_EQ(got.row_sketches().size(), want.row_sketches().size());
      ASSERT_EQ(got.col_sketches().size(), want.col_sketches().size());
      EXPECT_EQ(std::memcmp(got.row_sketches().data(),
                            want.row_sketches().data(),
                            want.row_sketches().size() * sizeof(float)),
                0)
          << where();
      EXPECT_EQ(std::memcmp(got.col_sketches().data(),
                            want.col_sketches().data(),
                            want.col_sketches().size() * sizeof(float)),
                0)
          << where();
      // A low profile makes the scoring read every column box.
      const std::vector<float16> profile(d * tile.nq, float16(1.0));
      TilePrefilter a = want;
      a.score_batch<F16T>(profile.data(), 32, kPrefilterRowBatch);
      got.score_batch<F16T>(profile.data(), 32, kPrefilterRowBatch);
      EXPECT_GT(a.stats().blocks_skipped, 0u) << where();
      const std::size_t groups = (tile.nq + kPrefilterColGroup - 1) /
                                 kPrefilterColGroup;
      EXPECT_TRUE(std::equal(a.decisions(), a.decisions() + groups,
                             got.decisions()))
          << where();
    }
  }
}

// set_row_box + flag_cols over group-aligned chunks (concurrently, out of
// order) + commit_verdicts replays the serial score_batch() over
// consecutive batches: every decision, the scan-order verify counter and
// every PrefilterStats field, with NaN and infinite profile entries and a
// partial last column group and row batch.
TEST(SketchPrefilter, SplitScoringMatchesSerialScore) {
  constexpr std::size_t G = kPrefilterColGroup;
  for (const std::size_t d : {1ul, 2ul, 5ul}) {
    const StagedTile tile(96, d, 403, 781, 700 + d);
    const std::size_t groups = (tile.nq + G - 1) / G;
    TilePrefilter serial = tile.serial_build();
    TilePrefilter split = serial;
    Rng rng(1100 + d);
    const double full = std::sqrt(2.0 * double(tile.m));
    std::vector<float16> profile(d * tile.nq);
    std::vector<std::int64_t> index(d * tile.nq);
    for (std::size_t i0 = 0; i0 < tile.nr; i0 += kPrefilterRowBatch) {
      const std::size_t rows = std::min(kPrefilterRowBatch, tile.nr - i0);
      // Converged (low) entries everywhere; in some groups one entry is
      // unset (infinite), poisoned (NaN) or near the uncorrelated
      // distance, which makes the group unskippable.
      for (auto& p : profile) p = float16(rng.uniform(0.0, 0.2) * full);
      for (std::size_t g = 0; g < groups; ++g) {
        const double u = rng.uniform();
        if (u < 0.6) continue;
        const std::size_t j =
            std::min(tile.nq - 1, g * G + std::size_t(rng.uniform_index(G)));
        profile[std::size_t(rng.uniform_index(d)) * tile.nq + j] =
            u < 0.7   ? float16(std::numeric_limits<double>::infinity())
            : u < 0.8 ? float16(std::numeric_limits<double>::quiet_NaN())
                      : float16(rng.uniform(0.8, 1.2) * full);
      }
      for (auto& x : index) {
        x = std::int64_t(rng.uniform_index(tile.nr + 32));
      }
      serial.score_batch<F16T>(profile.data(), i0, rows);
      split.set_row_box(i0, rows);
      run_concurrently(random_partition(tile.nq, G, 6, rng),
                       [&](std::size_t b, std::size_t e) {
                         split.flag_cols<F16T>(profile.data(), b, e);
                       });
      split.commit_verdicts();
      const auto where = [&] {
        return ::testing::Message() << "d=" << d << " i0=" << i0;
      };
      ASSERT_TRUE(std::equal(serial.decisions(), serial.decisions() + groups,
                             split.decisions()))
          << where();
      const auto lo = std::int64_t(i0);
      const auto hi = std::int64_t(i0 + rows - 1);
      serial.note_batch_end(index.data(), lo, hi);
      split.note_batch_end(index.data(), lo, hi);
      const PrefilterStats& ws = serial.stats();
      const PrefilterStats& gs = split.stats();
      EXPECT_EQ(gs.blocks_total, ws.blocks_total) << where();
      EXPECT_EQ(gs.blocks_skipped, ws.blocks_skipped) << where();
      EXPECT_EQ(gs.blocks_verified, ws.blocks_verified) << where();
      EXPECT_EQ(gs.cols_skipped, ws.cols_skipped) << where();
      EXPECT_EQ(gs.cols_verified, ws.cols_verified) << where();
      EXPECT_EQ(gs.cols_missed, ws.cols_missed) << where();
    }
    // The comparison saw every verdict kind.
    EXPECT_GT(serial.stats().blocks_skipped, 0u) << "d=" << d;
    EXPECT_GT(serial.stats().blocks_verified, 0u) << "d=" << d;
    EXPECT_GT(serial.stats().cols_missed, 0u) << "d=" << d;
    EXPECT_GT(serial.stats().blocks_total,
              serial.stats().blocks_skipped + serial.stats().blocks_verified)
        << "d=" << d;
  }
}

// flag_cols covers whole column groups only: a chunk edge inside a group
// would let two chunks race on one group's flag.
TEST(SketchPrefilter, FlagColsRejectsSplitGroups) {
  const StagedTile tile(96, 1, 40, 100, 7);
  TilePrefilter pf = tile.serial_build();
  const std::vector<float16> profile(tile.nq, float16(1.0));
  pf.set_row_box(0, kPrefilterRowBatch);
  EXPECT_THROW(pf.flag_cols<F16T>(profile.data(), 16, 64), Error);
  EXPECT_THROW(pf.flag_cols<F16T>(profile.data(), 0, 40), Error);
  EXPECT_NO_THROW(pf.flag_cols<F16T>(profile.data(), 64, 100));
}

}  // namespace
}  // namespace mpsim::mp
