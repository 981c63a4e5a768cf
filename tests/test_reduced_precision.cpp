// Reduced-precision behaviour tests: the accuracy ordering across the five
// modes, the effect of tiling on FP16-family accuracy (the paper's central
// claim about the tiling scheme), and practical pattern detection.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "metrics/accuracy.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/model.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

struct ModeRun {
  double accuracy = 0.0;  // relative accuracy A vs FP64 CPU reference
  double recall = 0.0;    // index recall R vs FP64 CPU reference
};

ModeRun run_mode(const SyntheticDataset& data, std::size_t window,
                 PrecisionMode mode, const CpuReferenceResult& reference,
                 int tiles = 1) {
  MatrixProfileConfig config;
  config.window = window;
  config.mode = mode;
  config.tiles = tiles;
  const auto r = compute_matrix_profile(data.reference, data.query, config);
  ModeRun out;
  out.accuracy = metrics::relative_accuracy(r.profile, reference.profile);
  out.recall = metrics::recall_rate(r.index, reference.index);
  return out;
}

class ReducedPrecisionSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.segments = 768;
    spec.dims = 4;
    spec.window = 32;
    spec.injections_per_dim = 4;
    spec.seed = 2022;
    data_ = new SyntheticDataset(make_synthetic_dataset(spec));
    CpuReferenceConfig cpu;
    cpu.window = 32;
    reference_ = new CpuReferenceResult(
        compute_matrix_profile_cpu(data_->reference, data_->query, cpu));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete reference_;
    data_ = nullptr;
    reference_ = nullptr;
  }

  static const SyntheticDataset* data_;
  static const CpuReferenceResult* reference_;
};

const SyntheticDataset* ReducedPrecisionSuite::data_ = nullptr;
const CpuReferenceResult* ReducedPrecisionSuite::reference_ = nullptr;

TEST_F(ReducedPrecisionSuite, Fp64MatchesReferenceExactly) {
  const auto run = run_mode(*data_, 32, PrecisionMode::FP64, *reference_);
  EXPECT_DOUBLE_EQ(run.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(run.recall, 1.0);
}

TEST_F(ReducedPrecisionSuite, Fp32IsNearlyExact) {
  const auto run = run_mode(*data_, 32, PrecisionMode::FP32, *reference_);
  // The paper: "FP32 mode also results in a high accuracy of roughly 100%".
  EXPECT_GT(run.accuracy, 0.999);
  EXPECT_GT(run.recall, 0.95);
}

TEST_F(ReducedPrecisionSuite, AccuracyOrderingAcrossModes) {
  const auto fp32 = run_mode(*data_, 32, PrecisionMode::FP32, *reference_);
  const auto fp16 = run_mode(*data_, 32, PrecisionMode::FP16, *reference_);
  const auto mixed = run_mode(*data_, 32, PrecisionMode::Mixed, *reference_);
  const auto fp16c = run_mode(*data_, 32, PrecisionMode::FP16C, *reference_);

  // FP32 beats the half-precision family.
  EXPECT_GE(fp32.accuracy, mixed.accuracy);
  EXPECT_GE(fp32.accuracy, fp16.accuracy);
  // Higher-precision precalculation (Mixed/FP16C) beats plain FP16.
  EXPECT_GE(mixed.accuracy, fp16.accuracy);
  EXPECT_GE(fp16c.accuracy, fp16.accuracy);
  // Mixed and FP16C are nearly interchangeable (§V-B: "almost the same").
  EXPECT_NEAR(mixed.accuracy, fp16c.accuracy, 0.05);
}

TEST_F(ReducedPrecisionSuite, TilingImprovesHalfPrecisionAccuracy) {
  // The paper's Fig. 7 / §V-D: more tiles bound the QT error propagation
  // and raise FP16-family accuracy.
  const auto one = run_mode(*data_, 32, PrecisionMode::FP16, *reference_, 1);
  const auto many = run_mode(*data_, 32, PrecisionMode::FP16, *reference_, 16);
  EXPECT_GE(many.accuracy, one.accuracy);
}

TEST_F(ReducedPrecisionSuite, TilingDoesNotHurtFp64) {
  const auto one = run_mode(*data_, 32, PrecisionMode::FP64, *reference_, 1);
  const auto many = run_mode(*data_, 32, PrecisionMode::FP64, *reference_, 16);
  EXPECT_NEAR(many.accuracy, one.accuracy, 1e-9);
  EXPECT_GT(many.recall, 0.99);
}

TEST_F(ReducedPrecisionSuite, PatternDetectionSurvivesReducedPrecision) {
  // Practical accuracy (Fig. 3): every mode detects the embedded motifs
  // even when numerical accuracy degrades.
  for (PrecisionMode mode : kAllPrecisionModes) {
    MatrixProfileConfig config;
    config.window = 32;
    config.mode = mode;
    const auto r =
        compute_matrix_profile(data_->reference, data_->query, config);
    const double recall = metrics::embedded_motif_recall(
        r.index, r.segments, data_->injections, 32, 0.05);
    EXPECT_GE(recall, 0.9) << to_string(mode);
  }
}

TEST(ReducedPrecisionModel, HalfModesModelFasterThanFp64AtPaperScale) {
  // The roofline model must reproduce the paper's performance ordering at
  // the paper's problem size (n = 2^16, d = 2^6, m = 2^6 on one A100):
  // FP16-family < FP32 < FP64, with a sub-linear FP16 speedup because the
  // synchronisation-bound sort kernel barely benefits (§V-C).
  double modeled[5] = {};
  int i = 0;
  for (PrecisionMode mode : kAllPrecisionModes) {
    ModelConfig config;
    config.spec = gpusim::a100();
    config.n_r = config.n_q = 1 << 16;
    config.dims = 1 << 6;
    config.window = 1 << 6;
    config.mode = mode;
    modeled[i++] = model_matrix_profile(config).total_seconds();
  }
  const double fp64 = modeled[0], fp32 = modeled[1], fp16 = modeled[2];
  const double mixed = modeled[3], fp16c = modeled[4];
  EXPECT_GT(fp64, fp32);
  EXPECT_GT(fp32, fp16);
  // Mixed and FP16C cost essentially the same as FP16 (§V-C: the
  // precalculation difference is negligible).
  EXPECT_NEAR(mixed, fp16, 0.15 * fp16);
  EXPECT_NEAR(fp16c, fp16, 0.15 * fp16);
  // Sub-linear in the bit width: well below 4x, meaningfully above 1x
  // (the paper reports ~1.4x overall).
  EXPECT_LT(fp64 / fp16, 4.0);
  EXPECT_GT(fp64 / fp16, 1.1);
}

TEST(ReducedPrecisionModel, AnalyticModelMatchesExecutedAccounting) {
  // A run reports the model of the very plan it executed, so the analytic
  // model of the same shape agrees with it exactly.
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = 4;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);

  MatrixProfileConfig run_config;
  run_config.window = 16;
  run_config.mode = PrecisionMode::Mixed;
  run_config.tiles = 4;
  run_config.devices = 2;
  const auto executed =
      compute_matrix_profile(data.reference, data.query, run_config);

  ModelConfig model_config;
  model_config.spec = gpusim::a100();
  model_config.n_r = data.reference.segment_count(16);
  model_config.n_q = data.query.segment_count(16);
  model_config.dims = 4;
  model_config.window = 16;
  model_config.mode = PrecisionMode::Mixed;
  model_config.tiles = 4;
  model_config.devices = 2;
  const auto modeled = model_matrix_profile(model_config);

  EXPECT_EQ(modeled.device_seconds, executed.modeled_device_seconds);
  EXPECT_EQ(modeled.merge_seconds, executed.modeled_merge_seconds);
}

TEST(ReducedPrecisionStress, FlatRegionsDegradeGracefully) {
  // Ill-conditioned input (§V-B): near-flat segments. FP16 may lose the
  // segments entirely (inv -> 0) but must not produce out-of-range
  // indices, and FP64 must stay correct.
  TimeSeries ref(512 + 31, 2), qry(512 + 31, 2);
  Rng rng(4);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t t = 0; t < ref.length(); ++t) {
      // Tiny noise on a huge offset: variance cancels catastrophically.
      ref.at(t, k) = 300.0 + rng.normal(0.0, 1e-3);
      qry.at(t, k) = 300.0 + rng.normal(0.0, 1e-3);
    }
  }
  for (PrecisionMode mode :
       {PrecisionMode::FP64, PrecisionMode::FP16, PrecisionMode::FP16C}) {
    MatrixProfileConfig config;
    config.window = 32;
    config.mode = mode;
    const auto r = compute_matrix_profile(ref, qry, config);
    for (const auto idx : r.index) {
      EXPECT_GE(idx, -1);
      EXPECT_LT(idx, std::int64_t(ref.segment_count(32)));
    }
  }
}

TEST(ReducedPrecisionStress, RandomWalksAreHardForFp16ButTilesHelp) {
  // Random walks drift, so sliding means vary over a wide range — the
  // textbook stressor for the difference-of-cumulative-sums statistics.
  // FP16 degrades well below its white-noise accuracy; tiling must claw
  // accuracy back (the paper's §V-D mechanism on the hard case).
  const auto reference = make_random_walk_series(800 + 31, 2, 1.0, 61);
  const auto query = make_random_walk_series(800 + 31, 2, 1.0, 62);
  CpuReferenceConfig cpu;
  cpu.window = 32;
  const auto exact = compute_matrix_profile_cpu(reference, query, cpu);

  auto accuracy_with_tiles = [&](int tiles) {
    MatrixProfileConfig config;
    config.window = 32;
    config.mode = PrecisionMode::FP16;
    config.tiles = tiles;
    const auto r = compute_matrix_profile(reference, query, config);
    return metrics::relative_accuracy(r.profile, exact.profile);
  };
  const double one_tile = accuracy_with_tiles(1);
  const double many_tiles = accuracy_with_tiles(16);
  EXPECT_GE(many_tiles + 0.02, one_tile);

  // Mixed-precision precalculation rescues most of it even at one tile.
  MatrixProfileConfig mixed;
  mixed.window = 32;
  mixed.mode = PrecisionMode::Mixed;
  const auto rm = compute_matrix_profile(reference, query, mixed);
  EXPECT_GT(metrics::relative_accuracy(rm.profile, exact.profile),
            one_tile);
}

TEST(ReducedPrecisionStress, OverflowProducesNoBogusMatches) {
  // Values near the FP16 max overflow the precalculation sums; overflowed
  // (NaN/inf) distances must never win the min-merge.
  TimeSeries ref(256 + 15, 1), qry(256 + 15, 1);
  Rng rng(9);
  for (std::size_t t = 0; t < ref.length(); ++t) {
    ref.at(t, 0) = 60000.0 + rng.normal(0.0, 100.0);
    qry.at(t, 0) = 60000.0 + rng.normal(0.0, 100.0);
  }
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP16;
  const auto r = compute_matrix_profile(ref, qry, config);
  for (std::size_t e = 0; e < r.profile.size(); ++e) {
    // Entries are either valid (finite, matched) or explicitly unmatched
    // (+inf / -1); never NaN, never a NaN-backed index.
    if (r.index[e] >= 0) {
      EXPECT_FALSE(std::isnan(r.profile[e])) << e;
    }
  }
}

}  // namespace
}  // namespace mpsim::mp
