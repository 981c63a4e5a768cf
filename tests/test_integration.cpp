// End-to-end integration tests mirroring the paper's three case studies at
// reduced scale: HPC telemetry classification (§VI-A), genome similarity
// search (§VI-B) and turbine startup detection (§VI-C).
#include <gtest/gtest.h>

#include "metrics/accuracy.hpp"
#include "metrics/classifier.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/genome.hpp"
#include "tsdata/hpc_telemetry.hpp"
#include "tsdata/turbine.hpp"

namespace mpsim {
namespace {

TEST(HpcClassification, Fp64ClassifierIsAccurate) {
  HpcTelemetrySpec spec;
  spec.length = 6000;
  spec.seed = 1;
  const auto data = make_hpc_telemetry(spec);
  const std::size_t half = spec.length / 2;
  const std::size_t window = 32;
  const TimeSeries reference = data.series.slice(0, half);
  const TimeSeries query = data.series.slice(half, spec.length - half);
  const std::vector<int> ref_labels(data.labels.begin(),
                                    data.labels.begin() + std::ptrdiff_t(half));
  const std::vector<int> qry_labels(data.labels.begin() + std::ptrdiff_t(half),
                                    data.labels.end());

  mp::MatrixProfileConfig config;
  config.window = window;
  config.mode = PrecisionMode::FP64;
  const auto result = mp::compute_matrix_profile(reference, query, config);

  // Classify on the 1-dimensional profile (best-matching sensor) and
  // evaluate on segments with well-defined (single-phase) ground truth.
  const auto predicted = metrics::nn_classify(result, 0, ref_labels, window);
  const auto truth = metrics::segment_labels(qry_labels, result.segments,
                                             window, /*pure_only=*/true);
  const auto report = metrics::evaluate_classification(
      predicted, truth, int(kHpcAppClassCount));
  EXPECT_GT(report.accuracy, 0.75);
  EXPECT_GT(report.macro_f1, 0.7);
}

TEST(HpcClassification, ReducedPrecisionStaysUseful) {
  HpcTelemetrySpec spec;
  spec.length = 4000;
  spec.seed = 2;
  const auto data = make_hpc_telemetry(spec);
  const std::size_t half = spec.length / 2;
  const std::size_t window = 32;
  const TimeSeries reference = data.series.slice(0, half);
  const TimeSeries query = data.series.slice(half, spec.length - half);
  const std::vector<int> ref_labels(data.labels.begin(),
                                    data.labels.begin() + std::ptrdiff_t(half));
  const std::vector<int> qry_labels(data.labels.begin() + std::ptrdiff_t(half),
                                    data.labels.end());

  double f1_fp64 = 0.0, f1_mixed = 0.0;
  for (PrecisionMode mode : {PrecisionMode::FP64, PrecisionMode::Mixed}) {
    mp::MatrixProfileConfig config;
    config.window = window;
    config.mode = mode;
    const auto result = mp::compute_matrix_profile(reference, query, config);
    const auto predicted = metrics::nn_classify(result, 0, ref_labels, window);
    const auto truth = metrics::segment_labels(qry_labels, result.segments,
                                               window, /*pure_only=*/true);
    const auto report = metrics::evaluate_classification(
        predicted, truth, int(kHpcAppClassCount));
    (mode == PrecisionMode::FP64 ? f1_fp64 : f1_mixed) = report.macro_f1;
  }
  // Fig. 9: the Mixed classifier loses little versus FP64.
  EXPECT_GT(f1_mixed, f1_fp64 - 0.2);
}

TEST(GenomeSearch, SharedSubstringsProduceStrongMatches) {
  GenomeSpec spec;
  spec.length = 1500;
  spec.chromosomes = 4;
  spec.shared_fraction = 1.0;
  spec.mutation_rate = 0.0;
  spec.copy_block = 300;
  const auto data = make_genome_dataset(spec);

  mp::MatrixProfileConfig config;
  config.window = 64;
  config.mode = PrecisionMode::FP64;
  const auto r =
      mp::compute_matrix_profile(data.reference, data.query, config);
  // With verbatim copies, a large fraction of query segments must find an
  // exact (distance ~0) match in the reference.
  std::size_t exact = 0;
  for (std::size_t j = 0; j < r.segments; ++j) {
    if (r.at(j, 0) < 1e-6) ++exact;
  }
  EXPECT_GT(double(exact) / double(r.segments), 0.5);
}

TEST(GenomeSearch, TilingRecoversFp16IndexRecall) {
  // Fig. 10's qualitative claim at test scale: FP16 recall (vs the FP64
  // reference) does not degrade when tiles are added, and typically gains.
  GenomeSpec spec;
  spec.length = 1200;
  spec.chromosomes = 2;
  const auto data = make_genome_dataset(spec);

  mp::CpuReferenceConfig cpu;
  cpu.window = 32;
  const auto reference =
      mp::compute_matrix_profile_cpu(data.reference, data.query, cpu);

  auto recall_with_tiles = [&](int tiles) {
    mp::MatrixProfileConfig config;
    config.window = 32;
    config.mode = PrecisionMode::FP16;
    config.tiles = tiles;
    const auto r =
        mp::compute_matrix_profile(data.reference, data.query, config);
    return metrics::recall_rate(r.index, reference.index);
  };
  const double one = recall_with_tiles(1);
  const double many = recall_with_tiles(16);
  EXPECT_GE(many + 0.02, one);
}

TEST(TurbineDetection, StartupEventsFoundAcrossModes) {
  TurbineSpec spec;
  spec.segments = 2048;
  spec.window = 128;
  // Reference contains both startup shapes; query contains P1 events.
  const auto reference = make_turbine_series(spec, 1, 3, 3);
  const auto query = make_turbine_series(spec, 2, 4, 0);

  // Expected: each query P1 event matches some reference P1 event.  Use
  // relaxed recall with the paper's 5% relaxation factor against the
  // nearest reference P1 location.
  for (PrecisionMode mode :
       {PrecisionMode::FP64, PrecisionMode::FP32, PrecisionMode::Mixed}) {
    mp::MatrixProfileConfig config;
    config.window = spec.window;
    config.mode = mode;
    const auto r =
        mp::compute_matrix_profile(reference.series, query.series, config);

    std::size_t hits = 0;
    const auto tolerance = std::int64_t(0.05 * double(spec.window));
    for (const std::size_t q : query.p1_starts) {
      const std::int64_t found = r.index[q];
      for (const std::size_t expected : reference.p1_starts) {
        if (std::llabs(found - std::int64_t(expected)) <= tolerance) {
          ++hits;
          break;
        }
      }
    }
    EXPECT_GE(double(hits) / double(query.p1_starts.size()), 0.75)
        << to_string(mode);
  }
}

TEST(TurbineDetection, MatchesPreferSameShape) {
  // A P2-only query against a reference with both shapes should match P2
  // events, not P1 events (the shapes are distinguishable, Fig. 11).
  TurbineSpec spec;
  spec.segments = 2048;
  spec.window = 128;
  const auto reference = make_turbine_series(spec, 1, 3, 3);
  const auto query = make_turbine_series(spec, 2, 0, 4);

  mp::MatrixProfileConfig config;
  config.window = spec.window;
  config.mode = PrecisionMode::FP64;
  const auto r =
      mp::compute_matrix_profile(reference.series, query.series, config);

  const auto tolerance = std::int64_t(0.25 * double(spec.window));
  std::size_t p2_hits = 0;
  for (const std::size_t q : query.p2_starts) {
    for (const std::size_t expected : reference.p2_starts) {
      if (std::llabs(r.index[q] - std::int64_t(expected)) <= tolerance) {
        ++p2_hits;
        break;
      }
    }
  }
  EXPECT_GE(double(p2_hits) / double(query.p2_starts.size()), 0.75);
}

TEST(EndToEnd, MultiDeviceMultiTileReducedPrecisionPipeline) {
  // The paper's full configuration in miniature: 4 simulated A100s, 16
  // tiles, FP16C, on pattern-injected data — results must be usable and
  // the modelled makespan must beat the single-device model.
  SyntheticSpec spec;
  spec.segments = 512;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 3;
  const auto data = make_synthetic_dataset(spec);

  mp::MatrixProfileConfig config;
  config.window = 32;
  config.mode = PrecisionMode::FP16C;
  config.tiles = 16;
  config.devices = 4;
  const auto multi =
      mp::compute_matrix_profile(data.reference, data.query, config);
  config.devices = 1;
  const auto single =
      mp::compute_matrix_profile(data.reference, data.query, config);

  EXPECT_LT(multi.modeled_device_seconds,
            single.modeled_device_seconds * 0.5);
  const double recall = metrics::embedded_motif_recall(
      multi.index, multi.segments, data.injections, 32, 0.05);
  EXPECT_GE(recall, 0.9);
}

}  // namespace
}  // namespace mpsim
