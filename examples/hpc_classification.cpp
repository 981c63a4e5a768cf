// Application classification from HPC monitoring telemetry (paper §VI-A):
// label the applications running on a cluster by nearest-neighbour lookup
// through the multi-dimensional matrix profile index.
//
//   $ ./hpc_classification [--length=6000] [--window=32] [--mode=Mixed]
//
// Pipeline: generate labelled 16-sensor telemetry, split into a reference
// half (with known labels) and a query half, compute the matrix profile,
// transfer labels through the index, score precision / recall / F per
// application class.
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "metrics/classifier.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/hpc_telemetry.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"length", "window", "mode", "tiles"});

  HpcTelemetrySpec spec;
  spec.length = args.get_size("length", 6000);
  const std::size_t window = args.get_size("window", 32);
  const auto data = make_hpc_telemetry(spec);

  const std::size_t half = spec.length / 2;
  const TimeSeries reference = data.series.slice(0, half);
  const TimeSeries query = data.series.slice(half, spec.length - half);
  const std::vector<int> ref_labels(data.labels.begin(),
                                    data.labels.begin() + std::ptrdiff_t(half));
  const std::vector<int> qry_labels(data.labels.begin() + std::ptrdiff_t(half),
                                    data.labels.end());

  mp::MatrixProfileConfig config;
  config.window = window;
  config.mode = parse_precision_mode(args.get_string("mode", "Mixed"));
  config.tiles = args.get_int32("tiles", 16);
  std::printf("telemetry: %zu samples x %zu sensors; window=%zu; mode=%s, "
              "%d tiles\n\n",
              spec.length, data.series.dims(), window,
              to_string(config.mode).c_str(), config.tiles);

  const auto result = mp::compute_matrix_profile(reference, query, config);
  const auto predicted = metrics::nn_classify(result, 0, ref_labels, window);
  const auto truth = metrics::segment_labels(qry_labels, result.segments,
                                             window, /*pure_only=*/true);
  const auto report = metrics::evaluate_classification(
      predicted, truth, int(kHpcAppClassCount));

  Table table({"class", "precision", "recall", "F1"});
  for (const auto& score : report.per_class) {
    if (score.true_positives + score.false_negatives == 0) continue;
    table.add_row({hpc_app_class_name(HpcAppClass(score.cls)),
                   fmt_fixed(score.precision), fmt_fixed(score.recall),
                   fmt_fixed(score.f1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("accuracy %.3f, macro F-score %.3f (host wall %.2f s, "
              "modeled A100 %.3f s)\n",
              report.accuracy, report.macro_f1, result.wall_seconds,
              result.modeled_total_seconds());
  return 0;
}
