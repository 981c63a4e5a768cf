// Fig. 9 — Application classification on HPC telemetry (§VI-A): F-score
// and runtime of the matrix-profile nearest-neighbour classifier per
// precision mode.
//
// The public HPC-ODA dataset is not available offline; the synthetic
// telemetry generator reproduces its structure (16 sensors, labelled
// benchmark phases: Kripke, LAMMPS, linpack, AMG, PENNANT, Quicksilver,
// plus idle).  Reference/query split along time, label transfer through
// the matrix profile index, macro F-score on single-phase segments.
//
// Paper reference: F-score > 0.95 for FP64/FP32/Mixed/FP16C, ~0.9 for
// FP16 (at HPC-ODA's size); runtime decreases slightly with reduced
// precision.  Our single-tile FP16 degrades harder at this length — the
// multi-tile column shows the paper's tiling remedy (§V-D) applies here
// too.
#include "metrics/classifier.hpp"
#include "support.hpp"
#include "tsdata/hpc_telemetry.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"scale", "quick", "length", "window"});
  bench::banner("Figure 9",
                "Nearest-neighbour application classification on synthetic "
                "HPC telemetry: F-score and runtime per mode.\n"
                "Paper (HPC-ODA): >0.95 for Mixed/FP16C, ~0.9 for FP16; "
                "slight runtime gain from reduced precision.");

  const std::size_t length = args.get_size("length", bench::scaled(args, 6000));
  const std::size_t window = args.get_size("window", 32);

  HpcTelemetrySpec spec;
  spec.length = length;
  const auto data = make_hpc_telemetry(spec);
  const std::size_t half = length / 2;
  const TimeSeries reference = data.series.slice(0, half);
  const TimeSeries query = data.series.slice(half, length - half);
  const std::vector<int> ref_labels(data.labels.begin(),
                                    data.labels.begin() + std::ptrdiff_t(half));
  const std::vector<int> qry_labels(data.labels.begin() + std::ptrdiff_t(half),
                                    data.labels.end());

  Table table({"mode", "tiles", "F-score", "accuracy", "host wall [s]",
               "A100 model [s]"});
  for (PrecisionMode mode : kAllPrecisionModes) {
    for (int tiles : {1, 16}) {
      mp::MatrixProfileConfig config;
      config.window = window;
      config.mode = mode;
      config.tiles = tiles;
      const auto result = mp::compute_matrix_profile(reference, query,
                                                     config);
      const auto predicted =
          metrics::nn_classify(result, 0, ref_labels, window);
      const auto truth = metrics::segment_labels(
          qry_labels, result.segments, window, /*pure_only=*/true);
      const auto report = metrics::evaluate_classification(
          predicted, truth, int(kHpcAppClassCount));
      table.add_row({bench::mode_label(mode), std::to_string(tiles),
                     fmt_fixed(report.macro_f1), fmt_fixed(report.accuracy),
                     fmt_fixed(result.wall_seconds, 2),
                     fmt_sci(result.modeled_total_seconds())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(length=%zu samples, %zu sensors, window=%zu; classification "
              "on the 1-dimensional profile;\nsegments spanning phase "
              "boundaries are excluded from scoring)\n\n",
              length, data.series.dims(), window);

  // ---- Fig. 8 analogue: the classified timeline, rendered as text. ----
  // One character per bucket of segments; digits are class ids, '.' =
  // idle, '?' = unmatched.  Mismatching buckets are marked under the
  // strip.
  {
    mp::MatrixProfileConfig config;
    config.window = window;
    config.mode = PrecisionMode::Mixed;
    config.tiles = 16;
    const auto result = mp::compute_matrix_profile(reference, query, config);
    const auto predicted = metrics::nn_classify(result, 0, ref_labels,
                                                window);
    const auto truth =
        metrics::segment_labels(qry_labels, result.segments, window);
    auto glyph = [](int cls) {
      if (cls < 0) return '?';
      return cls == 0 ? '.' : char('0' + cls);
    };
    const std::size_t buckets = 96;
    std::string pred_strip, truth_strip, marks;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t j = b * result.segments / buckets;
      pred_strip += glyph(predicted[j]);
      truth_strip += glyph(truth[j]);
      marks += predicted[j] == truth[j] ? ' ' : '^';
    }
    std::printf("Fig. 8 analogue — classified timeline (Mixed mode; digits "
                "= application classes, '.' = idle):\n");
    std::printf("  predicted: %s\n  truth:     %s\n  mismatch:  %s\n",
                pred_strip.c_str(), truth_strip.c_str(), marks.c_str());
    std::printf("  classes: ");
    for (std::size_t c = 1; c < kHpcAppClassCount; ++c) {
      std::printf("%zu=%s ", c, hpc_app_class_name(HpcAppClass(c)));
    }
    std::printf("\n");
  }
  return 0;
}
