// Motif discovery on multi-dimensional synthetic data — the paper's core
// use case (§II-B): find the best 1..d-dimensional matches of a query
// series in a reference series, and show how the precision modes and the
// tiling scheme trade accuracy for speed.
//
//   $ ./motif_discovery [--n=2048] [--d=8] [--m=64] [--tiles=4]
//
// Prints the top motifs per profile dimensionality, then a mode-by-mode
// comparison against the FP64 CPU reference.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "metrics/accuracy.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"n", "d", "m", "tiles"});

  SyntheticSpec spec;
  spec.segments = args.get_size("n", 2048);
  spec.dims = args.get_size("d", 8);
  spec.window = args.get_size("m", 64);
  spec.shape = PatternShape::kChirp;
  spec.injections_per_dim = 2;
  const auto data = make_synthetic_dataset(spec);
  std::printf("data: n=%zu segments, d=%zu dimensions, window m=%zu, "
              "%zu injected motif pairs\n\n",
              spec.segments, spec.dims, spec.window, data.injections.size());

  // --- FP64 matrix profile; report the best k-dimensional motifs. ---
  mp::MatrixProfileConfig config;
  config.window = spec.window;
  config.tiles = args.get_int32("tiles", 4);
  const auto fp64 = mp::compute_matrix_profile(data.reference, data.query,
                                               config);

  std::printf("best k-dimensional motifs (FP64):\n");
  for (std::size_t k = 0; k < std::min<std::size_t>(4, fp64.dims); ++k) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < fp64.segments; ++j) {
      if (fp64.at(j, k) < fp64.at(best, k)) best = j;
    }
    std::printf("  %zu-dim: query %zu -> reference %lld (distance %.4f)\n",
                k + 1, best, (long long)fp64.index_at(best, k),
                fp64.at(best, k));
  }

  // --- Reduced-precision comparison against the FP64 CPU reference. ---
  mp::CpuReferenceConfig cpu_config;
  cpu_config.window = spec.window;
  const auto reference =
      mp::compute_matrix_profile_cpu(data.reference, data.query, cpu_config);

  Table table({"mode", "accuracy A", "recall R", "motif recall",
               "modeled A100 [s]"});
  for (PrecisionMode mode : kAllPrecisionModes) {
    config.mode = mode;
    const auto r = mp::compute_matrix_profile(data.reference, data.query,
                                              config);
    table.add_row(
        {to_string(mode),
         fmt_pct(metrics::relative_accuracy(r.profile, reference.profile)),
         fmt_pct(metrics::recall_rate(r.index, reference.index)),
         fmt_pct(metrics::embedded_motif_recall(r.index, r.segments,
                                                data.injections, spec.window,
                                                0.05)),
         fmt_sci(r.modeled_total_seconds())});
  }
  std::printf("\nprecision modes vs FP64 CPU reference (%d tiles):\n%s",
              config.tiles, table.to_string().c_str());
  return 0;
}
