// Genome similarity search (paper §VI-B): encode base sequences as time
// series (A=1, C=2, T=3, G=4) and use the multi-dimensional matrix profile
// to locate query substrings that also occur in a reference genome —
// with reduced precision and tiling for scale.
//
//   $ ./genome_analysis [--length=4096] [--chromosomes=8] [--window=64]
//                       [--mode=FP16] [--tiles=16]
//
// Reports how many query segments found (near-)exact reference matches
// and compares the reduced-precision index against the FP64 reference.
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "metrics/accuracy.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/genome.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"length", "chromosomes", "window", "mode", "tiles"});

  GenomeSpec spec;
  spec.length = args.get_size("length", 4096);
  spec.chromosomes = args.get_size("chromosomes", 8);
  const std::size_t window = args.get_size("window", 64);
  const auto data = make_genome_dataset(spec);
  std::printf("genome: %zu chromosomes x %zu bases; ~%.0f%% of the query "
              "copied from the reference with %.1f%% point mutations\n\n",
              spec.chromosomes, spec.length, spec.shared_fraction * 100.0,
              spec.mutation_rate * 100.0);

  mp::MatrixProfileConfig config;
  config.window = window;
  config.mode = parse_precision_mode(args.get_string("mode", "FP16"));
  config.tiles = args.get_int32("tiles", 16);
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);

  // Conserved-region report: query segments with near-zero distance found
  // a (possibly mutated) copy of themselves in the reference.
  std::size_t conserved = 0;
  for (std::size_t j = 0; j < result.segments; ++j) {
    if (result.at(j, 0) < 0.5) ++conserved;
  }
  std::printf("%zu of %zu query segments (%.1f%%) have a conserved match "
              "in the reference (mode %s, %d tiles)\n",
              conserved, result.segments,
              100.0 * double(conserved) / double(result.segments),
              to_string(config.mode).c_str(), config.tiles);

  // Accuracy of the reduced-precision index vs the FP64 reference.
  mp::CpuReferenceConfig cpu_config;
  cpu_config.window = window;
  const auto reference =
      mp::compute_matrix_profile_cpu(data.reference, data.query, cpu_config);
  std::printf("index recall vs FP64 reference: %.1f%%; profile accuracy: "
              "%.1f%%\n",
              100.0 * metrics::recall_rate(result.index, reference.index),
              100.0 * metrics::relative_accuracy(result.profile,
                                                 reference.profile));
  std::printf("host wall %.2f s; modeled A100 %.3f s\n", result.wall_seconds,
              result.modeled_total_seconds());
  return 0;
}
