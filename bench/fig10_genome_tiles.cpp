// Fig. 10 — Genome-in-a-Bottle case study (§VI-B): numerical recall rate
// R of the matrix profile index and execution time of the multi-tile
// implementation on encoded genome data, as the tile count grows.
//
// GIAB's Chinese-trio data is not available offline; the synthetic genome
// generator produces reference/query chromosome sets with shared mutated
// substrings, encoded A->1, C->2, T->3, G->4 exactly as the paper.
//
// Paper reference (n=2^18, d=2^4, m=2^7): FP16 recall grows from ~75% at
// one tile to >95% at 1024 tiles; Mixed/FP16C >95% at any tile count;
// execution time behaves as in Fig. 7.
#include "support.hpp"
#include "tsdata/genome.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"scale", "quick", "window"});
  bench::banner("Figure 10",
                "Genome search: matrix profile index recall (R) and time "
                "vs tile count, per precision mode.\n"
                "Paper: FP16 75% -> >95% as tiles grow; Mixed/FP16C >95% "
                "at any tile count.");

  const std::size_t n = bench::scaled(args, 2048);
  const std::size_t d = 8;   // paper: 2^4 chromosomes
  const std::size_t m = args.get_size("window", 64);

  GenomeSpec spec;
  spec.length = n + m - 1;
  spec.chromosomes = d;
  const auto data = make_genome_dataset(spec);
  const auto reference = bench::cpu_reference(data.reference, data.query, m);

  Table table({"mode", "tiles", "recall R", "accuracy A",
               "A100 model [s] @ n=2^18,d=2^4,m=2^7"});
  for (PrecisionMode mode : kAllPrecisionModes) {
    for (int tiles : {1, 4, 16, 64, 256}) {
      mp::MatrixProfileConfig config;
      config.window = m;
      config.mode = mode;
      config.tiles = tiles;
      const auto r =
          mp::compute_matrix_profile(data.reference, data.query, config);
      mp::ModelConfig model;
      model.spec = gpusim::a100();
      model.n_r = model.n_q = 1 << 18;
      model.dims = 1 << 4;
      model.window = 1 << 7;
      model.mode = mode;
      model.tiles = tiles;
      table.add_row(
          {bench::mode_label(mode), std::to_string(tiles),
           fmt_pct(metrics::recall_rate(r.index, reference.index)),
           fmt_pct(metrics::relative_accuracy(r.profile, reference.profile)),
           fmt_fixed(mp::model_matrix_profile(model).total_seconds(), 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(executed at n=%zu, d=%zu chromosomes, m=%zu; encoding "
              "A=1 C=2 T=3 G=4)\n",
              n, d, m);
  return 0;
}
