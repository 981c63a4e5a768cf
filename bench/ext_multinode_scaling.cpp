// Extension — multi-node scaling (paper §VII future work: "extended to
// multiple nodes (e.g., using MPI)").
//
// Models a cluster of Raven-like nodes (4x A100 each) running the
// multi-tile algorithm with a binomial-tree reduction of the partial
// profiles over a 200 Gb/s-class interconnect, at the paper's problem
// size.  A scaled executed run (tests/test_cluster.cpp) verifies that
// multi-node execution is functionally identical to single-node.
#include "gpusim/spec.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"scale", "quick", "tiles", "n"});
  bench::banner("Extension: multi-node scaling",
                "Modelled cluster of 4xA100 nodes, n=2^17, d=2^6, 128 "
                "tiles, FP64 and Mixed.\n"
                "Expected: near-linear compute scaling; the profile "
                "reduction adds a logarithmic network term.");

  const std::size_t n = args.get_size("n", 1 << 17);
  const std::size_t d = 1 << 6;
  const std::size_t m = 1 << 6;

  Table table({"nodes", "GPUs", "mode", "compute [s]", "merge [s]",
               "network [s]", "total [s]", "efficiency"});
  for (PrecisionMode mode : {PrecisionMode::FP64, PrecisionMode::Mixed}) {
    double single = 0.0;
    for (int nodes : {1, 2, 4, 8, 16}) {
      mp::ModelConfig config;
      config.spec = gpusim::a100();
      config.n_r = n;
      config.n_q = n;
      config.dims = d;
      config.window = m;
      config.mode = mode;
      config.tiles = args.get_int32("tiles", 128);
      config.nodes = nodes;
      config.devices = 4;
      const auto r = mp::model_cluster(config);
      if (nodes == 1) single = r.total_seconds();
      const double eff =
          single / (double(nodes) * r.total_seconds());
      table.add_row({std::to_string(nodes), std::to_string(nodes * 4),
                     bench::mode_label(mode), fmt_fixed(r.device_seconds, 2),
                     fmt_fixed(r.merge_seconds, 2),
                     fmt_fixed(r.network_seconds, 3),
                     fmt_fixed(r.total_seconds(), 2), fmt_pct(eff, 0)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
