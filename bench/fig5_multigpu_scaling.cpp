// Fig. 5 — Execution time and parallel efficiency of the multi-tile
// implementation with 16 tiles on a DGX-1 (8x V100), n=2^16, d=2^8, for
// all five precision modes, plus the per-kernel breakdown on one GPU.
//
// Paper reference (§V-C): near-linear scaling with >90% efficiency at
// 1/2/4/8 GPUs in FP64 (~80% in reduced precision); dips at odd GPU
// counts because 16 tiles don't divide evenly; reduced-precision kernels
// scale with the data width except the synchronisation-bound sort.
//
// Performance at this size is modelled (roofline, mp/model.hpp); a scaled
// executed run cross-checks multi-device correctness elsewhere (tests).
#include <vector>

#include "support.hpp"

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"scale", "quick", "tiles", "trace"});
  bench::banner("Figure 5",
                "Multi-GPU scaling on DGX-1 (8x V100), 16 tiles, n=2^16, "
                "d=2^8, all precision modes (modelled).\n"
                "Paper: >90% efficiency at 1/2/4/8 GPUs (FP64); dips at "
                "odd GPU counts; ~80% in reduced precision.");

  const std::size_t n = 1 << 16;
  const std::size_t d = 1 << 8;
  const std::size_t m = 1 << 6;
  const int tiles = args.get_int32("tiles", 16);

  // --- Execution time and efficiency vs number of GPUs. ---
  Table table({"GPUs", "FP64 [s]", "Eff", "FP32 [s]", "Eff", "FP16 [s]",
               "Eff", "Mixed [s]", "Eff", "FP16C [s]", "Eff"});
  std::vector<double> single(5, 0.0);
  for (int gpus = 1; gpus <= 8; ++gpus) {
    std::vector<std::string> row{std::to_string(gpus)};
    int mi = 0;
    for (PrecisionMode mode : kAllPrecisionModes) {
      mp::ModelConfig config;
      config.spec = gpusim::v100();
      config.n_r = config.n_q = n;
      config.dims = d;
      config.window = m;
      config.mode = mode;
      config.tiles = tiles;
      config.devices = gpus;
      const double t = mp::model_matrix_profile(config).total_seconds();
      if (gpus == 1) single[std::size_t(mi)] = t;
      const double eff = single[std::size_t(mi)] / (double(gpus) * t);
      row.push_back(fmt_fixed(t, 2));
      row.push_back(fmt_pct(eff, 0));
      ++mi;
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- Per-kernel breakdown on one GPU, per mode (left part of Fig. 5).
  Table breakdown({"mode", "precalc+others", "dist_calc", "sort_&_incl_scan",
                   "update_mat_prof", "total [s]"});
  for (PrecisionMode mode : kAllPrecisionModes) {
    mp::ModelConfig config;
    config.spec = gpusim::v100();
    config.n_r = config.n_q = n;
    config.dims = d;
    config.window = m;
    config.mode = mode;
    config.tiles = tiles;
    const auto report = mp::model_matrix_profile(config);
    auto kernel = [&](const char* name) {
      const auto it = report.kernel_seconds.find(name);
      return it == report.kernel_seconds.end() ? 0.0 : it->second;
    };
    breakdown.add_row(
        {bench::mode_label(mode),
         fmt_fixed(kernel("precalculation") + kernel("memcpy_h2d") +
                   kernel("memcpy_d2h") + report.merge_seconds, 2),
         fmt_fixed(kernel("dist_calc"), 2),
         fmt_fixed(kernel("sort_&_incl_scan"), 2),
         fmt_fixed(kernel("update_mat_prof"), 2),
         fmt_fixed(report.total_seconds(), 2)});
  }
  std::printf("Kernel breakdown on one V100 (16 tiles):\n%s\n",
              breakdown.to_string().c_str());
  std::printf("Note: sort_&_incl_scan barely gains from reduced precision "
              "(synchronisation-bound), which caps the\noverall FP16 "
              "speedup — the paper's ~1.4x observation.\n");

  if (args.has("trace")) {
    mp::ModelConfig config;
    config.spec = gpusim::v100();
    config.n_r = config.n_q = n;
    config.dims = d;
    config.window = m;
    config.tiles = tiles;
    config.devices = 8;
    const auto timeline = mp::model_timeline(config);
    const auto path = args.get_string("trace", "fig5_trace.json");
    timeline.write_chrome_json(path);
    std::printf("modelled 8-GPU schedule written to %s "
                "(open in chrome://tracing)\n",
                path.c_str());
  }
  return 0;
}
