#include "mp/model.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "gpusim/perf_model.hpp"
#include "mp/kernels.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {
namespace {

struct TileModel {
  double kernel_seconds = 0.0;
  double copy_seconds = 0.0;
  std::map<std::string, double> per_kernel;
};

template <typename Traits>
TileModel model_tile(const gpusim::MachineSpec& spec, const Tile& tile,
                     std::size_t d, std::size_t m) {
  const std::size_t nr = tile.r_count;
  const std::size_t nq = tile.q_count;
  TileModel out;

  // precalculation: two launches (stats pass + blocked-GEMM QT-seed pass,
  // the latter tensor-core eligible), exactly as the engine issues them.
  const double pre =
      gpusim::modeled_seconds(spec, precalc_stats_cost<Traits>(nr, nq, d, m)) +
      gpusim::modeled_seconds(spec, gemm_seed_cost<Traits>(nr, nq, d, m));
  out.per_kernel["precalculation"] += pre;
  out.kernel_seconds += pre;

  // Main loop: nr iterations of the three kernels.  Barrier rounds repeat
  // once per occupancy wave, mirroring launch_cooperative's accounting.
  // The engine skips sort_&_incl_scan entirely for d == 1 (identity).
  auto sort = sort_scan_cost<Traits>(nq, d);
  sort.barrier_rounds =
      sort_scan_barrier_rounds(d) *
      spec.wave_count(std::int64_t(nq) * std::int64_t(next_pow2(d)));
  const double dist =
      gpusim::modeled_seconds(spec, dist_calc_cost<Traits>(nq, d));
  const double sort_s = d == 1 ? 0.0 : gpusim::modeled_seconds(spec, sort);
  const double upd = gpusim::modeled_seconds(spec, update_cost<Traits>(nq, d));
  out.per_kernel["dist_calc"] += dist * double(nr);
  if (d > 1) out.per_kernel["sort_&_incl_scan"] += sort_s * double(nr);
  out.per_kernel["update_mat_prof"] += upd * double(nr);
  out.kernel_seconds += (dist + sort_s + upd) * double(nr);

  // Copies: the two input tiles in, profile + index out (logical storage
  // width — the simulator may hold emulated formats in wider host words).
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const double h2d =
      gpusim::modeled_copy_seconds(
          spec, es * std::int64_t((nr + m - 1) * d)) +
      gpusim::modeled_copy_seconds(spec, es * std::int64_t((nq + m - 1) * d));
  const double d2h =
      gpusim::modeled_copy_seconds(spec, es * std::int64_t(nq * d)) +
      gpusim::modeled_copy_seconds(spec, 8 * std::int64_t(nq * d));
  out.per_kernel["memcpy_h2d"] += h2d;
  out.per_kernel["memcpy_d2h"] += d2h;
  out.copy_seconds += h2d + d2h;
  return out;
}

}  // namespace

double model_merge_seconds(std::size_t q_count, std::size_t dims) {
  const auto cpu = gpusim::skylake_cpu16();
  gpusim::KernelCost cost;
  const auto qd = std::int64_t(q_count * dims);
  cost.bytes_read = qd * 24;    // tile P + I + global P
  cost.bytes_written = qd * 8;  // global P/I updates (amortised)
  cost.flops = qd;
  return gpusim::modeled_seconds(cpu, cost) + 50e-6;  // + merge dispatch
}

std::vector<Tile> plan_tiles(const ModelConfig& config) {
  auto tiles = compute_tile_list(config.n_r, config.n_q, config.tiles);
  deal_tiles(tiles, config.nodes, config.devices, config.assignment);
  return tiles;
}

ModelReport model_tiles(const ModelConfig& config,
                        const std::vector<Tile>& tiles) {
  const std::size_t fleet =
      std::size_t(config.nodes) * std::size_t(config.devices);
  ModelReport report;
  std::vector<double> kernels(fleet, 0.0);
  std::vector<double> copies(fleet, 0.0);
  std::vector<int> tile_count(fleet, 0);

  for (const auto& tile : tiles) {
    MPSIM_CHECK(tile.device >= 0 && std::size_t(tile.device) < fleet,
                "tile assigned outside the device range");
    const TileModel tm = dispatch_precision(
        config.mode, [&]<typename Traits>() {
          return model_tile<Traits>(config.spec, tile, config.dims,
                                    config.window);
        });
    kernels[std::size_t(tile.device)] += tm.kernel_seconds;
    copies[std::size_t(tile.device)] += tm.copy_seconds;
    tile_count[std::size_t(tile.device)] += 1;
    for (const auto& [name, seconds] : tm.per_kernel) {
      report.kernel_seconds[name] += seconds;
    }
    report.merge_seconds += model_merge_seconds(tile.q_count, config.dims);
  }

  for (std::size_t dev = 0; dev < fleet; ++dev) {
    // The paper's streams overlap copies with compute when a device runs
    // several tiles; a single serialized tile pays both.
    const bool overlapped = kStreamsPerDevice > 1 && tile_count[dev] > 1;
    const double t = overlapped ? std::max(kernels[dev], copies[dev])
                                : kernels[dev] + copies[dev];
    report.device_seconds = std::max(report.device_seconds, t);
  }
  return report;
}

ModelReport model_matrix_profile(const ModelConfig& config) {
  return model_tiles(config, plan_tiles(config));
}

ModelReport model_cluster(const ModelConfig& config,
                          const InterconnectSpec& net) {
  int rounds = 0;  // of a binomial tree over the nodes
  while ((1 << rounds) < config.nodes) ++rounds;
  // One message: the profile (binary64 after D2H) and the int64 index.
  const auto bytes = std::int64_t(config.n_q * config.dims) * (8 + 8);
  ModelReport report = model_matrix_profile(config);
  report.merge_seconds =
      report.merge_seconds / double(config.nodes) +
      double(rounds) * model_merge_seconds(config.n_q, config.dims);
  report.network_seconds =
      double(rounds) * (net.latency_us * 1e-6 +
                        double(bytes) / (net.bandwidth_gbs * 1e9));
  return report;
}

Timeline model_timeline(const ModelConfig& config) {
  const std::vector<Tile> tiles = plan_tiles(config);
  Timeline timeline;
  for (const auto& tile : tiles) {
    const TileModel tm = dispatch_precision(
        config.mode, [&]<typename Traits>() {
          return model_tile<Traits>(config.spec, tile, config.dims,
                                    config.window);
        });
    auto kernel_seconds = [&](const char* name) {
      const auto it = tm.per_kernel.find(name);
      return it == tm.per_kernel.end() ? 0.0 : it->second;
    };

    const std::string prefix = "tile " + std::to_string(tile.id) + " ";

    // H2D on the copy lane, as soon as it is free.
    const double h2d_start =
        timeline.lane_end_seconds(tile.device, "copy");
    const double h2d = kernel_seconds("memcpy_h2d");
    timeline.add({prefix + "h2d", tile.device, "copy", h2d_start, h2d});

    // Kernels on the compute lane, after both the lane and the input
    // transfer are ready.
    double t = std::max(timeline.lane_end_seconds(tile.device, "compute"),
                        h2d_start + h2d);
    for (const char* name :
         {"precalculation", "dist_calc", "sort_&_incl_scan",
          "update_mat_prof"}) {
      const double dur = kernel_seconds(name);
      if (dur <= 0.0) continue;
      timeline.add({prefix + name, tile.device, "compute", t, dur});
      t += dur;
    }

    // D2H back on the copy lane once the kernels finished.
    const double d2h_start =
        std::max(timeline.lane_end_seconds(tile.device, "copy"), t);
    timeline.add({prefix + "d2h", tile.device, "copy", d2h_start,
                  kernel_seconds("memcpy_d2h")});
  }
  return timeline;
}

double model_tile_seconds(const gpusim::MachineSpec& spec, const Tile& tile,
                          std::size_t dims, std::size_t window,
                          PrecisionMode mode) {
  const TileModel tm = dispatch_precision(
      mode, [&]<typename Traits>() {
        return model_tile<Traits>(spec, tile, dims, window);
      });
  return tm.kernel_seconds + tm.copy_seconds;
}

}  // namespace mpsim::mp
