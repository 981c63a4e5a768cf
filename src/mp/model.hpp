// Analytic performance model of the full multi-tile matrix-profile run.
//
// The simulator executes kernels for real, so its wall time limits the
// problem sizes it can run — but the roofline model itself is closed-form.
// This module evaluates it without executing anything (same per-launch
// costs and barrier-round counts as the engine's kernel ledger), which is
// how the benches report the paper's full-scale figures (n = 2^16..2^18)
// next to the executed-and-measured scaled runs.  It is also the one
// source of a run's modelled seconds: compute_matrix_profile evaluates
// its own plan (plan_tiles) with model_tiles.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gpusim/spec.hpp"
#include "common/trace.hpp"
#include "mp/options.hpp"
#include "mp/tile_plan.hpp"
#include "precision/modes.hpp"

namespace mpsim::mp {

struct ModelConfig {
  gpusim::MachineSpec spec;        ///< device spec (v100() / a100())
  std::size_t n_r = 0;             ///< reference segments
  std::size_t n_q = 0;             ///< query segments
  std::size_t dims = 1;            ///< d
  std::size_t window = 64;         ///< m
  PrecisionMode mode = PrecisionMode::FP64;
  int tiles = 1;
  int nodes = 1;                   ///< simulated nodes
  int devices = 1;                 ///< per node, as in MatrixProfileConfig
  TileAssignment assignment = TileAssignment::kRoundRobin;
};

struct ModelReport {
  double device_seconds = 0.0;   ///< makespan across devices
  double merge_seconds = 0.0;    ///< CPU-side tile merge
  double network_seconds = 0.0;  ///< profile reduction (model_cluster)
  std::map<std::string, double> kernel_seconds;  ///< summed per kernel

  double total_seconds() const {
    return device_seconds + merge_seconds + network_seconds;
  }
};

/// Inter-node network of the cluster model (defaults: 200 Gb/s-class HDR
/// InfiniBand with a few microseconds of latency).
struct InterconnectSpec {
  double bandwidth_gbs = 25.0;  ///< usable GB/s per link
  double latency_us = 2.0;      ///< per message
};

/// The plan of a run: compute_tile_list, then deal_tiles over
/// config.nodes x config.devices.  compute_matrix_profile executes
/// exactly this list.
std::vector<Tile> plan_tiles(const ModelConfig& config);

/// Evaluates the roofline model of a dealt tile list (Tile::device is a
/// global id below nodes * devices): per-device makespan with the
/// stream-overlap rule, plus the CPU-side tile merge.
ModelReport model_tiles(const ModelConfig& config,
                        const std::vector<Tile>& tiles);

/// Evaluates the roofline model for a full run of the given shape:
/// model_tiles of plan_tiles.
ModelReport model_matrix_profile(const ModelConfig& config);

/// The multi-node run of the paper's §VII extension ("extended to
/// multiple nodes (e.g., using MPI)") at paper scale.  Executing it needs
/// no model: compute_matrix_profile runs config.nodes simulated nodes
/// bit-identically to one.  What the simulator does not execute is the
/// interconnect, so this adds it to model_matrix_profile: the tile merges
/// spread over the nodes, then a binomial-tree reduction of the
/// (n_q * d)-entry profile and index arrays, ceil(log2 nodes) rounds of
/// one message (latency + bytes / bandwidth) and one CPU merge each.
ModelReport model_cluster(const ModelConfig& config,
                          const InterconnectSpec& net = {});

/// Builds the modelled execution timeline of the planned run: per global
/// device, a "copy" lane (H2D/D2H transfers) and a "compute" lane (the
/// per-tile kernel phases), with stream-overlapped scheduling.  Export
/// with Timeline::write_chrome_json for chrome://tracing / Perfetto.
Timeline model_timeline(const ModelConfig& config);

/// Modelled CPU cost of min-merging one partial profile of q_count
/// columns x dims into another: one tile into the global profile, or one
/// reduction round of model_cluster.
double model_merge_seconds(std::size_t q_count, std::size_t dims);

/// Modelled device seconds (kernels + copies) of one tile — the same
/// accounting model_matrix_profile sums per device.  The resilient
/// scheduler's watchdog derives per-tile deadlines from it: modelled
/// seconds × a calibrated wall-per-modelled ratio × a slack factor.
double model_tile_seconds(const gpusim::MachineSpec& spec, const Tile& tile,
                          std::size_t dims, std::size_t window,
                          PrecisionMode mode);

}  // namespace mpsim::mp
