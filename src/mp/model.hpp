// Analytic performance model of the full multi-tile matrix-profile run.
//
// The simulator executes kernels for real, so its wall time limits the
// problem sizes it can run — but the roofline model itself is closed-form.
// This module evaluates exactly the accounting the execution path performs
// (same per-launch costs, same barrier-round counts, same stream-overlap
// and merge rules) without executing anything, which is how the benches
// report the paper's full-scale figures (n = 2^16..2^18) next to the
// executed-and-measured scaled runs.
#pragma once

#include <map>
#include <string>

#include "gpusim/spec.hpp"
#include "common/trace.hpp"
#include "mp/options.hpp"
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
  int devices = 1;
  int streams_per_device = 16;
  TileAssignment assignment = TileAssignment::kRoundRobin;
};

struct ModelReport {
  double device_seconds = 0.0;  ///< makespan across devices
  double merge_seconds = 0.0;   ///< CPU-side tile merge
  std::map<std::string, double> kernel_seconds;  ///< summed per kernel

  double total_seconds() const { return device_seconds + merge_seconds; }
};

/// Evaluates the roofline model for a full run of the given shape.
ModelReport model_matrix_profile(const ModelConfig& config);

/// Builds the modelled execution timeline of the run: per device, a
/// "copy" lane (H2D/D2H transfers) and a "compute" lane (the per-tile
/// kernel phases), with stream-overlapped scheduling.  Export with
/// Timeline::write_chrome_json for chrome://tracing / Perfetto.
Timeline model_timeline(const ModelConfig& config);

/// Modelled CPU-side merge cost of a tile set (shared with the execution
/// path in resilient.cpp).
double model_merge_seconds(std::size_t tile_count,
                           std::size_t q_count_per_tile, std::size_t dims);

struct Tile;

/// Modelled device seconds (kernels + copies) of one tile — the same
/// accounting model_matrix_profile sums per device.  The resilient
/// scheduler's watchdog derives per-tile deadlines from it: modelled
/// seconds × a calibrated wall-per-modelled ratio × a slack factor.
double model_tile_seconds(const gpusim::MachineSpec& spec, const Tile& tile,
                          std::size_t dims, std::size_t window,
                          PrecisionMode mode);

}  // namespace mpsim::mp
