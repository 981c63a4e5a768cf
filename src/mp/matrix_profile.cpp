#include "mp/matrix_profile.hpp"

#include <cstdint>
#include <string>

namespace mpsim::mp {

void validate_config(const TimeSeries& reference, const TimeSeries& query,
                     const MatrixProfileConfig& config) {
  if (reference.dims() != query.dims()) {
    throw ConfigError("reference has " + std::to_string(reference.dims()) +
                      " dimensions but query has " +
                      std::to_string(query.dims()));
  }
  if (config.window < 4) {
    throw ConfigError("window must be at least 4 samples");
  }
  if (reference.segment_count(config.window) == 0 ||
      query.segment_count(config.window) == 0) {
    throw ConfigError("window " + std::to_string(config.window) +
                      " exceeds an input series length");
  }
  if (config.tiles < 1) throw ConfigError("tiles must be >= 1");
  if (config.devices < 1) throw ConfigError("devices must be >= 1");
  if (config.nodes < 1) throw ConfigError("nodes must be >= 1");
  // Each device runs a worker thread plus a pool of at least one, and
  // resume probes 64 per-node journal segments; 64 devices cover 8 nodes of
  // the paper's 8-GPU DGX-1.
  if (std::int64_t(config.nodes) * config.devices > 64) {
    throw ConfigError("nodes x devices must be <= 64, got " +
                      std::to_string(config.nodes) + " x " +
                      std::to_string(config.devices) + " (--nodes, --devices)");
  }
  // A NaN budget makes the sketch guard band NaN, which skips nothing.
  if (!(config.prefilter.budget > 0.0 && config.prefilter.budget < 1.0)) {
    throw ConfigError("prefilter budget (--prefilter-budget) must be in "
                      "(0, 1), got " +
                      std::to_string(config.prefilter.budget));
  }
  if (config.checkpoint.interval_tiles < 1) {
    throw ConfigError("checkpoint.interval_tiles must be >= 1");
  }
  const auto non_negative = [](const char* what, std::int64_t value) {
    if (value < 0) {
      throw ConfigError(std::string(what) + " must be >= 0, got " +
                        std::to_string(value));
    }
  };
  non_negative("exclusion (--exclusion)", config.exclusion);
  non_negative("checkpoint.slice_rows (--slice-rows)",
               config.checkpoint.slice_rows);
  non_negative("checkpoint.kill_after_tiles (--kill-after-tiles)",
               config.checkpoint.kill_after_tiles);
  non_negative("checkpoint.kill_after_slices (--kill-after-slices)",
               config.checkpoint.kill_after_slices);
}

MatrixProfileResult compute_self_join(const TimeSeries& series,
                                      MatrixProfileConfig config) {
  if (config.exclusion == 0) {
    config.exclusion = std::int64_t(config.window / 2);
  }
  return compute_matrix_profile(series, series, config);
}

}  // namespace mpsim::mp
