#include "mp/matrix_profile.hpp"

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
  if (config.nodes > 64) {
    throw ConfigError(
        "nodes must be <= 64 (resume probes that many side journals)");
  }
  if (config.streams_per_device < 1 || config.streams_per_device > 16) {
    throw ConfigError("streams_per_device must be in [1, 16]");
  }
  // The backoff doubles per retry: 16 retries already sleep
  // 2^15 x backoff_ms before the last one.
  if (config.resilience.max_retries < 0 ||
      config.resilience.max_retries > 16) {
    throw ConfigError("resilience.max_retries (--max-retries) must be in "
                      "[0, 16], got " +
                      std::to_string(config.resilience.max_retries));
  }
  if (config.resilience.blacklist_after < 1) {
    throw ConfigError("resilience.blacklist_after must be >= 1");
  }
  if (config.resilience.watchdog_slack <= 0.0 ||
      config.resilience.watchdog_poll_ms <= 0.0) {
    throw ConfigError("watchdog slack and poll period must be > 0");
  }
  if (config.resilience.max_tile_splits < 0) {
    throw ConfigError("resilience.max_tile_splits must be >= 0");
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
}

MatrixProfileResult compute_self_join(const TimeSeries& series,
                                      MatrixProfileConfig config) {
  if (config.exclusion == 0) {
    config.exclusion = std::int64_t(config.window / 2);
  }
  return compute_matrix_profile(series, series, config);
}

}  // namespace mpsim::mp
