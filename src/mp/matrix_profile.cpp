#include "mp/matrix_profile.hpp"

#include <cmath>
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
  if (config.nodes > 64) {
    throw ConfigError(
        "nodes must be <= 64 (resume probes that many side journals)");
  }
  // The backoff doubles per retry: 16 retries already sleep
  // 2^15 x kRetryBackoffMs before the last one.
  if (config.resilience.max_retries < 0 ||
      config.resilience.max_retries > 16) {
    throw ConfigError("resilience.max_retries (--max-retries) must be in "
                      "[0, 16], got " +
                      std::to_string(config.resilience.max_retries));
  }
  // Written so NaN fails too: a NaN slack collapses every deadline to
  // the kWatchdogMinDeadlineMs floor.
  const double slack = config.resilience.watchdog_slack;
  if (!(std::isfinite(slack) && slack > 0.0)) {
    throw ConfigError("watchdog slack (--watchdog-slack) must be finite and "
                      "> 0, got " + std::to_string(slack));
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
  const auto non_negative = [](const char* what, int value) {
    if (value < 0) {
      throw ConfigError(std::string(what) + " must be >= 0, got " +
                        std::to_string(value));
    }
  };
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
