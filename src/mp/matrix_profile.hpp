// Public façade of the library: compute the multi-dimensional matrix
// profile of a query series against a reference series on (simulated)
// GPUs, in any of the paper's five precision modes, with optional
// multi-tile / multi-device / multi-node execution.
//
// Quick start:
//
//   mpsim::mp::MatrixProfileConfig config;
//   config.window = 64;
//   config.mode = mpsim::PrecisionMode::Mixed;
//   config.tiles = 16;
//   config.devices = 4;
//   auto result = mpsim::mp::compute_matrix_profile(ref, query, config);
//   // result.at(j, k): distance of query segment j's best (k+1)-dim match
//   // result.index_at(j, k): the matching reference segment
#pragma once

#include "mp/options.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::mp {

/// Computes the matrix profile on `config.nodes` simulated nodes of
/// `config.devices` devices each (built from config.machine): validate →
/// plan tiles → restore journals → run every node's devices under one
/// scheduler → interrupt flush / CPU fallback → journal → assemble →
/// health (see mp/coordinator.cpp).
/// Output bits never depend on the node or device count.  Throws
/// InterruptedError after flushing the journal when a shutdown request
/// (or a kill_after_tiles / kill_after_slices chaos kill) stops the run.
MatrixProfileResult compute_matrix_profile(const TimeSeries& reference,
                                           const TimeSeries& query,
                                           const MatrixProfileConfig& config);

/// Self-join: the matrix profile of a series against itself, excluding
/// trivial matches.  If config.exclusion is 0, it defaults to window/2
/// (the standard exclusion-zone radius of the matrix profile literature);
/// the configured value is used otherwise.
MatrixProfileResult compute_self_join(const TimeSeries& series,
                                      MatrixProfileConfig config);

/// Validates a configuration against the input shapes; throws ConfigError
/// with an actionable message on any problem.
void validate_config(const TimeSeries& reference, const TimeSeries& query,
                     const MatrixProfileConfig& config);

}  // namespace mpsim::mp
