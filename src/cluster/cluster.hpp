// Performance model of the multi-node matrix profile — the paper's
// proposed extension "to multiple nodes (e.g., using MPI)" (§VII).
//
// Execution needs no separate path: mp::compute_matrix_profile shards the
// tile grid across config.nodes simulated nodes (mp/coordinator.cpp) and
// min-merges the tiles exactly as MPI ranks would, bit-identical to one
// node.  What the simulator does not execute is the interconnect, so this
// module models the cluster run analytically: the roofline makespan of
// the tiles dealt exactly as an executed run deals them (mp::deal_tiles:
// nodes first, then each node's devices), plus a binomial-tree reduction
// of the (n_q * d)-entry profile/index arrays over the network
// (ceil(log2 nodes) rounds of latency + bytes/bandwidth), plus the
// per-round CPU merge cost.
#pragma once

#include <cstddef>
#include <string>

#include "precision/modes.hpp"

namespace mpsim::cluster {

/// Inter-node network characteristics (defaults: 200 Gb/s-class HDR
/// InfiniBand with a few microseconds of latency).
struct InterconnectSpec {
  double bandwidth_gbs = 25.0;  ///< usable GB/s per link
  double latency_us = 2.0;      ///< per message
};

struct ClusterConfig {
  int nodes = 1;
  int devices_per_node = 4;       ///< e.g. a Raven node has 4 A100s
  std::string machine = "A100";
  InterconnectSpec interconnect;

  std::size_t window = 64;
  PrecisionMode mode = PrecisionMode::FP64;
  int tiles = 16;                 ///< total tiles across the cluster
};

/// Analytic model of the cluster run (no execution) for paper-scale
/// problem sizes.
struct ClusterModelReport {
  double compute_seconds = 0;
  double merge_seconds = 0;
  double network_seconds = 0;
  double total_seconds() const {
    return compute_seconds + merge_seconds + network_seconds;
  }
};

ClusterModelReport model_cluster(std::size_t n_r, std::size_t n_q,
                                 std::size_t dims, std::size_t window,
                                 const ClusterConfig& config);

}  // namespace mpsim::cluster
