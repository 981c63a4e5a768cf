#include "cluster/cluster.hpp"

#include <cmath>

#include "gpusim/spec.hpp"
#include "mp/model.hpp"

namespace mpsim::cluster {
namespace {

/// Reduction rounds of a binomial tree over `nodes` ranks.
int reduction_rounds(int nodes) {
  int rounds = 0;
  while ((1 << rounds) < nodes) ++rounds;
  return rounds;
}

/// Bytes of one partial-profile message: the full (n_q * d) profile and
/// index arrays (profile in binary64 after D2H conversion, index int64).
std::int64_t message_bytes(std::size_t n_q, std::size_t dims) {
  return std::int64_t(n_q * dims) * (8 + 8);
}

double network_seconds(const InterconnectSpec& net, std::int64_t bytes,
                       int nodes) {
  if (nodes <= 1) return 0.0;
  const double per_round =
      net.latency_us * 1e-6 + double(bytes) / (net.bandwidth_gbs * 1e9);
  return double(reduction_rounds(nodes)) * per_round;
}

/// CPU merge cost of the reduction rounds (each round min-merges one full
/// partial profile into the local one).
double reduction_merge_seconds(std::size_t n_q, std::size_t dims,
                               int nodes) {
  if (nodes <= 1) return 0.0;
  return double(reduction_rounds(nodes)) *
         mp::model_merge_seconds(n_q, dims);
}

}  // namespace

ClusterModelReport model_cluster(std::size_t n_r, std::size_t n_q,
                                 std::size_t dims, std::size_t window,
                                 const ClusterConfig& config) {
  mp::ModelConfig model;
  model.spec = gpusim::spec_by_name(config.machine);
  model.n_r = n_r;
  model.n_q = n_q;
  model.dims = dims;
  model.window = window;
  model.mode = config.mode;
  model.tiles = config.tiles;
  model.nodes = config.nodes;
  model.devices = config.devices_per_node;
  const auto report = mp::model_matrix_profile(model);

  ClusterModelReport out;
  out.compute_seconds = report.device_seconds;
  // Tile merges spread across the nodes; reduction rounds add the
  // network-side merges.
  out.merge_seconds = report.merge_seconds / double(config.nodes) +
                      reduction_merge_seconds(n_q, dims, config.nodes);
  out.network_seconds = network_seconds(
      config.interconnect, message_bytes(n_q, dims), config.nodes);
  return out;
}

}  // namespace mpsim::cluster
