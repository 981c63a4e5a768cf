#include "gpusim/perf_model.hpp"

#include <algorithm>

namespace mpsim::gpusim {

KernelCost& KernelCost::operator+=(const KernelCost& o) {
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  flops += o.flops;
  barrier_rounds += o.barrier_rounds;
  flop_width_bytes = o.flop_width_bytes;  // launches of one kernel share it
  occupancy = o.occupancy;                // ... and its launch configuration
  tensor_format = o.tensor_format;
  return *this;
}

double modeled_seconds(const MachineSpec& spec, const KernelCost& cost) {
  // DRAM bandwidth saturates near half occupancy; compute scales with
  // occupancy until full.
  const double occ = std::clamp(cost.occupancy, 1e-6, 1.0);
  const double bw_scale = std::min(1.0, occ / 0.5);
  const double compute_scale = occ;

  const double bw =
      spec.mem_bandwidth_gbs * 1e9 * spec.bw_efficiency * bw_scale;
  const double mem_time = bw > 0 ? double(cost.total_bytes()) / bw : 0.0;

  // Tensor-eligible launches (matmul-structured inner loops) ride the
  // tensor-core roof when the machine has one for the input format;
  // everything else — including tensor-shaped work on machines without
  // that format's tensor path — uses the regular flop-width peak.
  double peak_tf = spec.peak_tflops(cost.flop_width_bytes);
  if (cost.tensor_format != TensorFormat::kNone) {
    const double tensor = spec.tensor_peak_tflops(cost.tensor_format);
    if (tensor > 0.0) peak_tf = tensor;
  }
  const double peak = peak_tf * 1e12 * spec.compute_efficiency * compute_scale;
  const double compute_time = peak > 0 ? double(cost.flops) / peak : 0.0;

  return spec.kernel_launch_overhead_us * 1e-6 +
         std::max(mem_time, compute_time) +
         double(cost.barrier_rounds) * spec.barrier_round_cost_us * 1e-6;
}

double modeled_copy_seconds(const MachineSpec& spec, std::int64_t bytes) {
  if (spec.copy_bandwidth_gbs <= 0.0) return 0.0;
  return spec.copy_latency_us * 1e-6 +
         double(bytes) / (spec.copy_bandwidth_gbs * 1e9);
}

void KernelLedger::record(const std::string& kernel, const KernelCost& cost,
                          double seconds, double measured_seconds) {
  std::lock_guard lock(mutex_);
  auto& s = stats_[kernel];
  s.launches += 1;
  s.cost += cost;
  s.modeled_seconds += seconds;
  s.measured_seconds += measured_seconds;
}

KernelStats KernelLedger::stats(const std::string& kernel) const {
  std::lock_guard lock(mutex_);
  const auto it = stats_.find(kernel);
  return it == stats_.end() ? KernelStats{} : it->second;
}

std::vector<std::pair<std::string, KernelStats>> KernelLedger::all() const {
  std::lock_guard lock(mutex_);
  return {stats_.begin(), stats_.end()};
}

double KernelLedger::total_modeled_seconds() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const auto& [name, s] : stats_) {
    (void)name;
    total += s.modeled_seconds;
  }
  return total;
}

void KernelLedger::reset() {
  std::lock_guard lock(mutex_);
  stats_.clear();
}

void KernelLedger::merge_from(const KernelLedger& other) {
  const auto snapshot = other.all();
  std::lock_guard lock(mutex_);
  for (const auto& [name, s] : snapshot) {
    auto& mine = stats_[name];
    mine.launches += s.launches;
    mine.cost += s.cost;
    mine.modeled_seconds += s.modeled_seconds;
    mine.measured_seconds += s.measured_seconds;
  }
}

}  // namespace mpsim::gpusim
