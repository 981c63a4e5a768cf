// Roofline performance model and per-kernel accounting ledger.
//
// Every simulated kernel launch (and every host<->device copy) reports a
// KernelCost describing the DRAM traffic, floating-point work and
// device-wide cooperative synchronisation rounds it performs.  The model
// converts that into seconds on a MachineSpec:
//
//   t = launch_overhead
//     + max( bytes / (BW * bw_eff),  flops / (peak(width) * compute_eff) )
//     + barrier_rounds * barrier_round_cost
//
// This is the standard roofline for memory-bound kernels with an additive
// synchronisation term; the paper's own profiling (§V-C "Resource
// Utilization": dist_calc/update at >80% DRAM throughput, sort dominated by
// "repeating synchronization overheads") motivates exactly these terms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/spec.hpp"

namespace mpsim::gpusim {

struct KernelCost {
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t flops = 0;
  std::int64_t barrier_rounds = 0;  ///< device-wide sync rounds (sort/scan)
  std::size_t flop_width_bytes = 8;  ///< arithmetic width: 8, 4 or 2
  /// Tensor-core input format of the launch's inner loop (kNone for
  /// kernels without matmul structure).  When the machine publishes a
  /// tensor peak for the format, the compute roof uses it instead of the
  /// regular flop-width peak — this is how the blocked-GEMM precalc
  /// (mp/gemm.hpp) earns V100/A100 tensor-core throughput in the model.
  TensorFormat tensor_format = TensorFormat::kNone;
  /// Launch occupancy in (0, 1]: the share of resident threads the launch
  /// configuration keeps busy.  GPUs saturate DRAM bandwidth around half
  /// occupancy; below that, achievable bandwidth and compute shrink
  /// proportionally (the §IV launch-tuning effect).
  double occupancy = 1.0;

  std::int64_t total_bytes() const { return bytes_read + bytes_written; }

  KernelCost& operator+=(const KernelCost& o);
};

/// Modelled execution time of one launch with the given cost, in seconds.
double modeled_seconds(const MachineSpec& spec, const KernelCost& cost);

/// Modelled host<->device transfer time for `bytes`, in seconds.
double modeled_copy_seconds(const MachineSpec& spec, std::int64_t bytes);

/// Aggregated modelled statistics for one kernel name.
struct KernelStats {
  std::int64_t launches = 0;
  KernelCost cost;               ///< summed over launches
  double modeled_seconds = 0.0;  ///< summed modelled time
  double measured_seconds = 0.0; ///< summed host wall time (diagnostics)
};

/// Thread-safe ledger of kernel launches and copies; the tile engine keeps
/// one per tile attempt (TileResult::ledger).
class KernelLedger {
 public:
  void record(const std::string& kernel, const KernelCost& cost,
              double seconds, double measured_seconds = 0.0);

  /// Stats for one kernel (zeros if never launched).
  KernelStats stats(const std::string& kernel) const;

  /// All kernels, sorted by name.
  std::vector<std::pair<std::string, KernelStats>> all() const;

  /// Total modelled seconds across all recorded launches.
  double total_modeled_seconds() const;

  void reset();

  /// Merges another ledger's records into this one.
  void merge_from(const KernelLedger& other);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, KernelStats> stats_;
};

}  // namespace mpsim::gpusim
