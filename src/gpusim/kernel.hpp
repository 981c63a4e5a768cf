// Kernel-launch API of the simulated device.
//
// Two launch shapes cover everything the paper's four kernels need:
//
//  * launch_grid_stride — an embarrassingly parallel kernel over an index
//    space [0, n).  On hardware each logical thread strides by
//    grid*block over the space ("grid-stride loop", §III-A); in the
//    simulator the space is split into contiguous chunks across the
//    device's worker pool, which preserves exactly the per-element
//    computation (there are no inter-element dependencies by contract).
//
//  * launch_cooperative — groups of threads that cooperate with barriers
//    (the Bitonic sort + inclusive-scan kernel, §III-A "coarse-grained
//    synchronization" via cooperative groups).  Each group's body receives
//    a GroupContext whose for_each_lane() runs the per-lane work of one
//    stage and whose barrier() separates stages.  Lanes of a stage must
//    write disjoint locations (true for Bitonic compare-exchange networks
//    and fan-in scans), so sequential in-group execution is semantically
//    identical to lockstep execution with barriers.  Barrier rounds are
//    counted and fed to the roofline model's synchronisation term.
//
// Both shapes run synchronously on the calling thread (their bodies on the
// device's worker pool) and record their KernelCost and modelled time in
// the ledger the caller passes, if any.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/perf_model.hpp"

namespace mpsim::gpusim {

/// CUDA-style launch configuration.  The simulator honours it for the
/// modelled occupancy record; functional execution uses the host pool.
struct LaunchConfig {
  std::int64_t grid_size = 64;
  std::int64_t block_size = 1024;

  std::int64_t total_threads() const { return grid_size * block_size; }

  /// The tuned configuration the paper uses on a given machine (§IV:
  /// grid 64 x block 2560 on V100, 64 x 3456 on A100).
  static LaunchConfig tuned_for(const MachineSpec& spec) {
    return LaunchConfig{64, spec.default_thread_count() / 64};
  }

  /// Fraction of the device's resident-thread capacity this configuration
  /// keeps busy.  Under-sized launches starve SMs and sustain a
  /// correspondingly smaller share of the bandwidth/compute roofs —
  /// which is why the paper tunes grid and block sizes to the hardware
  /// (§IV: "these configurations provide the best performance").
  double occupancy(const MachineSpec& spec) const {
    const double capacity = double(spec.resident_thread_capacity());
    if (capacity <= 0.0) return 1.0;
    return std::min(1.0, double(total_threads()) / capacity);
  }
};

/// Context handed to each cooperative group's body.
class GroupContext {
 public:
  GroupContext(std::int64_t group_index, std::int64_t lane_count)
      : group_index_(group_index), lane_count_(lane_count) {}

  std::int64_t group_index() const { return group_index_; }
  std::int64_t lane_count() const { return lane_count_; }

  /// Runs fn(lane) for every lane of the group (one parallel stage).
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    for (std::int64_t lane = 0; lane < lane_count_; ++lane) fn(lane);
  }

  /// Group-wide synchronisation point between stages.
  void barrier() { ++barriers_; }

  std::int64_t barrier_count() const { return barriers_; }

 private:
  std::int64_t group_index_;
  std::int64_t lane_count_;
  std::int64_t barriers_ = 0;
};

namespace detail {

inline void record_launch(const Device& device, const std::string& name,
                          const KernelCost& cost, KernelLedger* ledger,
                          double measured_seconds) {
  if (ledger == nullptr) return;
  ledger->record(name, cost, modeled_seconds(device.spec(), cost),
                 measured_seconds);
}

}  // namespace detail

/// Validates that a cooperative launch's per-group scratchpad fits the
/// device's shared memory: groups resident per SM = resident threads /
/// lanes, all holding their buffers simultaneously.  Throws like a failed
/// CUDA launch otherwise.  Shared by launch_cooperative and the engine's
/// fused row pipeline, which replaces the launch but models (and must
/// reject) the same kernel.
inline void validate_group_shared_mem(const Device& device,
                                      const std::string& name,
                                      std::int64_t lane_count,
                                      std::size_t shared_bytes_per_group) {
  if (shared_bytes_per_group == 0) return;
  const auto& spec = device.spec();
  const std::size_t groups_per_sm = std::max<std::size_t>(
      1, std::size_t(spec.max_threads_per_sm) /
             std::size_t(std::max<std::int64_t>(1, lane_count)));
  const std::size_t needed = groups_per_sm * shared_bytes_per_group;
  MPSIM_CHECK(needed <= spec.shared_mem_per_sm_bytes,
              "cooperative kernel '"
                  << name << "' needs " << needed
                  << " bytes of shared memory per SM but " << spec.name
                  << " provides " << spec.shared_mem_per_sm_bytes
                  << "; reduce the group size or dimensionality");
}

/// Records a logical kernel launch that was executed as part of a fused
/// host pass rather than through launch_grid_stride/launch_cooperative:
/// the ledger entry (modeled seconds from `cost`, measured share of the
/// fused pass's wall clock) is indistinguishable from an unfused launch,
/// which keeps perf-model figures and metrics/trace span shapes stable
/// across execution paths.  `cost.barrier_rounds` must be pre-filled by
/// the caller for cooperative kernels (the fused pass runs no simulated
/// barriers to measure).
inline void record_fused_launch(const Device& device, const std::string& name,
                                const LaunchConfig& config, KernelCost cost,
                                KernelLedger* ledger,
                                double measured_seconds) {
  cost.occupancy = config.occupancy(device.spec());
  detail::record_launch(device, name, cost, ledger, measured_seconds);
}

/// Launches an embarrassingly parallel kernel over [0, n) and returns
/// when it has finished.  `body(begin, end)` processes a contiguous chunk;
/// it is invoked concurrently from the device pool.  `ledger` (optional)
/// receives the launch record — the tile engine passes its tile's ledger.
/// `cancel` (optional) is polled when the launch's work starts: a
/// cancelled attempt unwinds with CancelledError instead of executing.
inline void launch_grid_stride(
    Device& device, const std::string& name, LaunchConfig config,
    std::int64_t n, KernelCost cost,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    KernelLedger* ledger = nullptr,
    const CancellationToken* cancel = nullptr) {
  cost.occupancy = config.occupancy(device.spec());
  if (cancel != nullptr) cancel->poll(name.c_str());
  device.fault_point(FaultSite::kKernelLaunch, name, cancel);
  Stopwatch watch;
  device.pool().parallel_for(
      std::size_t(n), [&body](std::size_t begin, std::size_t end) {
        body(std::int64_t(begin), std::int64_t(end));
      });
  detail::record_launch(device, name, cost, ledger, watch.seconds());
}

/// Launches a cooperative kernel with `group_count` groups of `lane_count`
/// lanes.  `cost.barrier_rounds` should be left zero: the actual number of
/// device-wide barrier rounds is measured from the groups' barrier() calls
/// (max across groups, as groups of one round synchronise concurrently).
/// `shared_bytes_per_group` models the scratchpad the group's sort/scan
/// buffers occupy (§IV "exploit shared memory in thread block"); a launch
/// whose resident groups cannot fit in an SM's shared memory is rejected,
/// exactly as a CUDA launch would fail.
inline void launch_cooperative(
    Device& device, const std::string& name, LaunchConfig config,
    std::int64_t group_count, std::int64_t lane_count, KernelCost cost,
    const std::function<void(GroupContext&)>& body,
    KernelLedger* ledger = nullptr, std::size_t shared_bytes_per_group = 0,
    const CancellationToken* cancel = nullptr) {
  validate_group_shared_mem(device, name, lane_count, shared_bytes_per_group);
  cost.occupancy = config.occupancy(device.spec());
  if (cancel != nullptr) cancel->poll(name.c_str());
  device.fault_point(FaultSite::kKernelLaunch, name, cancel);
  Stopwatch watch;
  std::atomic<std::int64_t> max_barriers{0};
  device.pool().parallel_for(
      std::size_t(group_count), [&](std::size_t begin, std::size_t end) {
        std::int64_t local_max = 0;
        for (std::size_t g = begin; g < end; ++g) {
          GroupContext ctx(std::int64_t(g), lane_count);
          body(ctx);
          local_max = std::max(local_max, ctx.barrier_count());
        }
        std::int64_t seen = max_barriers.load();
        while (local_max > seen &&
               !max_barriers.compare_exchange_weak(seen, local_max)) {
        }
      });
  // Device-wide synchronisation repeats once per occupancy wave: a launch
  // with more logical threads than the device holds resident pays its
  // barrier rounds once per wave (mirrored in mp/model.cpp).
  cost.barrier_rounds = max_barriers.load() *
                        device.spec().wave_count(group_count * lane_count);
  detail::record_launch(device, name, cost, ledger, watch.seconds());
}

/// Models (and performs) a host->device copy of `count` elements.
template <typename T>
void async_copy_h2d(Device& device, const T* host, DeviceBuffer<T>& dst,
                    std::size_t count, KernelLedger* ledger = nullptr,
                    const CancellationToken* cancel = nullptr) {
  if (cancel != nullptr) cancel->poll("memcpy_h2d");
  device.fault_point(FaultSite::kCopyH2D, "memcpy_h2d", cancel);
  MPSIM_CHECK(count <= dst.size(), "h2d copy overruns device buffer");
  std::copy(host, host + count, dst.data());
  const auto bytes = std::int64_t(count * sizeof(T));
  if (ledger == nullptr) return;
  KernelCost cost;
  cost.bytes_written = bytes;
  ledger->record("memcpy_h2d", cost,
                 modeled_copy_seconds(device.spec(), bytes));
}

/// Models (and performs) a device->host copy of `count` elements.
template <typename T>
void async_copy_d2h(Device& device, const DeviceBuffer<T>& src, T* host,
                    std::size_t count, KernelLedger* ledger = nullptr,
                    const CancellationToken* cancel = nullptr) {
  if (cancel != nullptr) cancel->poll("memcpy_d2h");
  device.fault_point(FaultSite::kCopyD2H, "memcpy_d2h", cancel);
  MPSIM_CHECK(count <= src.size(), "d2h copy overruns device buffer");
  std::copy(src.data(), src.data() + count, host);
  const auto bytes = std::int64_t(count * sizeof(T));
  if (ledger == nullptr) return;
  KernelCost cost;
  cost.bytes_read = bytes;
  ledger->record("memcpy_d2h", cost,
                 modeled_copy_seconds(device.spec(), bytes));
}

}  // namespace mpsim::gpusim
