// Simulated GPU device: a MachineSpec, a worker pool that actually executes
// kernel bodies and a device-memory allocator with capacity accounting.
// Launches record their modelled time in the KernelLedger their caller
// passes (kernel.hpp), not on the device.
//
// The simulation is *functionally real*: kernels run genuine arithmetic on
// host threads (so every accuracy result in the paper's figures is
// reproduced by computation, not by a model), while time is accounted via
// the roofline model in perf_model.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/spec.hpp"

namespace mpsim::gpusim {

class FaultInjector;
class CancellationToken;
enum class FaultSite : int;

class Device {
 public:
  /// `workers` = host threads backing this device's kernel execution
  /// (0 = one per hardware thread).
  explicit Device(MachineSpec spec, int index = 0, std::size_t workers = 0);

  const MachineSpec& spec() const { return spec_; }
  int index() const { return index_; }
  ThreadPool& pool() { return pool_; }

  /// Raw device-memory bookkeeping (used by DeviceBuffer).
  void allocate_bytes(std::size_t bytes);
  void free_bytes(std::size_t bytes);
  std::size_t bytes_in_use() const { return bytes_in_use_.load(); }
  std::size_t peak_bytes() const { return peak_bytes_.load(); }

  /// Attaches (or detaches, with nullptr) a fault injector.  The injector
  /// is not owned and must outlive any work on the device.
  void attach_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector);
  }
  FaultInjector* fault_injector() const { return fault_injector_.load(); }

  /// Fault hook evaluated when a kernel launch or copy executes.  Throws
  /// TransientFaultError / DeviceFailedError when an attached injector
  /// fires; a no-op without an injector.  `cancel` (optional) lets an
  /// injected hang/slowdown stall unwind early with CancelledError.
  void fault_point(FaultSite site, const std::string& detail,
                   const CancellationToken* cancel = nullptr);

 private:
  MachineSpec spec_;
  int index_;
  ThreadPool pool_;
  std::atomic<std::size_t> bytes_in_use_{0};
  std::atomic<std::size_t> peak_bytes_{0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
};

/// RAII device-memory allocation of `count` elements of T.  The storage is
/// host memory (this is a simulator), but the allocation is charged against
/// the device's modelled capacity so out-of-memory behaviour is faithful.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& device, std::size_t count)
      : device_(&device), data_(count) {
    device_->allocate_bytes(count * sizeof(T));
  }

  ~DeviceBuffer() { release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& o) noexcept
      : device_(o.device_), data_(std::move(o.data_)) {
    o.device_ = nullptr;
    o.data_.clear();
  }

  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      device_ = o.device_;
      data_ = std::move(o.data_);
      o.device_ = nullptr;
      o.data_.clear();
    }
    return *this;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void release() {
    if (device_ != nullptr && !data_.empty()) {
      device_->free_bytes(data_.size() * sizeof(T));
    }
    device_ = nullptr;
  }

  Device* device_ = nullptr;
  std::vector<T> data_;
};

/// A multi-GPU node (e.g. the paper's DGX-1 with 8 V100s, or a Raven node
/// with 4 A100s).  Owns the devices; worker threads are divided evenly.
class System {
 public:
  /// `index_base` offsets the devices' global indices: node k of a
  /// multi-node cluster builds its fleet with base k*devices so device
  /// ids (in traces, health reports, checkpoint journals) are globally
  /// unique.  System::device(i) stays positional (0-based) either way.
  System(const MachineSpec& device_spec, int device_count,
         std::size_t total_workers = 0, int index_base = 0);

  int device_count() const { return int(devices_.size()); }
  Device& device(int i) { return *devices_.at(std::size_t(i)); }
  const Device& device(int i) const { return *devices_.at(std::size_t(i)); }

  /// Attaches the injector to every device (nullptr detaches).
  void attach_fault_injector(FaultInjector* injector);

 private:
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace mpsim::gpusim
