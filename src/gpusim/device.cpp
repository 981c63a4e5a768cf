#include "gpusim/device.hpp"

#include <algorithm>
#include <thread>

#include "gpusim/faults.hpp"

namespace mpsim::gpusim {

Device::Device(MachineSpec spec, int index, std::size_t workers)
    : spec_(std::move(spec)), index_(index), pool_(workers) {}

void Device::allocate_bytes(std::size_t bytes) {
  const std::size_t now = bytes_in_use_.fetch_add(bytes) + bytes;
  if (spec_.memory_capacity_bytes != 0 && now > spec_.memory_capacity_bytes) {
    bytes_in_use_.fetch_sub(bytes);
    throw DeviceMemoryError(
        "device " + spec_.name + "[" + std::to_string(index_) +
        "]: allocation of " + std::to_string(bytes) + " bytes exceeds " +
        std::to_string(spec_.memory_capacity_bytes) + "-byte capacity (" +
        std::to_string(now - bytes) + " in use); use more tiles");
  }
  std::size_t peak = peak_bytes_.load();
  while (now > peak && !peak_bytes_.compare_exchange_weak(peak, now)) {
  }
}

void Device::free_bytes(std::size_t bytes) { bytes_in_use_.fetch_sub(bytes); }

void Device::fault_point(FaultSite site, const std::string& detail,
                         const CancellationToken* cancel) {
  FaultInjector* injector = fault_injector_.load();
  if (injector != nullptr) injector->fire(site, index_, detail, cancel);
}

System::System(const MachineSpec& device_spec, int device_count,
               std::size_t total_workers, int index_base) {
  MPSIM_CHECK(device_count >= 1, "a system needs at least one device");
  if (total_workers == 0) {
    total_workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t per_device = std::max<std::size_t>(
      1, total_workers / std::size_t(device_count));
  devices_.reserve(std::size_t(device_count));
  for (int i = 0; i < device_count; ++i) {
    devices_.push_back(
        std::make_unique<Device>(device_spec, index_base + i, per_device));
  }
}

void System::attach_fault_injector(FaultInjector* injector) {
  for (auto& d : devices_) d->attach_fault_injector(injector);
}

}  // namespace mpsim::gpusim
