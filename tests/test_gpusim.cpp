// Tests for the GPU execution substrate: device memory accounting,
// kernel launches, cooperative groups and copies.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/spec.hpp"

namespace mpsim::gpusim {
namespace {

MachineSpec tiny_spec(std::size_t capacity_bytes) {
  MachineSpec spec = a100();
  spec.memory_capacity_bytes = capacity_bytes;
  return spec;
}

TEST(DeviceMemory, TracksAllocationsAndPeak) {
  Device dev(tiny_spec(1024), 0, 1);
  {
    DeviceBuffer<double> a(dev, 64);  // 512 bytes
    EXPECT_EQ(dev.bytes_in_use(), 512u);
    {
      DeviceBuffer<double> b(dev, 32);  // 256 bytes
      EXPECT_EQ(dev.bytes_in_use(), 768u);
    }
    EXPECT_EQ(dev.bytes_in_use(), 512u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 768u);
}

TEST(DeviceMemory, ThrowsOnCapacityExhaustion) {
  Device dev(tiny_spec(1024), 0, 1);
  DeviceBuffer<double> a(dev, 100);  // 800 bytes
  EXPECT_THROW(DeviceBuffer<double>(dev, 100), DeviceMemoryError);
  // The failed allocation must not leak accounting.
  EXPECT_EQ(dev.bytes_in_use(), 800u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(tiny_spec(4096), 0, 1);
  DeviceBuffer<int> a(dev, 16);
  a[3] = 42;
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(dev.bytes_in_use(), 16 * sizeof(int));
  b = DeviceBuffer<int>(dev, 8);
  EXPECT_EQ(dev.bytes_in_use(), 8 * sizeof(int));
}

TEST(KernelLaunch, GridStrideCoversIndexSpace) {
  Device dev(a100(), 0, 2);
  KernelLedger ledger;
  std::vector<std::atomic<int>> hits(10000);
  launch_grid_stride(dev, "cover", LaunchConfig{}, 10000, KernelCost{},
                     [&](std::int64_t b, std::int64_t e) {
                       for (auto i = b; i < e; ++i) {
                         hits[std::size_t(i)].fetch_add(1);
                       }
                     },
                     &ledger);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(ledger.stats("cover").launches, 1);
}

TEST(KernelLaunch, CooperativeGroupsCountBarrierRounds) {
  Device dev(a100(), 0, 2);
  KernelLedger ledger;
  launch_cooperative(dev, "coop", LaunchConfig{}, 64, 8, KernelCost{},
                     [](GroupContext& g) {
                       // 3 stages with a barrier after each.
                       for (int s = 0; s < 3; ++s) {
                         g.for_each_lane([](std::int64_t) {});
                         g.barrier();
                       }
                     },
                     &ledger);
  const auto stats = ledger.stats("coop");
  EXPECT_EQ(stats.launches, 1);
  // Device-wide rounds = max over groups = 3, not 64 * 3.
  EXPECT_EQ(stats.cost.barrier_rounds, 3);
}

TEST(KernelLaunch, CooperativeLanesSeeOwnGroupIndex) {
  Device dev(a100(), 0, 2);
  std::vector<std::int64_t> group_of(32 * 4, -1);
  launch_cooperative(dev, "idx", LaunchConfig{}, 32, 4, KernelCost{},
                     [&](GroupContext& g) {
                       g.for_each_lane([&](std::int64_t lane) {
                         group_of[std::size_t(g.group_index() * 4 + lane)] =
                             g.group_index();
                       });
                     });
  for (std::int64_t g = 0; g < 32; ++g) {
    for (std::int64_t l = 0; l < 4; ++l) {
      EXPECT_EQ(group_of[std::size_t(g * 4 + l)], g);
    }
  }
}

TEST(KernelLaunch, SharedMemoryOverCommitIsRejected) {
  // A cooperative kernel whose resident groups need more scratchpad than
  // an SM provides must fail at launch, like CUDA would.
  Device dev(a100(), 0, 1);
  KernelLedger ledger;
  // lanes=32 -> 64 resident groups/SM; 64 * 8 KiB = 512 KiB > 164 KiB.
  EXPECT_THROW(
      launch_cooperative(
          dev, "too-big", LaunchConfig{}, 128, 32, KernelCost{},
          [](GroupContext&) {}, &ledger, std::size_t(8) << 10),
      Error);
  // A modest footprint is fine.
  launch_cooperative(
      dev, "fits", LaunchConfig{}, 128, 32, KernelCost{},
      [](GroupContext&) {}, &ledger, 1024);
  EXPECT_EQ(ledger.stats("too-big").launches, 0);
  EXPECT_EQ(ledger.stats("fits").launches, 1);
}

TEST(Copies, RoundTripH2DandD2H) {
  Device dev(a100(), 0, 1);
  std::vector<double> host(256);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> buf(dev, 256);
  KernelLedger ledger;
  async_copy_h2d(dev, host.data(), buf, 256, &ledger);
  std::vector<double> back(256, -1.0);
  async_copy_d2h(dev, buf, back.data(), 256, &ledger);
  EXPECT_EQ(back, host);
  EXPECT_EQ(ledger.stats("memcpy_h2d").cost.bytes_written,
            std::int64_t(256 * sizeof(double)));
  EXPECT_EQ(ledger.stats("memcpy_d2h").cost.bytes_read,
            std::int64_t(256 * sizeof(double)));
}

TEST(Copies, OverrunIsRejected) {
  Device dev(a100(), 0, 1);
  std::vector<double> host(10);
  DeviceBuffer<double> buf(dev, 4);
  EXPECT_THROW(async_copy_h2d(dev, host.data(), buf, 10), Error);
}

TEST(System, DividesWorkersAcrossDevices) {
  System sys(v100(), 4, 8);
  EXPECT_EQ(sys.device_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.device(i).pool().worker_count(), 2u);
    EXPECT_EQ(sys.device(i).index(), i);
  }
}

TEST(System, AtLeastOneWorkerPerDevice) {
  System sys(v100(), 8, 2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GE(sys.device(i).pool().worker_count(), 1u);
  }
}

TEST(LaunchConfig, TunedMatchesPaperThreadCounts) {
  // §IV/V-A: 163,840 threads on V100, 221,184 on A100.
  EXPECT_EQ(LaunchConfig::tuned_for(v100()).total_threads(), 163840);
  EXPECT_EQ(LaunchConfig::tuned_for(a100()).total_threads(), 221184);
}

TEST(ExtraLedger, ReceivesLaunchRecords) {
  Device dev(a100(), 0, 1);
  KernelLedger tile_ledger;
  KernelCost cost;
  cost.bytes_read = 1 << 20;
  launch_grid_stride(dev, "k", LaunchConfig{}, 16, cost,
                     [](std::int64_t, std::int64_t) {}, &tile_ledger);
  EXPECT_EQ(tile_ledger.stats("k").launches, 1);
  cost.occupancy = LaunchConfig{}.occupancy(dev.spec());
  EXPECT_DOUBLE_EQ(tile_ledger.stats("k").modeled_seconds,
                   modeled_seconds(dev.spec(), cost));
  // Without a ledger the launch still runs but records nowhere.
  std::atomic<int> ran{0};
  launch_grid_stride(dev, "k", LaunchConfig{}, 16, cost,
                     [&](std::int64_t b, std::int64_t e) {
                       ran.fetch_add(int(e - b));
                     });
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(tile_ledger.stats("k").launches, 1);
}

}  // namespace
}  // namespace mpsim::gpusim
