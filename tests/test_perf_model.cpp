// Tests for the roofline performance model: monotonicity, the memory vs
// compute bound crossover, barrier accounting, and the device specs.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gpusim/perf_model.hpp"
#include "gpusim/spec.hpp"
#include "gpusim/utilization.hpp"

namespace mpsim::gpusim {
namespace {

TEST(Specs, PaperHardwareNumbers) {
  const auto v = v100();
  EXPECT_EQ(v.sm_count, 80);
  EXPECT_DOUBLE_EQ(v.mem_bandwidth_gbs, 900.0);
  EXPECT_DOUBLE_EQ(v.fp64_tflops, 7.8);
  EXPECT_EQ(v.memory_capacity_bytes, std::size_t(32) << 30);

  const auto a = a100();
  EXPECT_EQ(a.sm_count, 108);
  EXPECT_DOUBLE_EQ(a.mem_bandwidth_gbs, 1555.0);
  EXPECT_DOUBLE_EQ(a.fp64_tflops, 9.7);
  EXPECT_EQ(a.memory_capacity_bytes, std::size_t(40) << 30);
}

TEST(Specs, LookupByName) {
  EXPECT_EQ(spec_by_name("V100").name, "V100");
  EXPECT_EQ(spec_by_name("a100").name, "A100");
  EXPECT_EQ(spec_by_name("cpu").name, "CPU");
  EXPECT_THROW(spec_by_name("H100"), Error);
}

TEST(Specs, PeakFlopsByWidth) {
  const auto a = a100();
  EXPECT_DOUBLE_EQ(a.peak_tflops(8), 9.7);
  EXPECT_DOUBLE_EQ(a.peak_tflops(4), 19.5);
  EXPECT_DOUBLE_EQ(a.peak_tflops(2), 39.0);
}

TEST(Roofline, MemoryBoundKernelScalesWithBytes) {
  const auto spec = a100();
  KernelCost c1;
  c1.bytes_read = 1LL << 30;
  KernelCost c2 = c1;
  c2.bytes_read *= 2;
  const double t1 = modeled_seconds(spec, c1);
  const double t2 = modeled_seconds(spec, c2);
  EXPECT_GT(t2, t1);
  // Double the traffic ~ double the time (launch overhead is small here).
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(Roofline, ComputeBoundWhenFlopsDominate) {
  const auto spec = a100();
  KernelCost c;
  c.bytes_read = 1024;          // negligible traffic
  c.flops = 1LL << 40;          // ~160 s of FP64 compute
  c.flop_width_bytes = 8;
  const double t = modeled_seconds(spec, c);
  const double compute_time =
      double(c.flops) / (spec.fp64_tflops * 1e12 * spec.compute_efficiency);
  EXPECT_NEAR(t, compute_time, compute_time * 0.01);
}

TEST(Roofline, ReducedPrecisionHalvesMemoryTime) {
  const auto spec = a100();
  KernelCost fp64;
  fp64.bytes_read = 8LL << 30;
  fp64.flop_width_bytes = 8;
  KernelCost fp16 = fp64;
  fp16.bytes_read = 2LL << 30;  // same element count, quarter the bytes
  fp16.flop_width_bytes = 2;
  EXPECT_NEAR(modeled_seconds(spec, fp64) / modeled_seconds(spec, fp16), 4.0,
              0.1);
}

TEST(Roofline, BarrierRoundsAddFixedCost) {
  const auto spec = a100();
  KernelCost c;
  c.barrier_rounds = 1000;
  const double t = modeled_seconds(spec, c);
  EXPECT_NEAR(t, spec.kernel_launch_overhead_us * 1e-6 +
                     1000 * spec.barrier_round_cost_us * 1e-6,
              1e-9);
}

TEST(Roofline, BarrierCostIsPrecisionIndependent) {
  // The paper: sort_&_incl_scan barely speeds up in reduced precision
  // because synchronisation dominates.  A barrier-heavy kernel must model
  // nearly the same time at FP64 and FP16.
  const auto spec = v100();
  KernelCost c;
  c.bytes_read = 64LL << 20;
  c.barrier_rounds = 2'000'000;
  KernelCost ch = c;
  ch.bytes_read /= 4;
  ch.flop_width_bytes = 2;
  const double t64 = modeled_seconds(spec, c);
  const double t16 = modeled_seconds(spec, ch);
  EXPECT_LT(t64 / t16, 1.1);
}

TEST(Roofline, CopyModel) {
  const auto spec = a100();
  const double t = modeled_copy_seconds(spec, 12LL * 1000 * 1000 * 1000);
  EXPECT_NEAR(t, 1.0 + spec.copy_latency_us * 1e-6, 1e-3);
  // The CPU spec has no interconnect: copies are free.
  EXPECT_DOUBLE_EQ(modeled_copy_seconds(skylake_cpu16(), 1 << 30), 0.0);
}

TEST(Roofline, DramUtilizationForStreamingKernel) {
  const auto spec = a100();
  KernelCost c;
  c.bytes_read = 8LL << 30;
  c.bytes_written = 4LL << 30;
  KernelLedger ledger;
  ledger.record("stream", c, modeled_seconds(spec, c));
  const double util = utilization(ledger, spec).at(0).dram_fraction;
  // A purely streaming kernel sustains ~bw_efficiency of peak.
  EXPECT_GT(util, 0.6);
  EXPECT_LE(util, spec.bw_efficiency + 0.01);
}

TEST(Ledger, AccumulatesAndResets) {
  KernelLedger ledger;
  KernelCost c;
  c.bytes_read = 100;
  ledger.record("a", c, 1.5);
  ledger.record("a", c, 0.5);
  ledger.record("b", c, 1.0);
  EXPECT_EQ(ledger.stats("a").launches, 2);
  EXPECT_DOUBLE_EQ(ledger.stats("a").modeled_seconds, 2.0);
  EXPECT_EQ(ledger.stats("a").cost.bytes_read, 200);
  EXPECT_DOUBLE_EQ(ledger.total_modeled_seconds(), 3.0);
  EXPECT_EQ(ledger.all().size(), 2u);
  ledger.reset();
  EXPECT_EQ(ledger.stats("a").launches, 0);
}

TEST(Ledger, MergeFromCombines) {
  KernelLedger a, b;
  KernelCost c;
  c.flops = 10;
  a.record("k", c, 1.0, 0.25);
  b.record("k", c, 2.0, 0.75);
  b.record("other", c, 3.0);
  a.merge_from(b);
  EXPECT_EQ(a.stats("k").launches, 2);
  EXPECT_DOUBLE_EQ(a.stats("k").modeled_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.stats("k").measured_seconds, 1.0);
  EXPECT_DOUBLE_EQ(a.stats("other").modeled_seconds, 3.0);
}

TEST(Occupancy, TunedConfigsFillResidentCapacity) {
  // §IV: 163,840 threads on V100 and 221,184 on A100 exactly fill the
  // resident-thread capacity (2048 per SM; A100's tuned config uses 64
  // warps = 2048 threads per SM).
  const auto v = v100();
  const auto a = a100();
  EXPECT_EQ(v.resident_thread_capacity(), 163840);
  EXPECT_EQ(a.resident_thread_capacity(), 221184);
}

TEST(Occupancy, LowOccupancySlowsMemoryBoundKernels) {
  const auto spec = a100();
  KernelCost full;
  full.bytes_read = 8LL << 30;
  full.occupancy = 1.0;
  KernelCost quarter = full;
  quarter.occupancy = 0.25;  // half of the saturation point
  const double t_full = modeled_seconds(spec, full);
  const double t_quarter = modeled_seconds(spec, quarter);
  EXPECT_NEAR(t_quarter / t_full, 2.0, 0.05);
}

TEST(Occupancy, BandwidthSaturatesAtHalfOccupancy) {
  const auto spec = a100();
  KernelCost half;
  half.bytes_read = 8LL << 30;
  half.occupancy = 0.5;
  KernelCost full = half;
  full.occupancy = 1.0;
  EXPECT_NEAR(modeled_seconds(spec, half), modeled_seconds(spec, full),
              1e-9);
}

TEST(Occupancy, ComputeScalesLinearly) {
  const auto spec = v100();
  KernelCost c;
  c.flops = 1LL << 40;
  c.occupancy = 0.5;
  KernelCost f = c;
  f.occupancy = 1.0;
  EXPECT_NEAR(modeled_seconds(spec, c) / modeled_seconds(spec, f), 2.0,
              0.05);
}

TEST(Roofline, CpuIsSlowerThanGpusOnSameTraffic) {
  KernelCost c;
  c.bytes_read = 1LL << 34;
  const double cpu = modeled_seconds(skylake_cpu16(), c);
  const double v = modeled_seconds(v100(), c);
  const double a = modeled_seconds(a100(), c);
  EXPECT_GT(cpu, v);
  EXPECT_GT(v, a);
}

}  // namespace
}  // namespace mpsim::gpusim
