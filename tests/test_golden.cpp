// Golden bit-exactness regression for the end-to-end pipeline.
//
// The execution fast path (table-driven float16 conversion, restructured
// kernel bodies, allocation-free parallel_for, staged input conversion,
// parallel tile merge) is pure plumbing: it must not move a single output
// bit in ANY precision mode.  These checksums were pinned from the
// pre-optimization engine on a fixed synthetic dataset; any drift means an
// optimization silently changed arithmetic, operation order, or rounding.
//
// Two configurations are pinned: multi-tile/multi-device (exercises tile
// staging, scheduling and the merge) and single-tile/single-device (the
// pure kernel path).  FP16C shares Mixed's checksum by design: compensated
// precalculation only changes results when cancellation occurs, which this
// dataset's scale avoids.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/faults.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
#include "precision/modes.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim {
namespace {

std::uint64_t fnv1a(const unsigned char* p, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t result_checksum(const mp::MatrixProfileResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(reinterpret_cast<const unsigned char*>(r.profile.data()),
            r.profile.size() * sizeof(double), h);
  h = fnv1a(reinterpret_cast<const unsigned char*>(r.index.data()),
            r.index.size() * sizeof(std::int64_t), h);
  return h;
}

struct GoldenEntry {
  PrecisionMode mode;
  std::uint64_t checksum;
};

void check_goldens(int tiles, int devices, const GoldenEntry (&golden)[5]) {
  SyntheticSpec spec;
  spec.segments = 400;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 77;
  const auto data = make_synthetic_dataset(spec);

  for (const GoldenEntry& entry : golden) {
    // Both per-row execution paths must hit the pinned checksum: the fused
    // pipeline is bit-identical to the cooperative kernels by contract.
    for (const mp::RowPath path :
         {mp::RowPath::kAuto, mp::RowPath::kCooperative}) {
      mp::MatrixProfileConfig config;
      config.window = 32;
      config.mode = entry.mode;
      config.tiles = tiles;
      config.devices = devices;
      config.row_path = path;
      const auto r =
          mp::compute_matrix_profile(data.reference, data.query, config);
      EXPECT_EQ(result_checksum(r), entry.checksum)
          << to_string(entry.mode) << " tiles=" << tiles
          << " devices=" << devices << " row_path=" << to_string(path);
    }
  }
}

// The FP16 dist_calc row may take a hand-written 8-wide F16C loop.  Pin it
// bit-for-bit against the scalar float16 operator sequence it claims to
// mirror, over data laced with infinities and NaNs (NaN blocks must fall
// back to the scalar operators' deterministic propagation rule).
TEST(GoldenChecksums, Fp16DistCalcRowMatchesScalarOperators) {
  using Traits = PrecisionTraits<PrecisionMode::FP16>;
  const std::size_t w = 257, d = 3, nr = 64, m = 32;  // w not a lane multiple
  Rng rng(99);
  auto fill = [&](std::vector<float16>& v, double scale) {
    for (auto& h : v) {
      const double r = rng.uniform(0.0, 1.0);
      if (r < 0.01) {
        h = float16::from_bits(std::uint16_t(rng.uniform_index(1u << 16)));
      } else if (r < 0.02) {
        h = float16::infinity();
      } else {
        h = float16(rng.normal(0.0, scale));
      }
    }
  };
  std::vector<float16> qt_row(w * d), qt_col(nr * d), df_r(nr * d),
      dg_r(nr * d), inv_r(nr * d), df_q(w * d), dg_q(w * d), inv_q(w * d),
      prev(w * d), next(w * d), dist(w * d);
  fill(qt_row, 1.0);
  fill(qt_col, 1.0);
  fill(df_r, 0.05);
  fill(dg_r, 0.05);
  fill(inv_r, 0.2);
  fill(df_q, 0.05);
  fill(dg_q, 0.05);
  fill(inv_q, 0.2);
  fill(prev, 1.0);

  const std::size_t i = 7;
  mp::dist_calc_body<Traits>(0, std::int64_t(w * d), i, w, m, qt_row.data(),
                             qt_col.data(), nr, df_r.data(), dg_r.data(),
                             inv_r.data(), df_q.data(), dg_q.data(),
                             inv_q.data(), prev.data(), next.data(),
                             dist.data());

  const float16 two_m{double(2 * m)};
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t row = k * nr + i;
    for (std::size_t j = 0; j < w; ++j) {
      const std::size_t x = k * w + j;
      const float16 qt =
          j == 0 ? qt_col[row]
                 : float16(prev[x - 1] + df_r[row] * dg_q[x] +
                           dg_r[row] * df_q[x]);
      const float16 ref_dist =
          mp::qt_to_distance(qt, inv_r[row], inv_q[x], two_m);
      ASSERT_EQ(next[x].bits(), qt.bits()) << "qt k=" << k << " j=" << j;
      ASSERT_EQ(dist[x].bits(), ref_dist.bits()) << "d k=" << k << " j=" << j;
    }
  }
}

TEST(GoldenChecksums, MultiTileMultiDeviceAllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x53105cb97409fa7cull},
      {PrecisionMode::FP32, 0xfc23296d1a8a09e0ull},
      {PrecisionMode::FP16, 0x7140c9a9f531c464ull},
      {PrecisionMode::Mixed, 0x1370ffadf92d84abull},
      {PrecisionMode::FP16C, 0x1370ffadf92d84abull},
  };
  check_goldens(/*tiles=*/4, /*devices=*/2, kGolden);
}

TEST(GoldenChecksums, SingleTileSingleDeviceAllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x6edd781ef9d5e2f1ull},
      {PrecisionMode::FP32, 0x549dcb185e474610ull},
      {PrecisionMode::FP16, 0xb921390f9787adb1ull},
      {PrecisionMode::Mixed, 0x7d29ecfcb7b60248ull},
      {PrecisionMode::FP16C, 0x7d29ecfcb7b60248ull},
  };
  check_goldens(/*tiles=*/1, /*devices=*/1, kGolden);
}

// ---- Fused-vs-cooperative path equality ----------------------------------

std::uint64_t run_with_path(const TimeSeries& reference,
                            const TimeSeries& query, PrecisionMode mode,
                            mp::RowPath path, const char* fault_spec) {
  mp::MatrixProfileConfig config;
  config.window = 32;
  config.mode = mode;
  config.tiles = 1;  // single stream: deterministic fault-injection order
  config.devices = 1;
  gpusim::FaultInjector injector;
  if (fault_spec != nullptr) {
    injector.configure(fault_spec);
    config.fault_injector = &injector;
  }
  config.row_path = path;
  return result_checksum(mp::compute_matrix_profile(reference, query, config));
}

void check_paths_equal(std::size_t dims, const char* fault_spec) {
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = dims;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  const auto data = make_synthetic_dataset(spec);
  for (const PrecisionMode mode : kAllPrecisionModes) {
    const auto fused = run_with_path(data.reference, data.query, mode,
                                     mp::RowPath::kAuto, fault_spec);
    const auto coop = run_with_path(data.reference, data.query, mode,
                                    mp::RowPath::kCooperative, fault_spec);
    EXPECT_EQ(fused, coop) << to_string(mode) << " dims=" << dims
                           << (fault_spec ? fault_spec : " clean");
  }
}

TEST(RowPathEquality, PaddedNonPowerOfTwoDims) { check_paths_equal(3, nullptr); }

TEST(RowPathEquality, PowerOfTwoDims) { check_paths_equal(4, nullptr); }

TEST(RowPathEquality, FiveDimsGenericPadding) { check_paths_equal(5, nullptr); }

TEST(RowPathEquality, SingleDimSkipSortPath) { check_paths_equal(1, nullptr); }

TEST(RowPathEquality, NanPoisonedDistanceRows) {
  // Staged-input NaN corruption (fault-injector path): the poison reaches
  // the distance rows, exercising the fused sort's blend-moves-NaN stages
  // and the f16 vector scan's scalar NaN fallback.  Identical injector
  // seed + single stream means both paths see identical corrupted bytes.
  check_paths_equal(4, "seed=9,nan@0:at=1:frac=0.05");
  check_paths_equal(3, "seed=9,nan@0:at=1:frac=0.10");
}

TEST(RowPathEquality, KernelFaultRetryPath) {
  // A transient kernel fault mid-tile: the attempt restarts, and both
  // paths must emit the same fault_point sequence so the Nth launch fails
  // in both (and the retried result stays bit-identical).
  check_paths_equal(4, "seed=3,kernel@0:at=2");
}

}  // namespace
}  // namespace mpsim
