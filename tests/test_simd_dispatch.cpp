// Bit-equality of the runtime SIMD dispatch levels.
//
// Every kernel variant in src/mp/simd/ claims bit-identity with the
// templated scalar bodies; this suite enforces it by running the SAME
// end-to-end computation at every dispatch level (scalar / f16c / avx2 /
// avx512fp16, clamped to what the host supports) and across temporal-blocked batch
// sizes, then comparing FNV checksums of the full profile + index output.
// NaN-poisoned runs (fault-injector staging corruption) are included:
// they drive the kernels' NaN fallbacks, where operand-order-dependent
// hardware NaN propagation would diverge from the emulated operators if
// the screens were wrong.
//
// The dispatch plumbing itself (parse/clamp/env) and the grained
// parallel_for the blocked executor relies on are covered at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/simd/span.hpp"
#include "mp/single_tile.hpp"
#include "mp/sort_scan.hpp"
#include "mp/tuning.hpp"
#include "precision/float16.hpp"
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

// Restores auto dispatch + auto batching however a test exits.
struct DispatchGuard {
  ~DispatchGuard() {
    mp::simd::clear_override();
    mp::set_row_batch_override(0);
  }
};

std::uint64_t run_once(const TimeSeries& reference, const TimeSeries& query,
                       PrecisionMode mode, mp::RowPath path,
                       const char* fault_spec, std::int64_t exclusion = 0) {
  mp::MatrixProfileConfig config;
  config.window = 32;
  config.exclusion = exclusion;
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

// For each precision mode and row path, the checksum must be invariant
// across every dispatch level the host can run.  `modes` lets the soft
// formats (outside kAllPrecisionModes) reuse the harness.
template <std::size_t N>
void check_levels_equal(const PrecisionMode (&modes)[N], std::size_t dims,
                        const char* fault_spec) {
  DispatchGuard guard;
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = dims;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  const auto data = make_synthetic_dataset(spec);
  const mp::simd::Level top = mp::simd::detected_level();
  for (const PrecisionMode mode : modes) {
    for (const mp::RowPath path :
         {mp::RowPath::kAuto, mp::RowPath::kCooperative}) {
      mp::simd::set_override(mp::simd::kScalar);
      const std::uint64_t scalar_sum =
          run_once(data.reference, data.query, mode, path, fault_spec);
      for (int lv = mp::simd::kF16C; lv <= top; ++lv) {
        mp::simd::set_override(mp::simd::Level(lv));
        const std::uint64_t got =
            run_once(data.reference, data.query, mode, path, fault_spec);
        EXPECT_EQ(got, scalar_sum)
            << to_string(mode) << " path=" << to_string(path)
            << " level=" << mp::simd::to_string(mp::simd::Level(lv))
            << " dims=" << dims << " "
            << (fault_spec ? fault_spec : "clean");
      }
    }
  }
}

TEST(SimdDispatchEquality, PaperModesClean) {
  check_levels_equal(kAllPrecisionModes, 4, nullptr);
  check_levels_equal(kAllPrecisionModes, 3, nullptr);
}

TEST(SimdDispatchEquality, PaperModesNanPoisoned) {
  // Staged-input NaN corruption reaches the distance rows: the vector
  // kernels must break to the scalar operators exactly where they would
  // see a NaN, or the payload/sign rules drift.
  check_levels_equal(kAllPrecisionModes, 4, "seed=9,nan@0:at=1:frac=0.05");
  check_levels_equal(kAllPrecisionModes, 3, "seed=9,nan@0:at=1:frac=0.10");
}

TEST(SimdDispatchEquality, SoftFormatsCleanAndPoisoned) {
  static constexpr PrecisionMode kSoft[] = {PrecisionMode::BF16,
                                            PrecisionMode::TF32};
  check_levels_equal(kSoft, 4, nullptr);
  check_levels_equal(kSoft, 4, "seed=9,nan@0:at=1:frac=0.05");
}

TEST(SimdDispatchEquality, KernelFaultRetrySequence) {
  // The dispatch level must not perturb the fault_point sequence: the Nth
  // launch fails at every level and the retried result stays identical.
  check_levels_equal(kAllPrecisionModes, 4, "seed=3,kernel@0:at=2");
}

// The temporal-blocked executor at a forced bt=16 against forced bt=1, at
// the top dispatch level and scalar, clean and poisoned: batching is pure
// scheduling, so the bits cannot move.
TEST(SimdDispatchEquality, BatchedVersusUnbatchedRows) {
  DispatchGuard guard;
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  const auto data = make_synthetic_dataset(spec);
  for (const char* fault_spec :
       {(const char*)nullptr, "seed=9,nan@0:at=1:frac=0.05",
        "seed=3,kernel@0:at=2"}) {
    for (const mp::simd::Level lv :
         {mp::simd::kScalar, mp::simd::detected_level()}) {
      mp::simd::set_override(lv);
      for (const PrecisionMode mode : kExtendedPrecisionModes) {
        mp::set_row_batch_override(1);
        const std::uint64_t unbatched = run_once(
            data.reference, data.query, mode, mp::RowPath::kAuto, fault_spec);
        mp::set_row_batch_override(16);
        const std::uint64_t batched = run_once(
            data.reference, data.query, mode, mp::RowPath::kAuto, fault_spec);
        EXPECT_EQ(batched, unbatched)
            << to_string(mode) << " level=" << mp::simd::to_string(lv) << " "
            << (fault_spec ? fault_spec : "clean");
      }
    }
  }
}

// --- Temporal-blocked rows against the cooperative reference -------------

constexpr std::size_t kBlockRows[] = {1, 2, 3, 7, 16, 64};

// End to end: all seven modes at both ends of the dispatch range, byte-
// equal to --row-path=cooperative.  Clean runs sweep every batch size
// with exclusion off (AB-join) and on; NaN-poisoned and kernel-faulted
// runs take the smallest and largest batches.  A 200-column tile on the
// engine's pool splits into chunks narrower than the bt=64 halo, with a
// ragged last chunk.
TEST(BlockedRows, MatchCooperativeEndToEnd) {
  DispatchGuard guard;
  SyntheticSpec spec;
  spec.segments = 200;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 321;
  const auto data = make_synthetic_dataset(spec);
  struct Case {
    const char* faults;
    std::int64_t exclusion;
    std::vector<std::size_t> rows;
  };
  const std::vector<std::size_t> all(std::begin(kBlockRows),
                                     std::end(kBlockRows));
  const Case cases[] = {{nullptr, 0, all},
                        {nullptr, 8, all},
                        {"seed=9,nan@0:at=1:frac=0.05", 8, {2, 64}},
                        {"seed=3,kernel@0:at=2", 0, {3, 64}}};
  for (const mp::simd::Level lv :
       {mp::simd::kScalar, mp::simd::detected_level()}) {
    mp::simd::set_override(lv);
    for (const PrecisionMode mode : kExtendedPrecisionModes) {
      for (const Case& c : cases) {
        const std::uint64_t cooperative =
            run_once(data.reference, data.reference, mode,
                     mp::RowPath::kCooperative, c.faults, c.exclusion);
        for (const std::size_t bt : c.rows) {
          mp::set_row_batch_override(bt);
          EXPECT_EQ(run_once(data.reference, data.reference, mode,
                             mp::RowPath::kAuto, c.faults, c.exclusion),
                    cooperative)
              << to_string(mode) << " level=" << mp::simd::to_string(lv)
              << " bt=" << bt << " exclusion=" << c.exclusion << " "
              << (c.faults ? c.faults : "clean");
        }
        mp::set_row_batch_override(0);
      }
    }
  }
}

// Kernel level, independent of the host's core count: fused_rows_blocked
// over explicit column partitions (chunks narrower than the halo, chunks
// whose edges split 32-column prefilter groups, a ragged last chunk, the
// whole row), chunks run right to left so none can lean on a neighbour's
// output, from row 0 (row seeds) and from a mid-tile start row, against
// the per-row fused_row_body loop.  Non-empty `groups` are prefilter
// decisions, and the oracle walks each row group by group:
// qt_only_row_body for kSkip, fused_row_body otherwise.
template <typename Traits>
void check_blocked_kernel(std::size_t d,
                          const std::vector<mp::PrefilterDecision>& groups = {},
                          const char* mask = "exact") {
  using ST = typename Traits::Storage;
  const std::size_t nr = 70, nq = 100, m = 16;
  Rng rng(7 + d);
  const auto filled = [&](std::size_t n, double scale) {
    std::vector<ST> v(n);
    for (auto& x : v) x = ST(rng.normal(0.0, scale));
    return v;
  };
  const auto qt_row = filled(nq * d, 4.0), qt_col = filled(nr * d, 4.0);
  const auto df_r = filled(nr * d, 0.05), dg_r = filled(nr * d, 0.05);
  const auto inv_r = filled(nr * d, 0.2), df_q = filled(nq * d, 0.05);
  const auto dg_q = filled(nq * d, 0.05), inv_q = filled(nq * d, 0.2);
  const auto nan_df_q = [&] {
    auto v = df_q;
    v[(d - 1) * nq + 40] = ST(std::numeric_limits<double>::quiet_NaN());
    return v;
  }();
  const auto seed_qt = filled(nq * d, 4.0);

  struct State {
    std::vector<ST> qt, profile;
    std::vector<std::int64_t> index;
  };
  const auto run = [&](std::size_t start, const std::vector<ST>& dfq,
                       auto&& rows) {
    State s{seed_qt,
            std::vector<ST>(nq * d, std::numeric_limits<ST>::infinity()),
            std::vector<std::int64_t>(nq * d, -1)};
    std::vector<ST> next(nq * d);
    for (std::size_t i0 = start; i0 < nr;) {
      i0 += rows(i0, dfq, s.qt.data(), next.data(), s.profile.data(),
                 s.index.data());
      std::swap(s.qt, next);
    }
    return s;
  };
  // Clean without exclusion, NaN-poisoned with it.
  for (const auto* dfq : {&df_q, &nan_df_q}) {
    const std::int64_t exclusion = dfq == &df_q ? 0 : 6;
    for (const std::size_t start : {std::size_t(0), std::size_t(5)}) {
      const State want = run(start, *dfq, [&](std::size_t i, const auto& f,
                                              const ST* qp, ST* qn, ST* prof,
                                              std::int64_t* idx) {
        const std::size_t g = groups.empty() ? nq : mp::kPrefilterColGroup;
        for (std::size_t j0 = 0; j0 < nq; j0 += g) {
          const auto j1 = std::int64_t(std::min(nq, j0 + g));
          if (!groups.empty() &&
              groups[j0 / g] == mp::PrefilterDecision::kSkip) {
            mp::qt_only_row_body<Traits>(
                std::int64_t(j0), j1, i, nq, d, qt_row.data(), qt_col.data(),
                nr, df_r.data(), dg_r.data(), f.data(), dg_q.data(), qp, qn);
          } else {
            mp::fused_row_body<Traits>(
                std::int64_t(j0), j1, i, nq, m, d, qt_row.data(),
                qt_col.data(), nr, df_r.data(), dg_r.data(), inv_r.data(),
                f.data(), dg_q.data(), inv_q.data(), qp, qn,
                std::int64_t(1000 + i), 1000, exclusion, prof, idx);
          }
        }
        return std::size_t(1);
      });
      for (const std::size_t bt : kBlockRows) {
        for (const std::size_t chunk : {3ul, 37ul, 50ul, nq}) {
          const State got = run(start, *dfq, [&](std::size_t i0, const auto& f,
                                                 const ST* qp, ST* qn, ST* prof,
                                                 std::int64_t* idx) {
            const std::size_t rows = std::min(bt, nr - i0);
            for (std::size_t c1 = nq; c1 > 0;) {
              const std::size_t c0 = (c1 - 1) / chunk * chunk;
              mp::fused_rows_blocked<Traits>(
                  std::int64_t(c0), std::int64_t(c1), rows, i0, nq, m, d,
                  qt_row.data(), qt_col.data(), nr, df_r.data(), dg_r.data(),
                  inv_r.data(), f.data(), dg_q.data(), inv_q.data(), qp, qn,
                  1000, 1000, exclusion, prof, idx,
                  groups.empty() ? nullptr : groups.data());
              c1 = c0;
            }
            return rows;
          });
          const auto same = [](const auto& a, const auto& b) {
            return a.size() == b.size() &&
                   std::memcmp(a.data(), b.data(),
                               a.size() * sizeof(a[0])) == 0;
          };
          EXPECT_TRUE(same(got.profile, want.profile) &&
                      same(got.index, want.index) && same(got.qt, want.qt))
              << to_string(Traits::kMode) << " " << mask << " d=" << d
              << " bt=" << bt
              << " chunk=" << chunk << " start=" << start
              << " exclusion=" << exclusion
              << (dfq == &nan_df_q ? " nan" : "");
        }
      }
    }
  }
}

TEST(BlockedRows, KernelMatchesPerRowOverChunkPartitions) {
  DispatchGuard guard;
  for (const mp::simd::Level lv :
       {mp::simd::kScalar, mp::simd::detected_level()}) {
    mp::simd::set_override(lv);
    for (const PrecisionMode mode : kExtendedPrecisionModes) {
      dispatch_precision(mode, [&]<typename Traits>() {
        for (const std::size_t d : {1ul, 3ul}) check_blocked_kernel<Traits>(d);
      });
    }
  }
}

// The sketch prefilter's decisions over the same partitions: all-skip,
// all-run, alternating and seeded-random masks (kVerify runs exactly).  A
// skipped group's columns, halo copies included, may only advance QT.
TEST(BlockedRows, PrefilterGroupsOverChunkPartitions) {
  DispatchGuard guard;
  using D = mp::PrefilterDecision;
  const std::size_t groups = 4;  // the kernel check's 100 columns
  std::vector<D> alternating(groups), random(groups);
  Rng rng(2024);
  for (std::size_t g = 0; g < groups; ++g) {
    alternating[g] = g % 2 == 0 ? D::kSkip : D::kRun;
    random[g] = D(rng.next_u64() % 3);
  }
  const std::pair<const char*, std::vector<D>> masks[] = {
      {"all-skip", std::vector<D>(groups, D::kSkip)},
      {"all-run", std::vector<D>(groups, D::kRun)},
      {"alternating", alternating},
      {"random", random}};
  for (const mp::simd::Level lv :
       {mp::simd::kScalar, mp::simd::detected_level()}) {
    mp::simd::set_override(lv);
    for (const PrecisionMode mode : kExtendedPrecisionModes) {
      dispatch_precision(mode, [&]<typename Traits>() {
        for (const auto& [name, mask] : masks) {
          for (const std::size_t d : {1ul, 3ul}) {
            check_blocked_kernel<Traits>(d, mask, name);
          }
        }
      });
    }
  }
}

// Engine level: slice snapshots and a mid-tile resume from a snapshot's
// QT row.  With slices on, a batch ends at the next slice boundary, so
// snapshots land every 100 rows past the start row whatever bt is, and
// every snapshot and the resumed tail equal the cooperative path's bytes.
TEST(BlockedRows, SlicesAndResumeMatchCooperative) {
  DispatchGuard guard;
  using Traits = PrecisionTraits<PrecisionMode::FP16>;
  SyntheticSpec spec;
  spec.segments = 450;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 77;
  const auto data = make_synthetic_dataset(spec);
  gpusim::Device device(gpusim::a100(), 0, 4);
  mp::Tile tile;
  tile.r_count = tile.q_count = spec.segments;
  const std::size_t qt_bytes =
      spec.segments * spec.dims * storage_bytes(PrecisionMode::FP16);

  struct Run {
    std::vector<mp::SliceSnapshot> snaps;
    mp::TileResult result;
  };
  const auto run = [&](Run& out, mp::RowPath path, std::size_t start_row,
                       std::span<const std::uint8_t> start_qt) {
    mp::SliceProgress slice;
    slice.start_row = start_row;
    slice.start_qt = start_qt;
    slice.slice_rows = 100;
    slice.on_slice = [&](mp::SliceSnapshot& snap) {
      out.snaps.push_back(snap);
    };
    mp::SingleTileEngine<Traits>::run(
        device, data.reference, data.reference, spec.window, tile,
        /*exclusion=*/8, out.result, nullptr, path, {}, nullptr, &slice);
  };
  const auto same_snaps = [](const Run& a, const Run& b) {
    if (a.snaps.size() != b.snaps.size()) return false;
    for (std::size_t s = 0; s < a.snaps.size(); ++s) {
      if (a.snaps[s].rows_done != b.snaps[s].rows_done ||
          a.snaps[s].profile != b.snaps[s].profile ||
          a.snaps[s].index != b.snaps[s].index ||
          a.snaps[s].qt != b.snaps[s].qt) {
        return false;
      }
    }
    return true;
  };

  // The uninterrupted tile: snapshots at rows 100..400, each with the QT
  // row after its last row, and the final row in the result.
  Run whole;
  run(whole, mp::RowPath::kCooperative, 0, {});
  ASSERT_EQ(whole.snaps.size(), 4u);
  for (const auto& snap : whole.snaps) EXPECT_EQ(snap.qt.size(), qt_bytes);
  EXPECT_EQ(whole.result.qt.size(), qt_bytes);
  const mp::SliceSnapshot& cut = whole.snaps[1];
  ASSERT_EQ(cut.rows_done, 200u);

  // Legs: a fresh tile, and a tile resumed at the row-200 slice boundary
  // from that snapshot's QT row.  Every row path and batch size must
  // emit the same snapshots and result bytes.
  for (const std::size_t start_row : {std::size_t(0), cut.rows_done}) {
    const std::span<const std::uint8_t> start_qt =
        start_row == 0 ? std::span<const std::uint8_t>() : cut.qt;
    Run cooperative;
    run(cooperative, mp::RowPath::kCooperative, start_row, start_qt);
    for (const std::size_t bt : {0ul, 7ul, 64ul}) {
      mp::set_row_batch_override(bt);
      Run fused;
      run(fused, mp::RowPath::kAuto, start_row, start_qt);
      EXPECT_TRUE(same_snaps(fused, cooperative))
          << "bt=" << bt << " start_row=" << start_row;
      for (const auto& snap : fused.snaps) {
        EXPECT_EQ((snap.rows_done - start_row) % 100, 0u) << "bt=" << bt;
      }
      EXPECT_EQ(fused.snaps.size(), (spec.segments - 1 - start_row) / 100);
      EXPECT_EQ(fused.result.profile, cooperative.result.profile)
          << "bt=" << bt << " start_row=" << start_row;
      EXPECT_EQ(fused.result.index, cooperative.result.index)
          << "bt=" << bt << " start_row=" << start_row;
      EXPECT_EQ(fused.result.qt, cooperative.result.qt)
          << "bt=" << bt << " start_row=" << start_row;
    }
    mp::set_row_batch_override(0);

    // The restored prefix folded into the tail (the scheduler's min-merge
    // rule) is the uninterrupted tile, and the tail carries on the same
    // QT rows.
    std::vector<double> profile = cooperative.result.profile;
    std::vector<std::int64_t> index = cooperative.result.index;
    if (start_row > 0) {
      for (std::size_t e = 0; e < profile.size(); ++e) {
        const double p = cut.profile[e];
        const std::int64_t idx = cut.index[e];
        if (p < profile[e] || (p == profile[e] && idx >= 0 &&
                               (index[e] < 0 || idx < index[e]))) {
          profile[e] = p;
          index[e] = idx;
        }
      }
    }
    EXPECT_EQ(profile, whole.result.profile) << start_row;
    EXPECT_EQ(index, whole.result.index) << start_row;
    EXPECT_EQ(cooperative.result.qt, whole.result.qt) << start_row;
    const std::size_t skipped = start_row / 100;
    ASSERT_EQ(cooperative.snaps.size() + skipped, whole.snaps.size());
    for (std::size_t s = 0; s < cooperative.snaps.size(); ++s) {
      EXPECT_EQ(cooperative.snaps[s].qt, whole.snaps[s + skipped].qt) << s;
    }
  }
}

// --- Native FP16 tier against the F16C kernels and the scalar operators --
//
// Each kAvx512Fp16 kernel must reproduce the scalar float16 operators, and
// with them its F16C/AVX2 sibling, lane for lane and bit for bit: on
// realistic magnitudes, on arbitrary non-NaN bit patterns (subnormals,
// +-0, +-inf, values that overflow when combined) and with NaNs sprinkled
// in, where the handled-count contract applies (a span stops before the
// first 32-column block whose chain holds a NaN and stores nothing of it).
// A compiler that fuses a multiply into the following add (vfmadd*ph)
// rounds once instead of twice and fails these lane comparisons.

#if defined(MPSIM_SIMD_FP16) && defined(MPSIM_SIMD_F16)

bool native_fp16_host() {
  return mp::simd::detected_level() >= mp::simd::kAvx512Fp16;
}

/// How one trial draws its operands: a share of arbitrary non-NaN bit
/// patterns and a share of NaNs; the rest are uniform in [lo, hi].
struct HalfMix {
  double special = 0.0;
  double nan = 0.0;
};
constexpr HalfMix kHalfMixes[] = {
    {0.0, 0.0}, {0.05, 0.0}, {0.02, 0.004}, {0.3, 0.02}};

float16 draw_half(Rng& rng, const HalfMix& mix, double lo, double hi) {
  const double u = rng.uniform();
  if (u < mix.nan) {
    const auto payload = std::uint16_t(1 + rng.uniform_index(0x3ff));
    const auto sign = std::uint16_t(rng.uniform_index(2) << 15);
    return float16::from_bits(std::uint16_t(sign | 0x7c00 | payload));
  }
  if (u < mix.nan + mix.special) {
    for (;;) {
      auto bits = std::uint16_t(rng.uniform_index(0x10000));
      if (rng.uniform() < 0.25) bits &= 0x83ff;  // subnormal or +-0
      if (!float16::nan_bits(bits)) return float16::from_bits(bits);
    }
  }
  return float16(rng.uniform(lo, hi));
}

std::vector<float16> draw_halves(Rng& rng, const HalfMix& mix,
                                 std::size_t n, double lo, double hi) {
  std::vector<float16> out(n);
  for (float16& h : out) h = draw_half(rng, mix, lo, hi);
  return out;
}

bool is_nan(float16 h) { return float16::nan_bits(h.bits()); }

/// Filler of output buffers: a store into a column the contract says is
/// left alone shows up as a changed payload.
constexpr std::uint16_t kUntouched = 0x7e5a;

TEST(NativeFp16Kernels, DistCalcAndQtOnlySpansMatchF16cAndScalar) {
  if (!native_fp16_host()) GTEST_SKIP() << "host lacks AVX512-FP16";
  constexpr std::int64_t n = 32 * 4 + 21;
  Rng rng(2024);
  int clean_blocks = 0, broken_spans = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const HalfMix& mix = kHalfMixes[trial % std::size(kHalfMixes)];
    const auto prev = draw_halves(rng, mix, n, -128.0, 128.0);
    const auto df_q = draw_halves(rng, mix, n, -1.0, 1.0);
    const auto dg_q = draw_halves(rng, mix, n, -1.0, 1.0);
    const auto inv_q = draw_halves(rng, mix, n, 0.005, 0.5);
    const HalfMix row_mix{mix.special, mix.nan / 8};
    const float16 df_ri = draw_half(rng, row_mix, -1.0, 1.0);
    const float16 dg_ri = draw_half(rng, row_mix, -1.0, 1.0);
    const float16 inv_ri = draw_half(rng, row_mix, 0.005, 0.5);
    const float16 two_m = draw_half(rng, row_mix, 16.0, 256.0);

    // The scalar operators, column by column.
    std::vector<float16> ref_qt(n), ref_dist(n);
    std::int64_t first_nan_dist = n, first_nan_qt = n;
    for (std::int64_t t = 0; t < n; ++t) {
      ref_qt[t] = prev[t] + df_ri * dg_q[t] + dg_ri * df_q[t];
      ref_dist[t] = mp::qt_to_distance(ref_qt[t], inv_ri, inv_q[t], two_m);
      if (is_nan(ref_dist[t])) first_nan_dist = std::min(first_nan_dist, t);
      if (is_nan(ref_qt[t])) first_nan_qt = std::min(first_nan_qt, t);
    }
    const bool nan_row = is_nan(df_ri) || is_nan(dg_ri) || is_nan(inv_ri);
    const bool nan_qt_row = is_nan(df_ri) || is_nan(dg_ri);
    const auto expect_handled = [](bool refused, std::int64_t first_nan,
                                   std::int64_t width) {
      return refused ? 0 : first_nan / width * width;
    };
    broken_spans += first_nan_dist < n;

    // dist_calc: native, then the F16C sibling on a fresh buffer.
    for (const bool native : {true, false}) {
      std::vector<float16> qt(n, float16::from_bits(kUntouched));
      std::vector<float16> dist(n, float16::from_bits(kUntouched));
      const std::int64_t handled =
          native ? mp::simd::fp16::dist_calc_span(
                       n, df_ri, dg_ri, inv_ri, two_m, prev.data(),
                       df_q.data(), dg_q.data(), inv_q.data(), qt.data(),
                       dist.data())
                 : mp::simd::dist_calc_span_f16(
                       n, df_ri, dg_ri, inv_ri, two_m, prev.data(),
                       df_q.data(), dg_q.data(), inv_q.data(), qt.data(),
                       dist.data());
      const std::int64_t width = native ? 32 : 8;
      ASSERT_EQ(handled, expect_handled(nan_row, first_nan_dist, width))
          << "trial " << trial << (native ? " native" : " f16c");
      if (native) clean_blocks += int(handled / 32);
      for (std::int64_t t = 0; t < n; ++t) {
        const std::uint16_t want_qt = t < handled ? ref_qt[t].bits()
                                                  : kUntouched;
        const std::uint16_t want_dist = t < handled ? ref_dist[t].bits()
                                                    : kUntouched;
        ASSERT_EQ(qt[t].bits(), want_qt)
            << "trial " << trial << " column " << t
            << (native ? " native" : " f16c");
        ASSERT_EQ(dist[t].bits(), want_dist)
            << "trial " << trial << " column " << t
            << (native ? " native" : " f16c");
      }
    }

    // QT-only: the QT prefix of the same spans.
    for (const bool native : {true, false}) {
      std::vector<float16> qt(n, float16::from_bits(kUntouched));
      const std::int64_t handled =
          native ? mp::simd::fp16::qt_only_span(n, df_ri, dg_ri, prev.data(),
                                                df_q.data(), dg_q.data(),
                                                qt.data())
                 : mp::simd::qt_only_span_f16(n, df_ri, dg_ri, prev.data(),
                                              df_q.data(), dg_q.data(),
                                              qt.data());
      ASSERT_EQ(handled,
                expect_handled(nan_qt_row, first_nan_qt, native ? 32 : 8))
          << "trial " << trial << (native ? " native" : " f16c");
      for (std::int64_t t = 0; t < n; ++t) {
        ASSERT_EQ(qt[t].bits(), t < handled ? ref_qt[t].bits() : kUntouched)
            << "trial " << trial << " column " << t
            << (native ? " native" : " f16c");
      }
    }
  }
  // Both halves of the contract were exercised.
  EXPECT_GT(clean_blocks, 1000);
  EXPECT_GT(broken_spans, 100);
}

TEST(NativeFp16Kernels, SortScanMatchesF16cAndScalar) {
  if (!native_fp16_host()) GTEST_SKIP() << "host lacks AVX512-FP16";
  constexpr std::size_t bn = 32 * 2 + 19;
  constexpr std::size_t bstride = bn + 5;
  Rng rng(77);
  int nan_columns = 0;
  for (const std::size_t d : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 16ul}) {
    const std::size_t p2 = mp::next_pow2(d);
    for (int trial = 0; trial < 40; ++trial) {
      const HalfMix& mix = kHalfMixes[trial % std::size(kHalfMixes)];
      std::vector<float16> block(p2 * bstride, float16::from_bits(0x7c00));
      for (std::size_t l = 0; l < d; ++l) {
        for (std::size_t j = 0; j < bn; ++j) {
          block[l * bstride + j] = draw_half(rng, mix, 0.0, 24.0);
        }
      }
      std::vector<float16> native = block, f16c = block;
      ASSERT_EQ(mp::simd::fp16::sort_scan_rows(native.data(), bstride, bn, d),
                bn / 32 * 32);
      mp::simd::sort_scan_rows_f16(f16c.data(), bstride, bn, d);
      for (std::size_t j = 0; j < bn; ++j) {
        float16 column[mp::simd::kMaxSortRows];
        bool poisoned = false;
        for (std::size_t l = 0; l < p2; ++l) {
          column[l] = block[l * bstride + j];
          poisoned |= l < d && is_nan(column[l]);
        }
        nan_columns += poisoned;
        mp::sort_scan_column(column, d);
        for (std::size_t l = 0; l < d; ++l) {
          const std::size_t e = l * bstride + j;
          ASSERT_EQ(f16c[e].bits(), column[l].bits())
              << "d " << d << " trial " << trial << " row " << l
              << " column " << j << " f16c";
          if (j >= bn / 32 * 32) continue;  // past the native blocks
          ASSERT_EQ(native[e].bits(), column[l].bits())
              << "d " << d << " trial " << trial << " row " << l
              << " column " << j << " native";
        }
      }
      // Past its blocks the native kernel touches nothing.
      for (std::size_t l = 0; l < p2; ++l) {
        for (std::size_t j = bn / 32 * 32; j < bstride; ++j) {
          ASSERT_EQ(native[l * bstride + j].bits(),
                    block[l * bstride + j].bits());
        }
      }
    }
  }
  EXPECT_GT(nan_columns, 50);
}

TEST(NativeFp16Kernels, MergeMatchesAvx2AndScalar) {
  if (!native_fp16_host()) GTEST_SKIP() << "host lacks AVX512-FP16";
  constexpr std::int64_t n = 32 * 3 + 11;
  constexpr std::int64_t row = 4321;
  Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const HalfMix& mix = kHalfMixes[trial % std::size(kHalfMixes)];
    const auto src = draw_halves(rng, mix, n, 0.0, 8.0);
    auto prof = draw_halves(rng, mix, n, 0.0, 8.0);
    std::vector<std::int64_t> idx(n);
    for (std::int64_t j = 0; j < n; ++j) {
      idx[j] = std::int64_t(rng.uniform_index(1000));
      // Ties and signed zeros: the earliest row must keep them.
      const double u = rng.uniform();
      if (u < 0.1) prof[j] = src[j];
      if (u > 0.95) prof[j] = -src[j];
    }
    std::vector<float16> ref_prof = prof;
    std::vector<std::int64_t> ref_idx = idx;
    for (std::int64_t j = 0; j < n; ++j) {
      if (src[j] < ref_prof[j]) {
        ref_prof[j] = src[j];
        ref_idx[j] = row;
      }
    }
    std::vector<float16> native = prof, avx2 = prof;
    std::vector<std::int64_t> native_idx = idx, avx2_idx = idx;
    ASSERT_EQ(mp::simd::fp16::merge_rows(src.data(), native.data(),
                                         native_idx.data(), n, row),
              n / 32 * 32);
    const std::int64_t avx2_handled = mp::simd::avx2::merge_rows_f16(
        reinterpret_cast<const std::uint16_t*>(src.data()),
        reinterpret_cast<std::uint16_t*>(avx2.data()), avx2_idx.data(), n,
        row);
    for (std::int64_t j = 0; j < n; ++j) {
      if (j < n / 32 * 32) {
        ASSERT_EQ(native[j].bits(), ref_prof[j].bits()) << trial << " " << j;
        ASSERT_EQ(native_idx[j], ref_idx[j]) << trial << " " << j;
      } else {
        ASSERT_EQ(native[j].bits(), prof[j].bits()) << trial << " " << j;
        ASSERT_EQ(native_idx[j], idx[j]) << trial << " " << j;
      }
      if (j < avx2_handled) {
        ASSERT_EQ(avx2[j].bits(), ref_prof[j].bits()) << trial << " " << j;
        ASSERT_EQ(avx2_idx[j], ref_idx[j]) << trial << " " << j;
      }
    }
  }
}

TEST(NativeFp16Kernels, GemmPanelMatchesF16cAndScalar) {
  if (!native_fp16_host()) GTEST_SKIP() << "host lacks AVX512-FP16";
  constexpr std::size_t n = 32 * 2 + 9;
  Rng rng(31);
  int clean = 0;
  for (const std::size_t m : {1ul, 7ul, 32ul, 100ul}) {
    for (int trial = 0; trial < 60; ++trial) {
      const HalfMix& mix = kHalfMixes[trial % std::size(kHalfMixes)];
      const auto a = draw_halves(rng, mix, m, -2.0, 2.0);
      const auto slide = draw_halves(rng, mix, n + m - 1, -2.0, 2.0);
      const auto smu = draw_halves(rng, mix, n, -0.5, 0.5);
      std::vector<float16> ref(n);
      for (std::size_t j = 0; j < n; ++j) {
        float16 acc(0.0);
        for (std::size_t t = 0; t < m; ++t) {
          acc = acc + a[t] * (slide[j + t] - smu[j]);
        }
        ref[j] = acc;
      }
      for (const bool native : {true, false}) {
        std::vector<float16> out(n, float16::from_bits(kUntouched));
        const std::size_t handled =
            native ? mp::simd::fp16::gemm_panels(a.data(), m, slide.data(),
                                                 smu.data(), n, out.data())
                   : mp::simd::gemm_panels_f16(a.data(), m, slide.data(),
                                               smu.data(), n, out.data());
        ASSERT_EQ(handled, n / (native ? 32 : 8) * (native ? 32 : 8));
        for (std::size_t j = 0; j < n; ++j) {
          const char* who = native ? " native" : " f16c";
          if (j >= handled) {
            ASSERT_EQ(out[j].bits(), kUntouched) << j << who;
          } else if (is_nan(ref[j])) {
            // The driver re-derives NaN columns; only NaN-ness must hold.
            ASSERT_TRUE(is_nan(out[j])) << "m " << m << " " << j << who;
          } else {
            clean += native;
            ASSERT_EQ(out[j].bits(), ref[j].bits())
                << "m " << m << " trial " << trial << " column " << j << who;
          }
        }
      }
    }
  }
  EXPECT_GT(clean, 5000);
}

#else

TEST(NativeFp16Kernels, DistCalcAndQtOnlySpansMatchF16cAndScalar) {
  GTEST_SKIP() << "built without the AVX512-FP16 tier";
}

#endif  // MPSIM_SIMD_FP16 && MPSIM_SIMD_F16

// --- Dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, ParseAndClamp) {
  using namespace mp::simd;
  DispatchGuard guard;
  EXPECT_EQ(parse_level("scalar"), kScalar);
  EXPECT_EQ(parse_level("f16c"), kF16C);
  EXPECT_EQ(parse_level("avx2"), kAvx2);
  EXPECT_EQ(parse_level("avx512fp16"), kAvx512Fp16);
  EXPECT_EQ(std::string(to_string(kAvx512Fp16)), "avx512fp16");
  EXPECT_THROW(parse_level("sse9"), ConfigError);
  EXPECT_THROW(apply_option("bogus"), ConfigError);

  // A request above the hardware clamps; at or below it sticks.
  apply_option("avx2");
  EXPECT_EQ(active_level(), detected_level() < kAvx2 ? detected_level()
                                                     : kAvx2);
  apply_option("avx512fp16");  // the top level: never above the host
  EXPECT_EQ(active_level(), detected_level());
  apply_option("scalar");
  EXPECT_EQ(active_level(), kScalar);
  apply_option("auto");
  EXPECT_EQ(active_level(), detected_level());
}

// The grained parallel_for the blocked executor dispatches rows with:
// every index covered exactly once, chunks never smaller than the grain
// (except the last), on a multi-worker pool.
TEST(SimdDispatch, ParallelForGrainedCoverage) {
  ThreadPool pool(4);
  for (const std::size_t n : {1ul, 7ul, 64ul, 1000ul}) {
    for (const std::size_t grain : {1ul, 3ul, 16ul, 128ul}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> short_chunks{0};
      pool.parallel_for_grained(
          n, grain, [&](std::size_t begin, std::size_t end) {
            ASSERT_LT(begin, end);
            ASSERT_LE(end, n);
            if (end - begin < std::min(grain, n)) short_chunks.fetch_add(1);
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
      // At most the final remainder chunk may run short of the grain.
      EXPECT_LE(short_chunks.load(), 1) << "n=" << n << " grain=" << grain;
    }
  }
}

}  // namespace
}  // namespace mpsim
