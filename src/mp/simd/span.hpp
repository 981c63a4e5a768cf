// Typed dispatch glue between the kernel bodies (mp/kernels.hpp) and the
// concrete SIMD kernels: one template per stage that picks the vector
// variant the active dispatch level allows for the storage/compute type —
// or reports "not handled", in which case the caller runs its scalar
// body.  Every function here is a thin runtime gate; the bit-identity
// arguments live with the kernels (kernels_f16.hpp, kernels_fp16.hpp,
// kernels_native.hpp, kernels_avx2.hpp).  A kAvx512Fp16 kernel handles
// whole 32-column blocks and hands the rest to its kF16C/kAvx2 sibling,
// whose own scalar tail (or the caller's) finishes the span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/metrics.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/simd/kernels_avx2.hpp"
#include "mp/simd/kernels_f16.hpp"
#include "mp/simd/kernels_fp16.hpp"
#include "mp/simd/kernels_gemm.hpp"
#include "mp/simd/kernels_native.hpp"
#include "mp/simd/kernels_qt.hpp"
#include "mp/sort_scan.hpp"
#include "precision/float16.hpp"
#include "precision/soft_float.hpp"

namespace mpsim::mp::simd {

template <typename T>
inline constexpr bool kIsSoftFloat =
    std::is_same_v<T, bfloat16> || std::is_same_v<T, tfloat32>;

/// Left-shift aligning a soft_float<M, 8> payload with binary32
/// (soft_float shares binary32's 8-bit exponent, so the widening is
/// exact; see kernels_avx2.hpp).
template <typename T>
inline constexpr int kSoftShift = 23 - (std::numeric_limits<T>::digits - 1);

// --- Per-stage variant selection (what WOULD run for this type now) -----

/// Level of the emulated-half kernels that have a native-FP16 variant.
inline Level half_variant(Level lv) {
#ifdef MPSIM_SIMD_FP16
  if (lv >= kAvx512Fp16) return kAvx512Fp16;
#endif
  return lv >= kF16C ? kF16C : kScalar;
}

template <typename T>
Level dist_calc_variant() {
  const Level lv = active_level();
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<T, float16>) return half_variant(lv);
#endif
#ifdef MPSIM_SIMD_NATIVE
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, float>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<T>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
  (void)lv;
  return kScalar;
}

template <typename T>
Level sort_scan_variant() {
  const Level lv = active_level();
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<T, float16>) return half_variant(lv);
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<T>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
  // Native types: the branch-free scalar rows autovectorize already.
  (void)lv;
  return kScalar;
}

template <typename T>
Level merge_variant() {
  const Level lv = active_level();
#ifdef MPSIM_SIMD_FP16
  if constexpr (std::is_same_v<T, float16>) {
    if (lv >= kAvx512Fp16) return kAvx512Fp16;
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (std::is_same_v<T, float16> || kIsSoftFloat<T>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
  (void)lv;
  return kScalar;
}

inline Level precalc_f16_variant() {
#ifdef MPSIM_SIMD_F16
  return active_level() >= kF16C ? kF16C : kScalar;
#else
  return kScalar;
#endif
}

/// Variant the GEMM seed panels (mp/gemm.hpp) would run with for this
/// mode: keyed on Storage — the emulated-half family (FP16 / Mixed /
/// FP16C) uses the F16C conversion panels, FP16 (binary16 accumulation)
/// the native-FP16 panel where available; the native and soft formats
/// ride the AVX/AVX2 tiers.
template <typename Traits>
Level gemm_variant() {
  using ST = typename Traits::Storage;
  const Level lv = active_level();
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<ST, float16>) {
    if constexpr (std::is_same_v<typename Traits::PrecalcCompute, float16>) {
      return half_variant(lv);
    }
    return lv >= kF16C ? kF16C : kScalar;
  }
#endif
#ifdef MPSIM_SIMD_NATIVE
  if constexpr (std::is_same_v<ST, double> || std::is_same_v<ST, float>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<ST>) {
    return lv >= kAvx2 ? kAvx2 : kScalar;
  }
#endif
  (void)lv;
  return kScalar;
}

// --- GEMM seed panels ---------------------------------------------------

/// Vectorized GEMM panels over `n` output columns of the QT seeding dot
/// products (mp/gemm.hpp pre-offsets slide/smu/out to the first column and
/// passes the hoisted fixed-side panel `a`).  Returns columns handled
/// (0 when dispatched scalar); the driver's blocked scalar loop finishes
/// the tail and re-derives NaN columns.
template <typename Traits>
inline std::size_t gemm_panels(const typename Traits::PrecalcCompute* a,
                               std::size_t m,
                               const typename Traits::Storage* slide,
                               const typename Traits::Storage* smu,
                               std::size_t n,
                               typename Traits::Storage* out) {
  using ST = typename Traits::Storage;
  using PC = typename Traits::PrecalcCompute;
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<ST, float16>) {
    if (active_level() >= kF16C) {
      if constexpr (std::is_same_v<PC, float16>) {
        std::size_t jj = 0;
#ifdef MPSIM_SIMD_FP16
        if (active_level() >= kAvx512Fp16) {
          jj = fp16::gemm_panels(a, m, slide, smu, n, out);
        }
#endif
        return jj + gemm_panels_f16(a, m, slide + jj, smu + jj, n - jj,
                                    out + jj);
      } else if constexpr (Traits::kCompensatedPrecalc) {
        return gemm_panels_f16_kahan(a, m, slide, smu, n, out);
      } else {
        return gemm_panels_f16_mixed(a, m, slide, smu, n, out);
      }
    }
  }
#endif
#ifdef MPSIM_SIMD_NATIVE
  if constexpr (std::is_same_v<ST, double>) {
    if (active_level() >= kAvx2) {
      return gemm_panels_f64(a, m, slide, smu, n, out);
    }
  } else if constexpr (std::is_same_v<ST, float>) {
    if (active_level() >= kAvx2) {
      return gemm_panels_f32(a, m, slide, smu, n, out);
    }
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<ST>) {
    if (active_level() >= kAvx2) {
      return avx2::gemm_panels_soft(
          kSoftShift<ST>, reinterpret_cast<const std::uint32_t*>(a), m,
          reinterpret_cast<const std::uint32_t*>(slide),
          reinterpret_cast<const std::uint32_t*>(smu), n,
          reinterpret_cast<std::uint32_t*>(out));
    }
  }
#endif
  (void)a; (void)m; (void)slide; (void)smu; (void)n; (void)out;
  return 0;
}

// --- dist_calc ----------------------------------------------------------

/// Vectorized dist_calc span over `n` contiguous columns of one dimension
/// row; returns columns processed (0 = nothing handled, caller runs the
/// scalar recurrence; always < n on a NaN break so the scalar loop takes
/// over mid-span).  Pointer contract matches the concrete kernels:
/// span-relative, qt_prev_m1 pre-shifted one column left, and
/// qt_next == qt_prev_m1 is allowed (in-place diagonal band).
template <typename CT>
inline std::int64_t dist_calc_span(std::int64_t n, CT df_ri, CT dg_ri,
                                   CT inv_ri, CT two_m, const CT* qt_prev_m1,
                                   const CT* df_q, const CT* dg_q,
                                   const CT* inv_q, CT* qt_next, CT* dist) {
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<CT, float16>) {
    if (active_level() >= kF16C) {
      std::int64_t t = 0;
#ifdef MPSIM_SIMD_FP16
      if (active_level() >= kAvx512Fp16) {
        t = fp16::dist_calc_span(n, df_ri, dg_ri, inv_ri, two_m, qt_prev_m1,
                                 df_q, dg_q, inv_q, qt_next, dist);
      }
#endif
      return t + dist_calc_span_f16(n - t, df_ri, dg_ri, inv_ri, two_m,
                                    qt_prev_m1 + t, df_q + t, dg_q + t,
                                    inv_q + t, qt_next + t, dist + t);
    }
  }
#endif
#ifdef MPSIM_SIMD_NATIVE
  if constexpr (std::is_same_v<CT, double>) {
    if (active_level() >= kAvx2) {
      return dist_calc_span_f64(n, df_ri, dg_ri, inv_ri, two_m, qt_prev_m1,
                                df_q, dg_q, inv_q, qt_next, dist);
    }
  } else if constexpr (std::is_same_v<CT, float>) {
    if (active_level() >= kAvx2) {
      return dist_calc_span_f32(n, df_ri, dg_ri, inv_ri, two_m, qt_prev_m1,
                                df_q, dg_q, inv_q, qt_next, dist);
    }
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<CT>) {
    if (active_level() >= kAvx2) {
      return avx2::dist_calc_span_soft(
          kSoftShift<CT>, n, df_ri.bits(), dg_ri.bits(), inv_ri.bits(),
          two_m.bits(), reinterpret_cast<const std::uint32_t*>(qt_prev_m1),
          reinterpret_cast<const std::uint32_t*>(df_q),
          reinterpret_cast<const std::uint32_t*>(dg_q),
          reinterpret_cast<const std::uint32_t*>(inv_q),
          reinterpret_cast<std::uint32_t*>(qt_next),
          reinterpret_cast<std::uint32_t*>(dist));
    }
  }
#endif
  (void)n; (void)df_ri; (void)dg_ri; (void)inv_ri; (void)two_m;
  (void)qt_prev_m1; (void)df_q; (void)dg_q; (void)inv_q; (void)qt_next;
  (void)dist;
  return 0;
}

/// Vectorized QT-only recurrence span (the prefilter's skip path, see
/// kernels_qt.hpp): advances qt_next over `n` columns without computing
/// distances.  Same return/pointer contract as dist_calc_span; the QT
/// bits written are identical to dist_calc_span's for every type.
template <typename CT>
inline std::int64_t qt_only_span(std::int64_t n, CT df_ri, CT dg_ri,
                                 const CT* qt_prev_m1, const CT* df_q,
                                 const CT* dg_q, CT* qt_next) {
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<CT, float16>) {
    if (active_level() >= kF16C) {
      std::int64_t t = 0;
#ifdef MPSIM_SIMD_FP16
      if (active_level() >= kAvx512Fp16) {
        t = fp16::qt_only_span(n, df_ri, dg_ri, qt_prev_m1, df_q, dg_q,
                               qt_next);
      }
#endif
      return t + qt_only_span_f16(n - t, df_ri, dg_ri, qt_prev_m1 + t,
                                  df_q + t, dg_q + t, qt_next + t);
    }
  }
#endif
#ifdef MPSIM_SIMD_NATIVE
  if constexpr (std::is_same_v<CT, double>) {
    if (active_level() >= kAvx2) {
      return qt_only_span_f64(n, df_ri, dg_ri, qt_prev_m1, df_q, dg_q,
                              qt_next);
    }
  } else if constexpr (std::is_same_v<CT, float>) {
    if (active_level() >= kAvx2) {
      return qt_only_span_f32(n, df_ri, dg_ri, qt_prev_m1, df_q, dg_q,
                              qt_next);
    }
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<CT>) {
    if (active_level() >= kAvx2) {
      return avx2::qt_only_span_soft(
          kSoftShift<CT>, n, df_ri.bits(), dg_ri.bits(),
          reinterpret_cast<const std::uint32_t*>(qt_prev_m1),
          reinterpret_cast<const std::uint32_t*>(df_q),
          reinterpret_cast<const std::uint32_t*>(dg_q),
          reinterpret_cast<std::uint32_t*>(qt_next));
    }
  }
#endif
  (void)n; (void)df_ri; (void)dg_ri; (void)qt_prev_m1; (void)df_q;
  (void)dg_q; (void)qt_next;
  return 0;
}

// --- sort_&_incl_scan ---------------------------------------------------

#ifdef MPSIM_SIMD_AVX2
/// BF16/TF32 block sort + scan-average: the AVX2 image of the f16 rows
/// path.  The Bitonic network runs 8 payload columns per compare-exchange
/// with a scalar-operator tail; the scan-average runs vectorized per
/// 8-column group with a PER-LANE scalar fallback for columns holding a
/// NaN distance (two NaN operands in one add would expose operand-order-
/// dependent propagation; the scalar soft_float operators are the
/// reference).  Poisoned columns are scanned into stack scratch BEFORE
/// the vector scan mutates the block, then scattered over it.
template <typename ST>
void sort_scan_rows_soft(ST* blk, std::size_t bstride, std::size_t bn,
                         std::size_t d) {
  static_assert(sizeof(ST) == sizeof(std::uint32_t));
  constexpr int kShift = kSoftShift<ST>;
  // Payload view for the intrinsic kernels; all element access through it
  // happens inside may_alias vector loads/stores (kernels_avx2.hpp).
  std::uint32_t* pay = reinterpret_cast<std::uint32_t*>(blk);
  const std::size_t p2 = next_pow2(d);
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      for (std::size_t i = 0; i < p2; ++i) {
        const std::size_t partner = i ^ stride;
        if (partner <= i) continue;
        const bool ascending = (i & size) == 0;
        std::size_t jj = avx2::cmpex_rows_soft(
            kShift, pay + i * bstride, pay + partner * bstride, bn,
            ascending);
        ST* ra = blk + i * bstride;
        ST* rb = blk + partner * bstride;
        for (; jj < bn; ++jj) {
          const bool out_of_order =
              ascending ? (rb[jj] < ra[jj]) : (ra[jj] < rb[jj]);
          if (out_of_order) std::swap(ra[jj], rb[jj]);
        }
      }
    }
  }
  // Hoisted out of the loop: soft_float's zero-initializing default
  // constructor would otherwise memset this 2 KiB scratch every group.
  ST saved[8 * kMaxSortRows];
  std::size_t jj = 0;
  for (; jj + 8 <= bn; jj += 8) {
    const unsigned mask = avx2::scan_nan_lanes_soft(kShift, pay, bstride, d, jj);
    if (mask != 0) [[unlikely]] {
      for (unsigned c = 0; c < 8; ++c) {
        if ((mask & (1u << c)) == 0) continue;
        ST* vals = saved + c * kMaxSortRows;
        for (std::size_t l = 0; l < d; ++l) {
          vals[l] = blk[l * bstride + jj + c];
        }
        scan_average_column(vals, d);
      }
    }
    avx2::scan_rows_soft_group(kShift, pay, bstride, d, jj);
    if (mask != 0) [[unlikely]] {
      for (unsigned c = 0; c < 8; ++c) {
        if ((mask & (1u << c)) == 0) continue;
        const ST* vals = saved + c * kMaxSortRows;
        for (std::size_t l = 0; l < d; ++l) {
          blk[l * bstride + jj + c] = vals[l];
        }
      }
    }
  }
  for (; jj < bn; ++jj) {
    ST vals[kMaxSortRows];
    for (std::size_t l = 0; l < d; ++l) vals[l] = blk[l * bstride + jj];
    scan_average_column(vals, d);
    for (std::size_t l = 0; l < d; ++l) blk[l * bstride + jj] = vals[l];
  }
}
#endif  // MPSIM_SIMD_AVX2

/// Row-wise block sort + scan-average for the emulated storage types;
/// true when a vector variant handled the (pre-padded) block, false when
/// the caller must run its scalar gather fallback.
template <typename ST>
inline bool sort_scan_rows_emulated(ST* blk, std::size_t bstride,
                                    std::size_t bn, std::size_t d) {
#ifdef MPSIM_SIMD_F16
  if constexpr (std::is_same_v<ST, float16>) {
    if (active_level() >= kF16C) {
      std::size_t jj = 0;
#ifdef MPSIM_SIMD_FP16
      if (active_level() >= kAvx512Fp16) {
        jj = fp16::sort_scan_rows(blk, bstride, bn, d);
      }
#endif
      sort_scan_rows_f16(blk + jj, bstride, bn - jj, d);
      return true;
    }
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  if constexpr (kIsSoftFloat<ST>) {
    if (active_level() >= kAvx2) {
      sort_scan_rows_soft(blk, bstride, bn, d);
      return true;
    }
  }
#endif
  (void)blk; (void)bstride; (void)bn; (void)d;
  return false;
}

// --- update_mat_prof ----------------------------------------------------

/// Vectorized profile/index merge of one contiguous column run: where
/// src[j] < prof[j] (strict — NaN never wins, earliest row wins ties),
/// prof[j] takes src[j]'s raw payload and idx[j] takes `row`.  Returns
/// elements handled by the vector kernel (the caller's scalar selects
/// finish the tail; 0 when dispatched scalar or for the native types,
/// whose scalar merge autovectorizes).
template <typename ST>
inline std::int64_t merge_rows(const ST* src, ST* prof, std::int64_t* idx,
                               std::int64_t n, std::int64_t row) {
#ifdef MPSIM_SIMD_AVX2
  if constexpr (std::is_same_v<ST, float16>) {
    if (active_level() >= kAvx2) {
      std::int64_t j = 0;
#ifdef MPSIM_SIMD_FP16
      if (active_level() >= kAvx512Fp16) {
        j = fp16::merge_rows(src, prof, idx, n, row);
      }
#endif
      return j + avx2::merge_rows_f16(
                     reinterpret_cast<const std::uint16_t*>(src + j),
                     reinterpret_cast<std::uint16_t*>(prof + j), idx + j,
                     n - j, (long long)(row));
    }
  } else if constexpr (kIsSoftFloat<ST>) {
    if (active_level() >= kAvx2) {
      return avx2::merge_rows_soft(
          kSoftShift<ST>, reinterpret_cast<const std::uint32_t*>(src),
          reinterpret_cast<std::uint32_t*>(prof), idx, n, (long long)(row));
    }
  }
#endif
  (void)src; (void)prof; (void)idx; (void)n; (void)row;
  return 0;
}

/// Vectorized CPU-side tile merge span (f64 output profile, full
/// equal-distance/earlier-index tie rule); returns elements handled.
inline std::int64_t merge_tile_span(const double* src_profile,
                                    const std::int64_t* src_index,
                                    double* dst_profile,
                                    std::int64_t* dst_index, std::int64_t n) {
#ifdef MPSIM_SIMD_AVX2
  if (active_level() >= kAvx2) {
    return avx2::merge_tile_span_f64(src_profile, src_index, dst_profile,
                                     dst_index, n);
  }
#endif
  (void)src_profile; (void)src_index; (void)dst_profile; (void)dst_index;
  (void)n;
  return 0;
}

// --- Observability ------------------------------------------------------

/// Records which dispatch variant each pipeline stage of one tile attempt
/// runs with: counters `simd.<stage>.<variant>` (additive
/// mpsim-metrics-v2 schema).  Called once per run_tile attempt, so the
/// counts are deterministic for a given configuration — check_perf.sh
/// pins them under --simd=scalar.
template <typename Traits>
void note_tile_variants(bool fused, bool skip_sort) {
  auto& registry = MetricsRegistry::global();
  if (!registry.enabled()) return;
  using ST = typename Traits::Storage;
  using CT = typename Traits::Compute;
  const auto note = [&registry](Stage stage, Level level) {
    registry
        .counter(std::string("simd.") + to_string(stage) + "." +
                 to_string(level))
        .add();
  };
  // The dist_calc span only runs when Compute == Storage (Mixed keeps the
  // scalar widening loop).
  note(Stage::kDistCalc,
       std::is_same_v<CT, ST> ? dist_calc_variant<CT>() : kScalar);
  if (!skip_sort) {
    note(Stage::kSortScan, fused ? sort_scan_variant<ST>() : kScalar);
  }
  note(Stage::kMerge, fused ? merge_variant<ST>() : kScalar);
  constexpr bool f16_precalc =
      std::is_same_v<typename Traits::PrecalcCompute, float16> &&
      std::is_same_v<ST, float16> && !Traits::kCompensatedPrecalc;
  note(Stage::kPrecalc, f16_precalc ? precalc_f16_variant() : kScalar);
  note(Stage::kGemm, gemm_variant<Traits>());
}

}  // namespace mpsim::mp::simd
