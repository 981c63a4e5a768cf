// 32-wide native binary16 kernels (AVX512-FP16) of the emulated-FP16
// storage family: the dist_calc and QT-only recurrence spans, the block
// sort + scan-average, the fused-row profile merge and the FP16-mode GEMM
// seed panel.  Compiled inside a `#pragma GCC target` AVX512-FP16 region
// and runtime-gated by the kAvx512Fp16 dispatch level; span.hpp chains
// each one into its kF16C/kAvx2 sibling for the columns past the last
// whole 32-column block.
//
// Bit-identity argument.  A native half instruction returns the correctly
// rounded binary16 result of its operation.  The F16C kernels (and the
// scalar float16 operators) widen exactly to binary32, perform one binary32
// operation and round back with RNE — also correctly rounded, because
// double rounding through binary32 is innocuous for +, -, *, / and sqrt on
// 11-bit significands (24 >= 2*11+2).  Both therefore produce the same
// bits per lane, overflow to infinity included.  FP16 instructions ignore
// MXCSR.DAZ/FTZ, so subnormal halves stay exact, as in the widening path.
//
// No FMA contraction.  Every arithmetic operation is written in its
// explicit-rounding form (_mm512_mul_round_ph and friends): the compiler
// may fuse a plain _mm512_mul_ph into a following _mm512_add_ph
// (vfmadd*ph), which rounds once instead of twice and changes the bits.
// The _round forms are never contracted, and they pin RNE regardless of
// MXCSR.RC.
//
// NaN contracts are those of the F16C kernels: the recurrence spans break
// before their stores when the end-of-chain value holds a NaN, the scan
// sends NaN columns through the scalar operators (finish_binop's
// first-NaN-operand sign rule), the merge compares strictly (NaN never
// wins, the earliest row wins ties) and the GEMM panel leaves NaN columns
// to the driver's re-derivation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mp/simd/dispatch.hpp"
#include "mp/sort_scan.hpp"
#include "precision/float16.hpp"

#ifdef MPSIM_SIMD_FP16

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx512fp16,avx512bw,avx512vl,avx512f")

namespace mpsim::mp::simd::fp16 {

inline constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

inline __m512h load(const float16* p) {
  return _mm512_castsi512_ph(_mm512_loadu_si512(p));
}
inline void store(float16* p, __m512h v) {
  _mm512_storeu_si512(p, _mm512_castph_si512(v));
}
inline __m512h splat(float16 h) {
  return _mm512_castsi512_ph(_mm512_set1_epi16(short(h.bits())));
}
inline __mmask32 nan_lanes(__m512h v) {
  return _mm512_cmp_ph_mask(v, v, _CMP_UNORD_Q);
}
inline __m512h add(__m512h a, __m512h b) {
  return _mm512_add_round_ph(a, b, kRne);
}
inline __m512h sub(__m512h a, __m512h b) {
  return _mm512_sub_round_ph(a, b, kRne);
}
inline __m512h mul(__m512h a, __m512h b) {
  return _mm512_mul_round_ph(a, b, kRne);
}
inline __m512h div(__m512h a, __m512h b) {
  return _mm512_div_round_ph(a, b, kRne);
}

/// 32-wide dist_calc recurrence; contract of dist_calc_span_f16
/// (span-relative pointers, qt_prev_m1 pre-shifted one column left,
/// in-place qt_next == qt_prev_m1 allowed).  Returns columns processed, a
/// multiple of 32, short of the first block whose distance chain holds a
/// NaN.
inline std::int64_t dist_calc_span(
    std::int64_t n, float16 df_ri, float16 dg_ri, float16 inv_ri,
    float16 two_m, const float16* qt_prev_m1,
    const float16* MPSIM_SIMD_RESTRICT df_q,
    const float16* MPSIM_SIMD_RESTRICT dg_q,
    const float16* MPSIM_SIMD_RESTRICT inv_q, float16* qt_next,
    float16* MPSIM_SIMD_RESTRICT dist) {
  if (float16::nan_bits(df_ri.bits()) || float16::nan_bits(dg_ri.bits()) ||
      float16::nan_bits(inv_ri.bits())) {
    return 0;
  }
  const __m512h v_df_ri = splat(df_ri);
  const __m512h v_dg_ri = splat(dg_ri);
  const __m512h v_inv_ri = splat(inv_ri);
  const __m512h v_two_m = splat(two_m);
  const __m512h v_one = splat(float16::from_bits(0x3c00));
  const __m512h v_zero = _mm512_setzero_ph();
  std::int64_t t = 0;
  for (; t + 32 <= n; t += 32) {
    const __m512h prev = load(qt_prev_m1 + t);
    // qt = (qt_prev + df_ri * dg_q) + dg_ri * df_q, rounding each step.
    const __m512h qt = add(add(prev, mul(v_df_ri, load(dg_q + t))),
                           mul(v_dg_ri, load(df_q + t)));
    // qt_to_distance: sqrt(two_m * (1 - qt*inv_r*inv_q)), clamped at 0.
    const __m512h corr = mul(mul(qt, v_inv_ri), load(inv_q + t));
    const __m512h val = mul(v_two_m, sub(v_one, corr));
    // Every streamed operand reaches val through NaN-transparent ops, so
    // a clean val proves the block NaN-free; otherwise the scalar loop
    // redoes it before anything is stored.
    if (nan_lanes(val) != 0) break;
    store(qt_next + t, qt);
    const __mmask32 neg = _mm512_cmp_ph_mask(val, v_zero, _CMP_LT_OQ);
    store(dist + t,
          _mm512_sqrt_round_ph(_mm512_mask_blend_ph(neg, val, v_zero), kRne));
  }
  return t;
}

/// 32-wide QT-only span: the QT prefix of dist_calc_span (contract of
/// qt_only_span_f16).
inline std::int64_t qt_only_span(std::int64_t n, float16 df_ri,
                                 float16 dg_ri, const float16* qt_prev_m1,
                                 const float16* MPSIM_SIMD_RESTRICT df_q,
                                 const float16* MPSIM_SIMD_RESTRICT dg_q,
                                 float16* qt_next) {
  if (float16::nan_bits(df_ri.bits()) || float16::nan_bits(dg_ri.bits())) {
    return 0;
  }
  const __m512h v_df_ri = splat(df_ri);
  const __m512h v_dg_ri = splat(dg_ri);
  std::int64_t t = 0;
  for (; t + 32 <= n; t += 32) {
    const __m512h qt =
        add(add(load(qt_prev_m1 + t), mul(v_df_ri, load(dg_q + t))),
            mul(v_dg_ri, load(df_q + t)));
    if (nan_lanes(qt) != 0) break;
    store(qt_next + t, qt);
  }
  return t;
}

/// Block sort + scan-average over the block's first multiple-of-32
/// columns; returns that count (the caller hands the rest to
/// sort_scan_rows_f16).  Columns are independent, so the split is exact.
/// The Bitonic compare-exchange blends raw payloads under a strict
/// compare (no arithmetic, so no NaN fallback); the scan sends each
/// column holding a NaN distance through the scalar operators, saved
/// before the vector scan mutates the block and scattered over it after.
inline std::size_t sort_scan_rows(float16* blk, std::size_t bstride,
                                  std::size_t bn, std::size_t d) {
  const std::size_t n = bn & ~std::size_t(31);
  const std::size_t p2 = next_pow2(d);
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      for (std::size_t i = 0; i < p2; ++i) {
        const std::size_t partner = i ^ stride;
        if (partner <= i) continue;
        const bool ascending = (i & size) == 0;
        float16* ra = blk + i * bstride;
        float16* rb = blk + partner * bstride;
        for (std::size_t jj = 0; jj < n; jj += 32) {
          const __m512i a = _mm512_loadu_si512(ra + jj);
          const __m512i b = _mm512_loadu_si512(rb + jj);
          const __mmask32 swap =
              ascending ? _mm512_cmp_ph_mask(_mm512_castsi512_ph(b),
                                             _mm512_castsi512_ph(a),
                                             _CMP_LT_OQ)
                        : _mm512_cmp_ph_mask(_mm512_castsi512_ph(a),
                                             _mm512_castsi512_ph(b),
                                             _CMP_LT_OQ);
          _mm512_storeu_si512(ra + jj, _mm512_mask_blend_epi16(swap, a, b));
          _mm512_storeu_si512(rb + jj, _mm512_mask_blend_epi16(swap, b, a));
        }
      }
    }
  }
  // Raw bits, deliberately uninitialised: float16's zero-initialising
  // constructor would clear 4 KiB per call for a path NaN-free blocks
  // never read.
  std::uint16_t saved[32 * kMaxSortRows];
  for (std::size_t jj = 0; jj < n; jj += 32) {
    __mmask32 poisoned = 0;
    for (std::size_t l = 0; l < d; ++l) {
      poisoned |= nan_lanes(load(blk + l * bstride + jj));
    }
    if (poisoned != 0) [[unlikely]] {
      for (unsigned c = 0; c < 32; ++c) {
        if ((poisoned >> c & 1u) == 0) continue;
        float16 vals[kMaxSortRows];
        for (std::size_t l = 0; l < d; ++l) {
          vals[l] = blk[l * bstride + jj + c];
        }
        scan_average_column(vals, d);
        for (std::size_t l = 0; l < d; ++l) {
          saved[c * kMaxSortRows + l] = vals[l].bits();
        }
      }
    }
    for (std::size_t offset = 1; offset < d; offset <<= 1) {
      for (std::size_t l = d; l-- > offset;) {
        float16* row = blk + l * bstride + jj;
        store(row, add(load(row), load(row - offset * bstride)));
      }
    }
    for (std::size_t l = 0; l < d; ++l) {
      float16* row = blk + l * bstride + jj;
      // l+1 <= kMaxSortRows is exact in binary16: the scalar divisor.
      store(row, div(load(row), splat(float16(double(l + 1)))));
    }
    if (poisoned != 0) [[unlikely]] {
      for (unsigned c = 0; c < 32; ++c) {
        if ((poisoned >> c & 1u) == 0) continue;
        for (std::size_t l = 0; l < d; ++l) {
          blk[l * bstride + jj + c] =
              float16::from_bits(saved[c * kMaxSortRows + l]);
        }
      }
    }
  }
  return n;
}

/// 32-wide fused-row profile merge: where src[j] < prof[j] (strict, so
/// NaN never wins and the earliest row wins ties) prof[j] takes src[j]'s
/// raw payload and idx[j] takes `row`.  Returns elements handled.
inline std::int64_t merge_rows(const float16* src, float16* prof,
                               std::int64_t* idx, std::int64_t n,
                               std::int64_t row) {
  const __m512i vrow = _mm512_set1_epi64(row);
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    const __m512i s = _mm512_loadu_si512(src + j);
    const __mmask32 take = _mm512_cmp_ph_mask(
        _mm512_castsi512_ph(s), load(prof + j), _CMP_LT_OQ);
    if (take == 0) continue;
    _mm512_mask_storeu_epi16(prof + j, take, s);
    for (int q = 0; q < 4; ++q) {
      _mm512_mask_storeu_epi64(idx + j + 8 * q, __mmask8(take >> (8 * q)),
                               vrow);
    }
  }
  return j;
}

/// 32-column FP16-mode GEMM panel (contract of gemm_panels_f16): per
/// column b = slide[j+t] - smu[j];  p = a[t] * b;  acc = acc + p, each
/// step one correctly rounded half operation, accumulating in binary16.
inline std::size_t gemm_panels(const float16* MPSIM_SIMD_RESTRICT a,
                               std::size_t m, const float16* slide,
                               const float16* MPSIM_SIMD_RESTRICT smu,
                               std::size_t n,
                               float16* MPSIM_SIMD_RESTRICT out) {
  std::size_t jj = 0;
  for (; jj + 32 <= n; jj += 32) {
    const __m512h sm = load(smu + jj);
    __m512h acc = _mm512_setzero_ph();
    for (std::size_t t = 0; t < m; ++t) {
      acc = add(acc, mul(splat(a[t]), sub(load(slide + jj + t), sm)));
    }
    store(out + jj, acc);
  }
  return jj;
}

}  // namespace mpsim::mp::simd::fp16

#pragma GCC pop_options

#endif  // MPSIM_SIMD_FP16
