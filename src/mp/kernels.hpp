// Bodies and cost descriptors of the four GPU kernels (paper §III-A):
// precalculation, dist_calc, sort_&_incl_scan, update_mat_prof.
//
// Bodies are plain functions over raw device-buffer pointers so they can be
// unit-tested directly and reused by the single-tile engine; each kernel
// also has a cost function feeding the roofline performance model (byte
// counts assume the row-resident working set streams through DRAM once per
// pass, which matches the paper's ">80% DRAM throughput" profile for
// dist_calc / update_mat_prof).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "gpusim/kernel.hpp"
#include "mp/precalc.hpp"
#include "mp/sketch.hpp"
#include "mp/simd/span.hpp"
#include "mp/sort_scan.hpp"
#include "precision/modes.hpp"

namespace mpsim::mp {

// The kernel bodies run on host threads; the native-type instantiations
// (float/double) must autovectorize, so their pointer parameters carry
// restrict qualifiers (every call site passes disjoint buffers) and their
// inner loops are branch-free selects.
#if defined(__GNUC__) || defined(__clang__)
#define MPSIM_RESTRICT __restrict__
#define MPSIM_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define MPSIM_RESTRICT
#define MPSIM_ALWAYS_INLINE inline
#endif

/// Distance of Eq. (1) from a mean-centred dot product and the two inverse
/// norms: sqrt(2m * (1 - QT * inv_r * inv_q)), clamped at zero when
/// rounding pushes the correlation above one.  A NaN input (FP16 overflow
/// or corrupted staging data) must stay NaN rather than clamp to a
/// perfect-match 0 — update_mat_prof discards NaN distances, and the
/// resilient scheduler detects the resulting non-finite profile columns.
/// The clamp is a select (NaN < 0 is false, so NaN passes through and
/// propagates through sqrt unchanged); no branch, so the native-type
/// dist_calc loop vectorizes.  Shared by the GPU kernel and the CPU
/// reference so their FP64 results are bit-identical.
template <typename CT>
CT qt_to_distance(CT qt, CT inv_r, CT inv_q, CT two_m) {
  using std::sqrt;
  const CT corr = qt * inv_r * inv_q;
  const CT val = two_m * (CT(1) - corr);
  const CT clamped = val < CT(0) ? CT(0) : val;  // NaN stays NaN
  return CT(sqrt(clamped));
}

// The hand-written SIMD kernels live in mp/simd/ (kernels_f16.hpp: F16C
// half-precision spans; kernels_native.hpp: AVX f64/f32 dist_calc spans;
// kernels_avx2.hpp: BF16/TF32 payload kernels and vector merges), behind
// the runtime CPU-feature dispatch of mp/simd/dispatch.hpp.  The kernel
// bodies below call the typed span gates of mp/simd/span.hpp and keep
// their scalar loops as the tail / fallback, so every mode works — and is
// bit-identical — at every dispatch level.
static_assert(simd::kMaxSortRows == 64,
              "mp/simd scratch sizing must cover kMaxFusedRowDims");

/// dist_calc, Eq. (1): computes elements [begin, end) of row i of the
/// distance matrix (elements indexed e = k*w + j over w columns and d
/// dimensions).  Reads the previous QT row, writes the next QT row and the
/// distance row.
///
/// Iterates per-dimension row spans: the k-dependent operands (df_r, dg_r,
/// inv_r at k*nr+i) and the e/w, e%w bookkeeping are hoisted out of the
/// element loop, leaving a streaming inner loop over contiguous indices
/// whose float/double instantiations autovectorize.  The arithmetic — per
/// element, per operation, in order — is unchanged, so every precision
/// mode's output is bit-identical to the element-at-a-time formulation.
template <typename Traits>
void dist_calc_body(std::int64_t begin, std::int64_t end, std::size_t i,
                    std::size_t w, std::size_t m,
                    const typename Traits::Storage* MPSIM_RESTRICT
                        qt_row_seed,  // [k*w+j]
                    const typename Traits::Storage* MPSIM_RESTRICT
                        qt_col_seed,  // [k*nr+i]
                    std::size_t nr,
                    const typename Traits::Storage* MPSIM_RESTRICT df_r,
                    const typename Traits::Storage* MPSIM_RESTRICT dg_r,
                    const typename Traits::Storage* MPSIM_RESTRICT inv_r,
                    const typename Traits::Storage* MPSIM_RESTRICT df_q,
                    const typename Traits::Storage* MPSIM_RESTRICT dg_q,
                    const typename Traits::Storage* MPSIM_RESTRICT inv_q,
                    const typename Traits::Storage* MPSIM_RESTRICT qt_prev,
                    typename Traits::Storage* MPSIM_RESTRICT qt_next,
                    typename Traits::Storage* MPSIM_RESTRICT dist_row) {
  using CT = typename Traits::Compute;
  using ST = typename Traits::Storage;

  const CT two_m = CT(double(2 * m));
  std::size_t k = std::size_t(begin) / w;
  std::int64_t e = begin;
  while (e < end) {
    const auto span_end =
        std::min<std::int64_t>(end, std::int64_t((k + 1) * w));
    const std::size_t row = k * nr + i;
    const CT inv_ri = CT(inv_r[row]);
    if (i == 0) {
      // First tile row: QT comes straight from the row seeds.
      for (std::int64_t x = e; x < span_end; ++x) {
        const CT qt = CT(qt_row_seed[x]);
        qt_next[x] = ST(qt);
        dist_row[x] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
      }
    } else {
      const CT df_ri = CT(df_r[row]);
      const CT dg_ri = CT(dg_r[row]);
      std::int64_t x = e;
      if (std::size_t(x) % w == 0) {
        // Column 0 of this dimension: QT comes from the column seeds.
        const CT qt = CT(qt_col_seed[row]);
        qt_next[x] = ST(qt);
        dist_row[x] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
        ++x;
      }
      // Streaming-dot-product recurrence over the rest of the span.  The
      // SIMD span handles the Compute == Storage modes (all but Mixed)
      // when the dispatch level allows; the scalar loop finishes the tail.
      if constexpr (std::is_same_v<CT, ST>) {
        x += simd::dist_calc_span<CT>(span_end - x, df_ri, dg_ri, inv_ri,
                                      two_m, qt_prev + x - 1, df_q + x,
                                      dg_q + x, inv_q + x, qt_next + x,
                                      dist_row + x);
      }
      for (; x < span_end; ++x) {
        const CT qt = CT(qt_prev[x - 1]) + df_ri * CT(dg_q[x]) +
                      dg_ri * CT(df_q[x]);
        qt_next[x] = ST(qt);
        dist_row[x] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
      }
    }
    e = span_end;
    ++k;
  }
}

/// sort_&_incl_scan, Eq. (2), for one column group: gathers the d
/// distances of column j, Bitonic-sorts them ascending (padded to the next
/// power of two with +inf), then computes the progressive inclusive
/// average.  Barriers are reported through the GroupContext.
template <typename Traits>
void sort_scan_group_body(gpusim::GroupContext& group, std::size_t w,
                          std::size_t d,
                          const typename Traits::Storage* dist_row,
                          typename Traits::Storage* scan_row) {
  using ST = typename Traits::Storage;
  const std::size_t j = std::size_t(group.group_index());
  const std::size_t p2 = next_pow2(d);

  // Thread-local shared-memory analogue: reused across groups a worker
  // executes, sized for the padded problem.  Only the padded tail of
  // `values` needs initialising (the gather overwrites [0, d), and the
  // scan writes every scratch element it later reads), so per-group work
  // is the d + (p2 - d) stores below, not 2*p2 assignments.
  thread_local std::vector<ST> values;
  thread_local std::vector<ST> scratch;
  if (values.size() < p2) values.resize(p2);
  if (scratch.size() < p2) scratch.resize(p2);

  for (std::size_t k = 0; k < d; ++k) values[k] = dist_row[k * w + j];
  for (std::size_t k = d; k < p2; ++k) {
    values[k] = std::numeric_limits<ST>::infinity();
  }
  group.barrier();  // gather complete

  bitonic_sort(values.data(), p2, [&group] { group.barrier(); });
  inclusive_scan_average(values.data(), scratch.data(), d,
                         [&group] { group.barrier(); });

  for (std::size_t k = 0; k < d; ++k) scan_row[k * w + j] = values[k];
}

/// update_mat_prof, Eq. (3): merges row i of the scanned distances into
/// the running profile (column-wise min / argmin).  Strict less-than keeps
/// the earliest row on ties.  `exclusion` > 0 skips trivial self-join
/// matches with |row - column| < exclusion (global segment indices).
///
/// The exclusion zone of a row is one contiguous column interval, so it is
/// resolved to index bounds once per dimension span (no per-element div /
/// mod / abs), and the merge loop itself is two selects with unconditional
/// stores — each chunk owns its elements exclusively — which vectorizes
/// for the native storage types.
template <typename Traits>
void update_body(std::int64_t begin, std::int64_t end, std::size_t w,
                 std::int64_t global_row, std::int64_t q_begin,
                 std::int64_t exclusion,
                 const typename Traits::Storage* MPSIM_RESTRICT scan_row,
                 typename Traits::Storage* MPSIM_RESTRICT profile,
                 std::int64_t* MPSIM_RESTRICT index) {
  const auto wi = std::int64_t(w);
  auto merge = [&](std::int64_t from, std::int64_t to) {
    for (std::int64_t e = from; e < to; ++e) {
      // NaN distances (possible after FP16 overflow) never win: the
      // comparison below is false for NaN.
      const bool better = scan_row[e] < profile[e];
      profile[e] = better ? scan_row[e] : profile[e];
      index[e] = better ? global_row : index[e];
    }
  };
  std::int64_t e = begin;
  while (e < end) {
    const std::int64_t k = e / wi;
    const std::int64_t row_end = std::min(end, (k + 1) * wi);
    if (exclusion > 0) {
      // Excluded columns: |global_row - (q_begin + j)| < exclusion, i.e.
      // j in [g - exclusion + 1, g + exclusion - 1] with g relative to
      // this tile's columns.
      const std::int64_t g = global_row - q_begin;
      const std::int64_t base = k * wi;
      const std::int64_t ex_begin =
          std::clamp(base + g - exclusion + 1, e, row_end);
      const std::int64_t ex_end =
          std::clamp(base + g + exclusion, e, row_end);
      merge(e, ex_begin);
      merge(ex_end, row_end);
    } else {
      merge(e, row_end);
    }
    e = row_end;
  }
}

// --- Fused row pipeline ---------------------------------------------------
//
// The cooperative path above makes three full sweeps over nq*d per tile
// row (dist_calc -> sort_&_incl_scan -> update_mat_prof), bouncing the
// distance and scan rows through device buffers and paying a simulated
// group barrier per Bitonic stage per column.  The fused path processes a
// block of columns end-to-end in one pass: distances land in a
// stack-resident transposed block, the Bitonic network and Hillis–Steele
// scan-average run ROW-WISE across the block (a network stage becomes an
// elementwise select over two contiguous rows, which autovectorizes for
// the native storage types), and the min/argmin merge follows immediately
// while the block is cache-hot.  Columns are independent in every stage,
// so batching them per stage performs the exact scalar operation sequence
// of sort_scan_column on each column — bit-identical by construction.

/// Dimension cap of the fused path (p2 <= 64 keeps the column block and
/// the per-column scratch on the stack).  Larger d falls back to the
/// cooperative path.
inline constexpr std::size_t kMaxFusedRowDims = 64;

/// Stack budget of the fused column block, in elements: next_pow2(d) rows
/// of kFusedBlockElems / next_pow2(d) columns.
inline constexpr std::size_t kFusedBlockElems = 2048;

// The SIMD layer's column scratch (per-lane NaN fallbacks) is sized for
// this dimension cap.
static_assert(kMaxFusedRowDims == simd::kMaxSortRows,
              "mp/simd scratch sizing must cover kMaxFusedRowDims");

namespace detail {

/// One Bitonic compare-exchange stage applied row-wise across a column
/// block: every column jj experiences exactly bitonic_stage's (size,
/// stride) compare-exchange.  Branchless selects, so the native-type
/// instantiations vectorize.
template <typename T>
inline void bitonic_stage_rows(T* blk, std::size_t bstride, std::size_t bn,
                               std::size_t p2, std::size_t size,
                               std::size_t stride) {
  for (std::size_t i = 0; i < p2; ++i) {
    const std::size_t partner = i ^ stride;
    if (partner <= i) continue;
    const bool ascending = (i & size) == 0;
    T* MPSIM_RESTRICT ra = blk + i * bstride;
    T* MPSIM_RESTRICT rb = blk + partner * bstride;
    for (std::size_t jj = 0; jj < bn; ++jj) {
      const T a = ra[jj];
      const T b = rb[jj];
      const bool sw = ascending ? (b < a) : (a < b);
      ra[jj] = sw ? b : a;
      rb[jj] = sw ? a : b;
    }
  }
}

template <typename T>
inline void row_add(T* MPSIM_RESTRICT a, const T* MPSIM_RESTRICT b,
                    std::size_t bn) {
  for (std::size_t jj = 0; jj < bn; ++jj) a[jj] = T(a[jj] + b[jj]);
}

template <typename T>
inline void row_divide(T* MPSIM_RESTRICT a, T div, std::size_t bn) {
  for (std::size_t jj = 0; jj < bn; ++jj) a[jj] = a[jj] / div;
}

/// Row-wise sort + scan-average with compile-time network bounds (the
/// block-level image of sort_scan_column's fixed dispatch).  The scan
/// updates rows high-to-low, so row l-offset still holds the previous
/// step's value when row l reads it — same trick as scan_average_column.
template <std::size_t D, std::size_t P2, typename T>
void sort_scan_rows_fixed(T* blk, std::size_t bstride, std::size_t bn) {
  for (std::size_t size = 2; size <= P2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      bitonic_stage_rows(blk, bstride, bn, P2, size, stride);
    }
  }
  for (std::size_t offset = 1; offset < D; offset <<= 1) {
    for (std::size_t l = D; l-- > offset;) {
      row_add(blk + l * bstride, blk + (l - offset) * bstride, bn);
    }
  }
  for (std::size_t l = 0; l < D; ++l) {
    row_divide(blk + l * bstride, T(double(l + 1)), bn);
  }
}

/// Runtime-d version of the above for d > 8.
template <typename T>
void sort_scan_rows_generic(T* blk, std::size_t bstride, std::size_t bn,
                            std::size_t d) {
  const std::size_t p2 = next_pow2(d);
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      bitonic_stage_rows(blk, bstride, bn, p2, size, stride);
    }
  }
  for (std::size_t offset = 1; offset < d; offset <<= 1) {
    for (std::size_t l = d; l-- > offset;) {
      row_add(blk + l * bstride, blk + (l - offset) * bstride, bn);
    }
  }
  for (std::size_t l = 0; l < d; ++l) {
    row_divide(blk + l * bstride, T(double(l + 1)), bn);
  }
}

template <typename T>
void sort_scan_rows(T* blk, std::size_t bstride, std::size_t bn,
                    std::size_t d) {
  switch (d) {
    case 2: return sort_scan_rows_fixed<2, 2>(blk, bstride, bn);
    case 3: return sort_scan_rows_fixed<3, 4>(blk, bstride, bn);
    case 4: return sort_scan_rows_fixed<4, 4>(blk, bstride, bn);
    case 5: return sort_scan_rows_fixed<5, 8>(blk, bstride, bn);
    case 6: return sort_scan_rows_fixed<6, 8>(blk, bstride, bn);
    case 7: return sort_scan_rows_fixed<7, 8>(blk, bstride, bn);
    case 8: return sort_scan_rows_fixed<8, 8>(blk, bstride, bn);
    default: return sort_scan_rows_generic(blk, bstride, bn, d);
  }
}

}  // namespace detail

/// Sort + progressive average of a column block in transposed layout
/// (blk[k*bstride + jj], dimension row k, block column jj): each column
/// experiences exactly sort_scan_column's operation sequence, so the
/// result is bit-identical to the cooperative per-column kernel.  Rows
/// [d, next_pow2(d)) must be pre-padded with +inf by the caller, and
/// d must be >= 2 (the engine elides the sort kernel for d == 1).
template <typename ST>
void sort_scan_block(ST* blk, std::size_t bstride, std::size_t bn,
                     std::size_t d) {
  if constexpr (std::is_floating_point_v<ST>) {
    detail::sort_scan_rows(blk, bstride, bn, d);
  } else {
    // Vector variants for the emulated types (F16C halves, AVX2 BF16/TF32
    // payload kernels), gated on the runtime dispatch level.
    if (simd::sort_scan_rows_emulated(blk, bstride, bn, d)) return;
    // Emulated scalar fallback (software float16 / scalar dispatch):
    // gather each padded column, run the fixed network, scatter the
    // averages.
    const std::size_t p2 = next_pow2(d);
    for (std::size_t jj = 0; jj < bn; ++jj) {
      ST vals[kMaxFusedRowDims];
      for (std::size_t l = 0; l < p2; ++l) vals[l] = blk[l * bstride + jj];
      sort_scan_column(vals, d);
      for (std::size_t l = 0; l < d; ++l) blk[l * bstride + jj] = vals[l];
    }
  }
}

namespace detail {

/// One QT row buffer addressed by tile column: element (k, j) lives at
/// data[k * stride + (j - col0)].  The tile's own QT rows are {w, 0}; a
/// blocked chunk's halo rows cover only columns [col0, col0 + stride).
template <typename T>
struct QtRows {
  T* data;
  std::size_t stride;
  std::int64_t col0;

  T* at(std::size_t k, std::int64_t j) const {
    return data + k * stride + std::size_t(j - col0);
  }
};

/// fused_row_body over columns [begin, end) with QT rows addressed through
/// QtRows, so the previous / next QT rows may be either the tile's QT
/// buffers or a blocked chunk's halo buffers.
template <typename Traits>
void fused_row_cols(
    std::int64_t begin, std::int64_t end, std::size_t i, std::size_t w,
    std::size_t m, std::size_t d,
    const typename Traits::Storage* MPSIM_RESTRICT qt_row_seed,
    const typename Traits::Storage* MPSIM_RESTRICT qt_col_seed,
    std::size_t nr, const typename Traits::Storage* MPSIM_RESTRICT df_r,
    const typename Traits::Storage* MPSIM_RESTRICT dg_r,
    const typename Traits::Storage* MPSIM_RESTRICT inv_r,
    const typename Traits::Storage* MPSIM_RESTRICT df_q,
    const typename Traits::Storage* MPSIM_RESTRICT dg_q,
    const typename Traits::Storage* MPSIM_RESTRICT inv_q,
    QtRows<const typename Traits::Storage> qt_prev,
    QtRows<typename Traits::Storage> qt_next, std::int64_t global_row,
    std::int64_t q_begin, std::int64_t exclusion,
    typename Traits::Storage* MPSIM_RESTRICT profile,
    std::int64_t* MPSIM_RESTRICT index) {
  using CT = typename Traits::Compute;
  using ST = typename Traits::Storage;
  MPSIM_CHECK(d >= 1 && d <= kMaxFusedRowDims,
              "fused_row_body: d out of range");

  const CT two_m = CT(double(2 * m));
  const std::size_t p2 = next_pow2(d);
  const std::size_t bcols = kFusedBlockElems / p2;
  const ST inf = std::numeric_limits<ST>::infinity();
  const std::int64_t g = global_row - q_begin;
  alignas(32) ST blk[kFusedBlockElems];

  for (std::int64_t j0 = begin; j0 < end; j0 += std::int64_t(bcols)) {
    const std::int64_t j1 = std::min<std::int64_t>(end, j0 + std::int64_t(bcols));
    const std::size_t bn = std::size_t(j1 - j0);

    // Pass 1 — dist_calc: same per-dimension span structure (and hence
    // the same scalar/vector op sequence per element) as dist_calc_body;
    // only the distance sink differs (stack block instead of dist_row).
    for (std::size_t k = 0; k < d; ++k) {
      ST* MPSIM_RESTRICT dblk = blk + k * bcols;
      const std::size_t xbase = k * w;
      const std::size_t row = k * nr + i;
      const CT inv_ri = CT(inv_r[row]);
      if (i == 0) {
        ST* MPSIM_RESTRICT qn = qt_next.at(k, j0);
        for (std::size_t jj = 0; jj < bn; ++jj) {
          const std::size_t x = xbase + std::size_t(j0) + jj;
          const CT qt = CT(qt_row_seed[x]);
          qn[jj] = ST(qt);
          dblk[jj] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
        }
        continue;
      }
      const CT df_ri = CT(df_r[row]);
      const CT dg_ri = CT(dg_r[row]);
      std::size_t jf = 0;
      if (j0 == 0) {
        const CT qt = CT(qt_col_seed[row]);
        *qt_next.at(k, 0) = ST(qt);
        dblk[0] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[xbase]), two_m));
        jf = 1;
      }
      // Recurrence span: column j0 + jf + t reads the previous row's QT
      // at column j0 + jf + t - 1.
      const std::int64_t jr = j0 + std::int64_t(jf);
      const std::int64_t n = std::int64_t(bn - jf);
      const ST* MPSIM_RESTRICT qp = qt_prev.at(k, jr - 1);
      ST* MPSIM_RESTRICT qn = qt_next.at(k, jr);
      const ST* MPSIM_RESTRICT dfq = df_q + xbase + std::size_t(jr);
      const ST* MPSIM_RESTRICT dgq = dg_q + xbase + std::size_t(jr);
      const ST* MPSIM_RESTRICT invq = inv_q + xbase + std::size_t(jr);
      ST* MPSIM_RESTRICT dst = dblk + jf;
      std::int64_t t = 0;
      if constexpr (std::is_same_v<CT, ST>) {
        t = simd::dist_calc_span<CT>(n, df_ri, dg_ri, inv_ri, two_m, qp, dfq,
                                     dgq, invq, qn, dst);
      }
      for (; t < n; ++t) {
        const CT qt = CT(qp[t]) + df_ri * CT(dgq[t]) + dg_ri * CT(dfq[t]);
        qn[t] = ST(qt);
        dst[t] = ST(qt_to_distance(qt, inv_ri, CT(invq[t]), two_m));
      }
    }

    // Pass 2 — sort_&_incl_scan (elided for d == 1, matching the
    // engine's skip_sort kernel elision).
    if (d >= 2) {
      for (std::size_t k = d; k < p2; ++k) {
        ST* MPSIM_RESTRICT pad = blk + k * bcols;
        for (std::size_t jj = 0; jj < bn; ++jj) pad[jj] = inf;
      }
      sort_scan_block(blk, bcols, bn, d);
    }

    // Pass 3 — update_mat_prof: same selects as update_body's merge,
    // with the row's exclusion interval clipped to this block.
    std::int64_t exb = j1, exe = j1;
    if (exclusion > 0) {
      exb = std::clamp<std::int64_t>(g - exclusion + 1, j0, j1);
      exe = std::clamp<std::int64_t>(g + exclusion, j0, j1);
    }
    for (std::size_t k = 0; k < d; ++k) {
      const ST* MPSIM_RESTRICT src = blk + k * bcols;
      ST* MPSIM_RESTRICT prow = profile + k * w + std::size_t(j0);
      std::int64_t* MPSIM_RESTRICT irow = index + k * w + std::size_t(j0);
      const auto merge = [&](std::int64_t from, std::int64_t to) {
        std::int64_t j = from;
        if (to > from) {
          // Vector merge prefix for the emulated types (raw-payload
          // blends; strict < keeps NaN out and the earliest row on ties,
          // exactly like the scalar selects below).
          const std::size_t c0 = std::size_t(from - j0);
          j += simd::merge_rows(src + c0, prow + c0, irow + c0, to - from,
                                global_row);
        }
        for (; j < to; ++j) {
          const std::size_t c = std::size_t(j - j0);
          const bool better = src[c] < prow[c];
          prow[c] = better ? src[c] : prow[c];
          irow[c] = better ? global_row : irow[c];
        }
      };
      merge(j0, exb);
      merge(exe, j1);
    }
  }
}

/// qt_only_row_body over columns [begin, end) with QtRows addressing.
/// fused_rows_blocked calls it for each chunk's halo and, under the sketch
/// prefilter, for every run of skipped column groups, once per row.
/// Always inlined: an out-of-line call once per 32-column group cost
/// batch-sketch runs about 6% of their CPU time.
template <typename Traits>
MPSIM_ALWAYS_INLINE void qt_only_cols(std::int64_t begin, std::int64_t end, std::size_t i,
                  std::size_t w, std::size_t d,
                  const typename Traits::Storage* MPSIM_RESTRICT qt_row_seed,
                  const typename Traits::Storage* MPSIM_RESTRICT qt_col_seed,
                  std::size_t nr,
                  const typename Traits::Storage* MPSIM_RESTRICT df_r,
                  const typename Traits::Storage* MPSIM_RESTRICT dg_r,
                  const typename Traits::Storage* MPSIM_RESTRICT df_q,
                  const typename Traits::Storage* MPSIM_RESTRICT dg_q,
                  QtRows<const typename Traits::Storage> qt_prev,
                  QtRows<typename Traits::Storage> qt_next) {
  using CT = typename Traits::Compute;
  using ST = typename Traits::Storage;
  if (begin >= end) return;
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t xbase = k * w;
    const std::size_t row = k * nr + i;
    if (i == 0) {
      ST* MPSIM_RESTRICT qn = qt_next.at(k, begin);
      for (std::int64_t j = begin; j < end; ++j) {
        qn[j - begin] = ST(CT(qt_row_seed[xbase + std::size_t(j)]));
      }
      continue;
    }
    const CT df_ri = CT(df_r[row]);
    const CT dg_ri = CT(dg_r[row]);
    std::int64_t jr = begin;
    if (jr == 0) {
      *qt_next.at(k, 0) = ST(CT(qt_col_seed[row]));
      ++jr;
    }
    const std::int64_t n = end - jr;
    const ST* MPSIM_RESTRICT qp = qt_prev.at(k, jr - 1);
    ST* MPSIM_RESTRICT qn = qt_next.at(k, jr);
    const ST* MPSIM_RESTRICT dfq = df_q + xbase + std::size_t(jr);
    const ST* MPSIM_RESTRICT dgq = dg_q + xbase + std::size_t(jr);
    std::int64_t t = 0;
    if constexpr (std::is_same_v<CT, ST>) {
      t = simd::qt_only_span<CT>(n, df_ri, dg_ri, qp, dfq, dgq, qn);
    }
    for (; t < n; ++t) {
      const CT qt = CT(qp[t]) + df_ri * CT(dgq[t]) + dg_ri * CT(dfq[t]);
      qn[t] = ST(qt);
    }
  }
}

}  // namespace detail

/// Fused per-row pipeline over columns [begin, end): Eq. (1) recurrence +
/// distances into a stack block, Eq. (2) block sort/scan, Eq. (3) merge —
/// one pass, no device-buffer round-trips, no simulated group barriers.
/// Chunks partition the COLUMN range, so qt_next / profile / index writes
/// are disjoint across chunks in every dimension row.  Per element and
/// per operation the arithmetic (and its order) matches dist_calc_body ->
/// sort_scan_group_body -> update_body exactly; see each pass for why.
template <typename Traits>
void fused_row_body(
    std::int64_t begin, std::int64_t end, std::size_t i, std::size_t w,
    std::size_t m, std::size_t d,
    const typename Traits::Storage* MPSIM_RESTRICT qt_row_seed,
    const typename Traits::Storage* MPSIM_RESTRICT qt_col_seed,
    std::size_t nr, const typename Traits::Storage* MPSIM_RESTRICT df_r,
    const typename Traits::Storage* MPSIM_RESTRICT dg_r,
    const typename Traits::Storage* MPSIM_RESTRICT inv_r,
    const typename Traits::Storage* MPSIM_RESTRICT df_q,
    const typename Traits::Storage* MPSIM_RESTRICT dg_q,
    const typename Traits::Storage* MPSIM_RESTRICT inv_q,
    const typename Traits::Storage* MPSIM_RESTRICT qt_prev,
    typename Traits::Storage* MPSIM_RESTRICT qt_next,
    std::int64_t global_row, std::int64_t q_begin, std::int64_t exclusion,
    typename Traits::Storage* MPSIM_RESTRICT profile,
    std::int64_t* MPSIM_RESTRICT index) {
  detail::fused_row_cols<Traits>(
      begin, end, i, w, m, d, qt_row_seed, qt_col_seed, nr, df_r, dg_r,
      inv_r, df_q, dg_q, inv_q, {qt_prev, w, 0}, {qt_next, w, 0}, global_row,
      q_begin, exclusion, profile, index);
}

/// QT-only pass over columns [begin, end) of one tile row: the sketch
/// prefilter's skip path (mp/sketch.hpp).  Advances the Eq. (1) diagonal
/// recurrence — the next row depends on this row's QT — but computes no
/// distances and touches no profile state.  Per element the QT arithmetic
/// (and its order) matches fused_row_body's pass 1 exactly, in both the
/// vector span (simd::qt_only_span) and the scalar tail, so the QT stream
/// of a prefiltered run is bit-identical to the exact run's: a prefilter
/// miss loses one profile update, it never perturbs later rows.
template <typename Traits>
void qt_only_row_body(
    std::int64_t begin, std::int64_t end, std::size_t i, std::size_t w,
    std::size_t d,
    const typename Traits::Storage* MPSIM_RESTRICT qt_row_seed,
    const typename Traits::Storage* MPSIM_RESTRICT qt_col_seed,
    std::size_t nr, const typename Traits::Storage* MPSIM_RESTRICT df_r,
    const typename Traits::Storage* MPSIM_RESTRICT dg_r,
    const typename Traits::Storage* MPSIM_RESTRICT df_q,
    const typename Traits::Storage* MPSIM_RESTRICT dg_q,
    const typename Traits::Storage* MPSIM_RESTRICT qt_prev,
    typename Traits::Storage* MPSIM_RESTRICT qt_next) {
  detail::qt_only_cols<Traits>(begin, end, i, w, d, qt_row_seed, qt_col_seed,
                               nr, df_r, dg_r, df_q, dg_q, {qt_prev, w, 0},
                               {qt_next, w, 0});
}

// --- Temporal-blocked fused rows ------------------------------------------
//
// The engine runs bt consecutive tile rows per parallel_for_grained
// dispatch.  Each chunk owns the columns [c0, c1) of every row of the
// batch and walks the rows in ascending order, so its profile / index
// columns see exactly the per-row merge sequence (earliest row wins on
// ties) and the chunk's working set stays cache-resident across the batch.
//
// The QT recurrence QT(r, j) <- QT(r-1, j-1) reaches one column further
// left per row, so row r of the batch needs the previous row's QT over
// [c0 - 1, c1 - 1]; a neighbouring chunk owns column c0 - 1 and computes
// it concurrently.  Instead of synchronising, each chunk recomputes the
// halo itself: before row r it runs the QT-only recurrence over the
// bt - 1 - r columns left of c0 (a triangle whose base reads the tile's
// qt_prev, which no chunk writes during the batch).  qt_only_cols writes
// exactly the QT bits fused_row_cols writes, so the halo copies equal the
// owner's.  Intermediate rows live in two chunk-local ping-pong buffers;
// only the last row writes the tile's qt_next, and only at [c0, c1).

/// Rows [i0, i0 + bt) of the tile over columns [c0, c1); bt == 1 without
/// `groups` is exactly fused_row_body.  `row_base` is the tile's first
/// global row.  `groups` (optional) holds the sketch prefilter's decisions for the
/// batch, one per kPrefilterColGroup columns, fixed for all bt rows: kSkip
/// groups run QT-only, kRun / kVerify groups run the exact pipeline.  Each
/// row walks the chunk's columns in runs of groups with equal verdicts, one
/// call per run (chunk edges may split a group).  Null runs every column
/// exactly.
template <typename Traits>
void fused_rows_blocked(
    std::int64_t c0, std::int64_t c1, std::size_t bt, std::size_t i0,
    std::size_t w, std::size_t m, std::size_t d,
    const typename Traits::Storage* qt_row_seed,
    const typename Traits::Storage* qt_col_seed, std::size_t nr,
    const typename Traits::Storage* df_r, const typename Traits::Storage* dg_r,
    const typename Traits::Storage* inv_r,
    const typename Traits::Storage* df_q, const typename Traits::Storage* dg_q,
    const typename Traits::Storage* inv_q,
    const typename Traits::Storage* qt_prev,
    typename Traits::Storage* qt_next, std::int64_t row_base,
    std::int64_t q_begin, std::int64_t exclusion,
    typename Traits::Storage* profile, std::int64_t* index,
    const PrefilterDecision* groups = nullptr) {
  using ST = typename Traits::Storage;
  using Rows = detail::QtRows<ST>;
  MPSIM_CHECK(bt >= 1, "fused_rows_blocked: empty batch");
  constexpr auto G = std::int64_t(kPrefilterColGroup);
  const auto skipped = [groups](std::int64_t j) {
    return groups[std::size_t(j / G)] == PrefilterDecision::kSkip;
  };
  const auto row = [&](std::size_t i, detail::QtRows<const ST> prev,
                       Rows next) {
    for (std::int64_t a = c0, b; a < c1; a = b) {
      const bool skip = groups != nullptr && skipped(a);
      b = groups == nullptr ? c1 : (a / G + 1) * G;
      while (b < c1 && skipped(b) == skip) b += G;
      b = std::min(b, c1);
      if (skip) {
        detail::qt_only_cols<Traits>(a, b, i, w, d, qt_row_seed, qt_col_seed,
                                     nr, df_r, dg_r, df_q, dg_q, prev, next);
      } else {
        detail::fused_row_cols<Traits>(
            a, b, i, w, m, d, qt_row_seed, qt_col_seed, nr, df_r, dg_r,
            inv_r, df_q, dg_q, inv_q, prev, next, row_base + std::int64_t(i),
            q_begin, exclusion, profile, index);
      }
    }
  };
  const Rows tile_next{qt_next, w, 0};
  detail::QtRows<const ST> prev{qt_prev, w, 0};
  if (bt == 1) {
    row(i0, prev, tile_next);
    return;
  }

  // Halo ping-pong rows over [lo, c1): row r covers [c0 - (bt-1-r), c1),
  // clipped at column 0.
  const std::int64_t lo = std::max<std::int64_t>(0, c0 - std::int64_t(bt - 1));
  const auto width = std::size_t(c1 - lo);
  static thread_local std::vector<ST> halo;
  if (halo.size() < 2 * d * width) halo.resize(2 * d * width);
  const Rows pingpong[2] = {{halo.data(), width, lo},
                            {halo.data() + d * width, width, lo}};

  for (std::size_t r = 0; r < bt; ++r) {
    const std::size_t i = i0 + r;
    const Rows next = r + 1 == bt ? tile_next : pingpong[r % 2];
    const std::int64_t hb =
        std::max<std::int64_t>(0, c0 - std::int64_t(bt - 1 - r));
    detail::qt_only_cols<Traits>(hb, c0, i, w, d, qt_row_seed, qt_col_seed,
                                 nr, df_r, dg_r, df_q, dg_q, prev, next);
    row(i, prev, next);
    prev = {next.data, next.stride, next.col0};
  }
}

// --- Diagonal-batched fused execution -------------------------------------
//
// The engine runs fused_rows_blocked above; this earlier executor is no
// longer called by it, but the repository benchmark's probe still times
// it, so it stays until the benchmark is revised.
//
// A per-row dispatch makes a tile with small nq pay the per-item dispatch
// overhead (~87 M items/s on the simulated device) once per row — the
// dominant cost when nq is a few hundred columns.  The batched executor
// processes BT consecutive tile rows per dispatch round instead,
// restructured around the QT dependency
// QT(r, j) -> QT(r-1, j-1): diagonals j - r = const form independent
// dependency chains, so a work item becomes one diagonal of the BT-row
// parallelogram and a chunk of consecutive diagonals is a band that one
// worker sweeps row-major (each row's leftmost cell depends on the
// previous row's leftmost cell, which the same worker just computed).
//
// Phase A computes, per band: the QT recurrence (in a thread-local band
// buffer whose slot s = j - jb_raw(r) is overwritten in place — slot s of
// row r-1 holds exactly QT(r-1, j-1)), the distances, and the row-wise
// sort/scan into a per-batch scan buffer.  The last row's QT goes straight
// to the tile's qt_next buffer (one swap per BATCH instead of per row).
// Phase B merges the BT scanned rows into the profile, parallel over
// COLUMNS, rows in ascending order — preserving update_body's
// earliest-row-wins tie rule exactly.  Per element and per operation both
// phases replay the unbatched fused pipeline's arithmetic, so the output
// is bit-identical for every mode and dispatch level.

/// Phase A over diagonals [vbegin, vend) of a BT-row batch starting at
/// tile row i0.  Diagonal v covers cells (r, j = v - (bt-1) + r); the
/// scan buffer holds next_pow2(d) rows of w columns per batch row.
template <typename Traits>
void batched_rows_phase_a(
    std::int64_t vbegin, std::int64_t vend, std::size_t bt, std::size_t i0,
    std::size_t w, std::size_t m, std::size_t d,
    const typename Traits::Storage* MPSIM_RESTRICT qt_row_seed,
    const typename Traits::Storage* MPSIM_RESTRICT qt_col_seed,
    std::size_t nr, const typename Traits::Storage* MPSIM_RESTRICT df_r,
    const typename Traits::Storage* MPSIM_RESTRICT dg_r,
    const typename Traits::Storage* MPSIM_RESTRICT inv_r,
    const typename Traits::Storage* MPSIM_RESTRICT df_q,
    const typename Traits::Storage* MPSIM_RESTRICT dg_q,
    const typename Traits::Storage* MPSIM_RESTRICT inv_q,
    const typename Traits::Storage* MPSIM_RESTRICT qt_prev,
    typename Traits::Storage* MPSIM_RESTRICT qt_next,
    typename Traits::Storage* batch_scan) {
  using CT = typename Traits::Compute;
  using ST = typename Traits::Storage;
  MPSIM_CHECK(bt >= 2 && d >= 1 && d <= kMaxFusedRowDims,
              "batched_rows_phase_a: bad batch shape");

  const CT two_m = CT(double(2 * m));
  const std::size_t p2 = next_pow2(d);
  const ST inf = std::numeric_limits<ST>::infinity();
  const std::size_t width = std::size_t(vend - vbegin);

  // Band buffer: QT values of the previous batch row along this band,
  // slot s = j - jb_raw(r).  jb_raw shifts by one per row, so slot s of
  // row r-1 holds QT(r-1, j-1) and each row updates it in place.
  static thread_local std::vector<ST> band_store;
  if (band_store.size() < d * width) band_store.resize(d * width);
  ST* const band = band_store.data();

  for (std::size_t r = 0; r < bt; ++r) {
    const std::int64_t jb_raw =
        vbegin - std::int64_t(bt - 1) + std::int64_t(r);
    const std::int64_t jb = std::max<std::int64_t>(0, jb_raw);
    const std::int64_t je = std::min<std::int64_t>(
        std::int64_t(w), vend - std::int64_t(bt - 1) + std::int64_t(r));
    if (jb >= je) continue;
    const std::size_t i = i0 + r;
    const bool last = r + 1 == bt;
    ST* const scan_base = batch_scan + r * p2 * w;

    for (std::size_t k = 0; k < d; ++k) {
      ST* const brow = band + k * width;
      ST* const drow = scan_base + k * w;
      const std::size_t xbase = k * w;
      const std::size_t row = k * nr + i;
      const CT inv_ri = CT(inv_r[row]);

      if (i == 0) {
        // First tile row overall: QT straight from the row seeds.
        ST* const qdst =
            last ? qt_next + xbase + std::size_t(jb) : brow + (jb - jb_raw);
        for (std::int64_t j = jb; j < je; ++j) {
          const std::size_t x = xbase + std::size_t(j);
          const CT qt = CT(qt_row_seed[x]);
          qdst[j - jb] = ST(qt);
          drow[j] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
        }
        continue;
      }

      const CT df_ri = CT(df_r[row]);
      const CT dg_ri = CT(dg_r[row]);
      std::int64_t j = jb;
      if (j == 0) {
        // Column 0: QT from the column seeds.  The band slot it lands in
        // (-jb_raw) held row r-1's value at column -1 — stale, safe to
        // overwrite.
        const CT qt = CT(qt_col_seed[row]);
        (last ? qt_next[xbase] : brow[-jb_raw]) = ST(qt);
        drow[0] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[xbase]), two_m));
        ++j;
      }
      if (j >= je) continue;
      // Recurrence span [j, je): the previous row's QT at column j-1 sits
      // in the band at this row's slot for column j (or in qt_prev for
      // r == 0); outputs go back to the same slots (in place) — or to the
      // tile's next-QT buffer for the last batch row.
      const ST* const prev_span =
          r == 0 ? qt_prev + xbase + std::size_t(j) - 1
                 : brow + (j - jb_raw);
      ST* const next_span =
          last ? qt_next + xbase + std::size_t(j) : brow + (j - jb_raw);
      const std::int64_t n = je - j;
      std::int64_t t = 0;
      if constexpr (std::is_same_v<CT, ST>) {
        t = simd::dist_calc_span<CT>(n, df_ri, dg_ri, inv_ri, two_m,
                                     prev_span, df_q + xbase + j,
                                     dg_q + xbase + j, inv_q + xbase + j,
                                     next_span, drow + j);
      }
      for (; t < n; ++t) {
        const std::size_t x = xbase + std::size_t(j + t);
        const CT qt = CT(prev_span[t]) + df_ri * CT(dg_q[x]) +
                      dg_ri * CT(df_q[x]);
        next_span[t] = ST(qt);
        drow[j + t] = ST(qt_to_distance(qt, inv_ri, CT(inv_q[x]), two_m));
      }
    }

    // Row-wise sort + scan-average over this band's columns (elided for
    // d == 1, matching the engine's skip_sort kernel elision).  Columns
    // are independent, so the per-band grouping leaves results identical
    // to the unbatched block sweep.
    if (d >= 2) {
      for (std::size_t k = d; k < p2; ++k) {
        ST* const pad = scan_base + k * w;
        for (std::int64_t j = jb; j < je; ++j) pad[j] = inf;
      }
      sort_scan_block(scan_base + jb, w, std::size_t(je - jb), d);
    }
  }
}

/// Phase B: merge the BT scanned batch rows into the profile over columns
/// [c0, c1).  Chunks partition the columns, so profile/index writes are
/// disjoint; rows merge in ascending order, preserving the strict-<
/// earliest-row-wins tie rule of the sequential per-row merges.
template <typename Traits>
void batched_rows_merge(std::int64_t c0, std::int64_t c1, std::size_t bt,
                        std::size_t i0, std::size_t w, std::size_t d,
                        std::int64_t row_base, std::int64_t q_begin,
                        std::int64_t exclusion,
                        const typename Traits::Storage* batch_scan,
                        typename Traits::Storage* MPSIM_RESTRICT profile,
                        std::int64_t* MPSIM_RESTRICT index) {
  using ST = typename Traits::Storage;
  const std::size_t p2 = next_pow2(d);
  for (std::size_t r = 0; r < bt; ++r) {
    const std::int64_t global_row = row_base + std::int64_t(i0 + r);
    std::int64_t exb = c1, exe = c1;
    if (exclusion > 0) {
      const std::int64_t g = global_row - q_begin;
      exb = std::clamp(g - exclusion + 1, c0, c1);
      exe = std::clamp(g + exclusion, c0, c1);
    }
    const ST* const scan_base = batch_scan + r * p2 * w;
    for (std::size_t k = 0; k < d; ++k) {
      const ST* const src = scan_base + k * w;
      ST* const prow = profile + k * w;
      std::int64_t* const irow = index + k * w;
      const auto merge = [&](std::int64_t from, std::int64_t to) {
        std::int64_t j = from;
        if (to > from) {
          j += simd::merge_rows(src + from, prow + from, irow + from,
                                to - from, global_row);
        }
        for (; j < to; ++j) {
          const bool better = src[j] < prow[j];
          prow[j] = better ? src[j] : prow[j];
          irow[j] = better ? global_row : irow[j];
        }
      };
      merge(c0, exb);
      merge(exe, c1);
    }
  }
}

// --- Roofline cost descriptors --------------------------------------------

/// Device-wide cooperative barrier rounds one sort_&_incl_scan launch
/// performs: 1 after the gather, one per Bitonic stage (O(log^2 d)), two
/// per fan-in scan step (O(log d)).  The cooperative launch measures this
/// from the group bodies; the analytic performance model (mp/model.hpp)
/// uses this closed form — a test pins them equal.
inline std::int64_t sort_scan_barrier_rounds(std::size_t d) {
  const std::size_t p2 = next_pow2(d);
  return 1 + bitonic_stage_count(p2) + 2 * scan_step_count(d);
}

template <typename Traits>
gpusim::KernelCost dist_calc_cost(std::size_t w, std::size_t d) {
  // Logical storage width on hardware (the emulated soft-float types can
  // occupy wider host words than the format they model).
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const auto wd = std::int64_t(w * d);
  gpusim::KernelCost c;
  // DRAM traffic: the previous QT row misses L2 once per iteration; the
  // df/dg/inv streams and the freshly written QT/D rows are L2-resident
  // for the back-to-back consumers (the paper measures >80% DRAM and
  // ~70% L2 throughput for this kernel).
  c.bytes_read = es * wd;
  c.bytes_written = es * wd / 2;
  c.flops = wd * 7;  // 4 FLOPs update + correlation + sqrt
  c.flop_width_bytes = storage_bytes(Traits::kMode);
  return c;
}

template <typename Traits>
gpusim::KernelCost sort_scan_cost(std::size_t w, std::size_t d) {
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const auto wd = std::int64_t(w * d);
  const std::size_t p2 = next_pow2(d);
  gpusim::KernelCost c;
  // The distance row arrives L2-hot from dist_calc; sorting itself runs in
  // shared memory (the paper: >80% L1/TEX throughput, DRAM minor).
  c.bytes_read = es * wd / 2;
  c.bytes_written = es * wd / 2;
  const std::int64_t per_column =
      std::int64_t(p2 / 2) * bitonic_stage_count(p2) * 2 +  // compare-exchange
      2 * std::int64_t(d) * scan_step_count(d) + std::int64_t(d);  // scan+div
  c.flops = std::int64_t(w) * per_column;
  c.flop_width_bytes = storage_bytes(Traits::kMode);
  return c;
}

template <typename Traits>
gpusim::KernelCost update_cost(std::size_t w, std::size_t d) {
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const auto wd = std::int64_t(w * d);
  gpusim::KernelCost c;
  c.bytes_read = es * wd;          // current profile row (scan row is L2-hot)
  c.bytes_written = es * wd / 2;   // profile/index updates (amortised)
  c.flops = wd;
  c.flop_width_bytes = storage_bytes(Traits::kMode);
  return c;
}

namespace detail {

/// Arithmetic width of the precalculation launches (the Mixed/FP16C modes
/// lift PrecalcCompute above the storage format).
template <typename Traits>
std::size_t precalc_flop_width() {
  using PC = typename Traits::PrecalcCompute;
  if (std::is_same_v<PC, double>) return 8;
  if (std::is_same_v<PC, float>) return 4;
  return storage_bytes(Traits::kMode);
}

}  // namespace detail

/// Tensor-core input format of the blocked-GEMM QT-seed pass (mp/gemm.hpp)
/// for a precision mode.  The binary16 family feeds FP16 tensor cores,
/// the truncated formats feed their own A100 paths, FP64 maps to DMMA;
/// plain FP32 has no tensor path on any modelled generation, so it stays
/// on the regular FMA pipeline.
inline gpusim::TensorFormat gemm_tensor_format(PrecisionMode mode) {
  switch (mode) {
    case PrecisionMode::FP16:
    case PrecisionMode::Mixed:
    case PrecisionMode::FP16C:
      return gpusim::TensorFormat::kFp16;
    case PrecisionMode::BF16:
      return gpusim::TensorFormat::kBf16;
    case PrecisionMode::TF32:
      return gpusim::TensorFormat::kTf32;
    case PrecisionMode::FP64:
      return gpusim::TensorFormat::kFp64;
    case PrecisionMode::FP32:
      break;
  }
  return gpusim::TensorFormat::kNone;
}

/// First precalculation launch: cumulative sums and the per-segment
/// mu/inv/df/dg statistics for both series.
template <typename Traits>
gpusim::KernelCost precalc_stats_cost(std::size_t nr, std::size_t nq,
                                      std::size_t d, std::size_t m) {
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const auto rows = std::int64_t((nr + nq) * d);
  gpusim::KernelCost c;
  c.bytes_read = es * std::int64_t((nr + nq + 2 * m - 2) * d);  // input tiles
  c.bytes_written = es * rows * 4;  // mu/inv/df/dg for both series
  c.flops = rows * 12;  // cumulative sums + per-segment statistics
  c.flop_width_bytes = detail::precalc_flop_width<Traits>();
  return c;
}

/// Second precalculation launch: the first-row/first-column QT seeds,
/// computed as a blocked GEMM (mp/gemm.hpp).  Register blocking reuses
/// the fixed window across a panel of output columns, so DRAM traffic is
/// one stream of each input tile; the matmul-structured inner loop makes
/// the launch tensor-core eligible on machines with a path for the mode's
/// format (spec.hpp TensorFormat).
template <typename Traits>
gpusim::KernelCost gemm_seed_cost(std::size_t nr, std::size_t nq,
                                  std::size_t d, std::size_t m) {
  const auto es = std::int64_t(storage_bytes(Traits::kMode));
  const auto rows = std::int64_t((nr + nq) * d);
  gpusim::KernelCost c;
  c.bytes_read = es * std::int64_t((nr + nq + 2 * m - 2) * d);  // both tiles
  c.bytes_written = es * rows;  // seed row + seed column
  c.flops = std::int64_t((nr + nq) * d * m) * 3;  // sub+mul+add per element
  c.flop_width_bytes = detail::precalc_flop_width<Traits>();
  c.tensor_format = gemm_tensor_format(Traits::kMode);
  return c;
}

/// Aggregate cost of both precalculation launches, for consumers that
/// model the step as one unit (cpu_reference; tensor eligibility is a
/// per-launch property, so the aggregate stays on the regular pipeline).
template <typename Traits>
gpusim::KernelCost precalc_cost(std::size_t nr, std::size_t nq, std::size_t d,
                                std::size_t m) {
  const auto stats = precalc_stats_cost<Traits>(nr, nq, d, m);
  const auto seeds = gemm_seed_cost<Traits>(nr, nq, d, m);
  gpusim::KernelCost c;
  c.bytes_read = stats.bytes_read + seeds.bytes_read;
  c.bytes_written = stats.bytes_written + seeds.bytes_written;
  c.flops = stats.flops + seeds.flops;
  c.flop_width_bytes = stats.flop_width_bytes;
  return c;
}

}  // namespace mpsim::mp
