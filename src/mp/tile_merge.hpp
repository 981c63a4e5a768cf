// CPU-side merge of per-tile results (Pseudocode 2, lines 6-8) and the one
// min/argmin fold behind it, which the scheduler's row-prefix fold and
// memory-pressure sub-tile merge reuse.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"
#include "mp/options.hpp"
#include "mp/simd/span.hpp"
#include "mp/single_tile.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

/// The one min/argmin fold of (src_p, src_i) into (dst_p, dst_i) over n
/// entries: smaller distance wins; on equal distance the smaller
/// non-negative index wins; NaN on either side keeps the destination (the
/// strict compares are false).  The rule is a lexicographic min, hence
/// associative, so folding row sub-tiles, a journalled row prefix or whole
/// tiles in any grouping yields the same bits.  The vector span implements
/// the identical rule; the scalar loop finishes the tail.
inline void merge_min_span(const double* src_p, const std::int64_t* src_i,
                           double* dst_p, std::int64_t* dst_i,
                           std::size_t n) {
  const auto count = std::int64_t(n);
  for (std::int64_t c = simd::merge_tile_span(src_p, src_i, dst_p, dst_i,
                                              count);
       c < count; ++c) {
    const double p = src_p[c];
    const std::int64_t idx = src_i[c];
    if (p < dst_p[c] ||
        (p == dst_p[c] && idx >= 0 && (dst_i[c] < 0 || idx < dst_i[c]))) {
      dst_p[c] = p;
      dst_i[c] = idx;
    }
  }
}

/// merge_min_span over whole equal-length profile/index vectors.
inline void merge_min_into(std::vector<double>& dst_profile,
                           std::vector<std::int64_t>& dst_index,
                           const std::vector<double>& src_profile,
                           const std::vector<std::int64_t>& src_index) {
  merge_min_span(src_profile.data(), src_index.data(), dst_profile.data(),
                 dst_index.data(), dst_profile.size());
}

/// Column-wise min/argmin merge of `results[t]` (one per tile) into the
/// full profile.  Smaller distance wins; equal distances prefer the
/// earlier reference segment — the same tie rule the kernels use, so
/// multi-tile FP64 matches single-tile FP64.  Non-finite tile values
/// (NaN after an FP16 overflow or injected corruption) never displace a
/// finite entry: the strict `<` comparison is false for NaN.
///
/// When `pool` is non-null the merge parallelises over disjoint output
/// column ranges.  Each output column still sees the tiles in ascending
/// tile order, so the result is bit-identical to the serial merge.
inline void merge_tile_results(const std::vector<Tile>& tiles,
                               const std::vector<TileResult>& results,
                               std::size_t n_q, std::size_t d,
                               MatrixProfileResult& out,
                               ThreadPool* pool) {
  out.segments = n_q;
  out.dims = d;
  out.profile.assign(n_q * d, std::numeric_limits<double>::infinity());
  out.index.assign(n_q * d, -1);
  auto merge_columns = [&](std::size_t col_begin, std::size_t col_end) {
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const Tile& tile = tiles[t];
      const TileResult& r = results[t];
      const std::size_t jb = std::max(col_begin, tile.q_begin);
      const std::size_t je = std::min(col_end, tile.q_begin + tile.q_count);
      if (jb >= je) continue;
      for (std::size_t k = 0; k < d; ++k) {
        // Both sides are column-contiguous over [jb, je).
        const std::size_t j0 = jb - tile.q_begin;
        const double* const src_p = r.profile.data() + k * tile.q_count + j0;
        const std::int64_t* const src_i =
            r.index.data() + k * tile.q_count + j0;
        double* const dst_p = out.profile.data() + k * n_q + jb;
        std::int64_t* const dst_i = out.index.data() + k * n_q + jb;
        merge_min_span(src_p, src_i, dst_p, dst_i, je - jb);
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_q, merge_columns);
  } else {
    merge_columns(0, n_q);
  }
}

/// Serial merge (the default for tests and small runs).
inline void merge_tile_results(const std::vector<Tile>& tiles,
                               const std::vector<TileResult>& results,
                               std::size_t n_q, std::size_t d,
                               MatrixProfileResult& out) {
  merge_tile_results(tiles, results, n_q, d, out, nullptr);
}

/// Fraction of non-finite (NaN or ±inf) entries in a tile profile — the
/// trigger of the resilient scheduler's precision escalation.
inline double non_finite_fraction(const std::vector<double>& profile) {
  if (profile.empty()) return 0.0;
  std::size_t bad = 0;
  for (const double p : profile) {
    if (!std::isfinite(p)) ++bad;
  }
  return double(bad) / double(profile.size());
}

}  // namespace mpsim::mp
