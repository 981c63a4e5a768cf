// FP16 random-projection sketch prefilter (PrefilterMode::kSketch).
//
// Idea (randomized sketching survives low-precision rounding — see
// PAPERS.md): project every z-normalised segment onto kSketchComponents
// shared Rademacher sign vectors.  For unit-norm windows the component
// products estimate the Pearson correlation,
//
//   corr(i, j) ~= (1/P) * sum_p s_i[p] * s_j[p],
//
// so a cheap per-column score can say "no profile update is possible
// here" before the exact pipeline runs.  The estimate is noisy (its
// variance shrinks only as 1/P) — the prefilter is therefore a STATISTICAL
// gate, not a proof: a guard band `eps` derived from the configured miss
// budget absorbs sketch variance plus the FP16 rounding of the stored
// sketches, and a deterministic sample of skippable blocks is executed
// exactly anyway (verify blocks) so the realized miss rate is measured,
// reported and testable (metrics/accuracy.hpp, prefilter.* counters).
//
// Decision geometry: rows are scored in batches of kPrefilterRowBatch
// consecutive rows and columns in groups of kPrefilterColGroup.
// Consecutive segments overlap by m-1 samples, so sketches (like the
// true correlations) move slowly along both axes — which makes
// per-component interval bounds tight: the column groups' component
// min/max boxes are computed once at build time, the row batch's box
// once per batch, and one (batch, group) block is scored with a single
// interval-product bound
//
//   ub = (1/P) * sum_p max(rlo*clo, rlo*chi, rhi*clo, rhi*chi)[p]
//
// per dimension.  The block is skipped when max_k ub_k + eps stays below
// the block's weakest threshold
//
//   tau(j) = 1 - Pmax(j)^2 / (2m),   Pmax(j) = max_k profile[k][j],
//
// the correlation a new match must exceed to beat the current profile
// entry (dist = sqrt(2m(1 - corr))).  The profile only improves during
// the run, so scoring against a stale profile is conservative.  One
// noisy comparison gates the whole block — an AND of per-column
// comparisons would make skips statistically impossible at this sketch
// width (sigma ~ sqrt(2/P) = 0.25 per column).
//
// Skipped blocks still advance the QT recurrence (qt_only_row_body /
// simd::qt_only_span) with bit-identical arithmetic, so misses only ever
// cost the skipped profile entries — they never contaminate later rows.
//
// Determinism: the Rademacher signs are seeded from run-level parameters
// only (window, component count, budget), never from tile geometry or
// device, so retries, sub-tile splits and checkpoint resume replay the
// exact same decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mp/options.hpp"

namespace mpsim::mp {

/// Random-projection components per segment.  More components tighten the
/// correlation estimate (variance ~ 1/P) but scale sketch build and score
/// cost linearly.  32 puts the noise floor at sqrt(2/32) = 0.25, low
/// enough that converged profile thresholds (tau ~ 0.9) clear the guard
/// band for most uncorrelated blocks.
inline constexpr std::size_t kSketchComponents = 32;

/// The Rademacher signs are piecewise-constant over chunks of this many
/// samples, which turns each projection into sketch_chunks(m) prefix-sum
/// differences instead of m multiply-adds — the whole tile's sketches
/// build in O(n * P * m / kSketchChunk).  Chunking low-passes the
/// projection (it aggregates the window at chunk granularity), which
/// costs nothing on the smooth, slowly-decorrelating series the interval
/// bound is tight for anyway (see the geometry note above).
inline constexpr std::size_t kSketchChunk = 32;

/// Number of sign chunks covering a window of length m (the last chunk
/// may be shorter).
inline constexpr std::size_t sketch_chunks(std::size_t m) {
  return (m + kSketchChunk - 1) / kSketchChunk;
}

/// Consecutive tile rows sharing one scoring pass.  Amortises the
/// per-column score to kSketchComponents / kPrefilterRowBatch ops per
/// (row, column) pair.
inline constexpr std::size_t kPrefilterRowBatch = 16;

/// Columns per decision block.  The block threshold is its WEAKEST
/// column's tau, so wider groups skip strictly less often; 32 keeps the
/// skip/run boundary SIMD-friendly while containing that penalty.
inline constexpr std::size_t kPrefilterColGroup = 32;

/// Every kVerifyStride-th skippable block is executed exactly instead
/// (Decision kVerify) to sample the realized miss rate.
inline constexpr std::size_t kPrefilterVerifyStride = 32;

/// Seed for the shared Rademacher sign matrix, derived from run-level
/// configuration only (see determinism note above).
std::uint64_t sketch_seed(std::size_t window, std::size_t components,
                          double budget);

/// components * chunks Rademacher signs (+1.0f / -1.0f), row-major by
/// component, from a splitmix64 stream of `seed`.  One sign covers
/// kSketchChunk consecutive window samples.
std::vector<float> rademacher_signs(std::size_t chunks,
                                    std::size_t components,
                                    std::uint64_t seed);

/// Rounds through IEEE binary16 and back: the stored sketch precision.
/// (Sketches live in float words but carry only FP16 information — the
/// same wider-host-word convention the simulator uses for emulated
/// storage formats.)
float sketch_fp16_round(float v);

/// Sketches every length-m segment of `x` (nseg = len - m + 1 of them):
/// out[j * components + p] = fp16_round(inv[j] * sum_t g_p[t] *
/// (x[j + t] - mu[j])) with g_p the chunked sign pattern.  One shared
/// prefix-sum array turns each (segment, component) into
/// sketch_chunks(m) adds.
void sketch_series(const float* x, std::size_t len, std::size_t nseg,
                   std::size_t m, const float* mu, const float* inv,
                   const float* signs, std::size_t components, float* out);

/// Per-block verdict of one (row batch, column group) cell.
enum class PrefilterDecision : std::uint8_t {
  kRun = 0,     ///< exact pipeline (score can't rule an update out)
  kSkip = 1,    ///< QT-only recurrence, no profile work
  kVerify = 2,  ///< skippable, but executed exactly to measure misses
};

/// Per-tile driver: builds the segment sketches once after precalc, then
/// scores each row batch and hands the fused row loop a per-group
/// decision vector.  All methods run on the tile's stream thread; the
/// decision vector is read-only during each row batch's dispatch (the
/// engine ends its temporal-blocked batches at score-batch ends).
class TilePrefilter {
 public:
  TilePrefilter(const PrefilterConfig& config, std::size_t m, std::size_t d,
                std::size_t nr, std::size_t nq);

  bool enabled() const { return enabled_; }
  std::size_t batch_rows() const { return kPrefilterRowBatch; }
  const PrefilterStats& stats() const { return stats_; }

  /// Builds the FP16 sketches of every reference-row and query-column
  /// segment from the staged storage-precision tile + the precalc
  /// mu/inv outputs.  Widening ST -> float goes through the mode's
  /// compute type, the same conversion the kernels use.
  template <typename Traits>
  void build(const typename Traits::Storage* host_r, std::size_t len_r,
             const typename Traits::Storage* mu_r,
             const typename Traits::Storage* inv_r,
             const typename Traits::Storage* host_q, std::size_t len_q,
             const typename Traits::Storage* mu_q,
             const typename Traits::Storage* inv_q) {
    using CT = typename Traits::Compute;
    std::vector<float> series(std::max(len_r, len_q));
    std::vector<float> mu(std::max(nr_, nq_)), inv(std::max(nr_, nq_));
    const auto one_side = [&](const typename Traits::Storage* x,
                              std::size_t len,
                              const typename Traits::Storage* mu_st,
                              const typename Traits::Storage* inv_st,
                              std::size_t nseg, float* out) {
      for (std::size_t t = 0; t < len; ++t) series[t] = float(CT(x[t]));
      for (std::size_t s = 0; s < nseg; ++s) {
        mu[s] = float(CT(mu_st[s]));
        inv[s] = float(CT(inv_st[s]));
      }
      sketch_series(series.data(), len, nseg, m_, mu.data(), inv.data(),
                    signs_.data(), kSketchComponents, out);
    };
    for (std::size_t k = 0; k < d_; ++k) {
      one_side(host_r + k * len_r, len_r, mu_r + k * nr_, inv_r + k * nr_,
               nr_, row_sketch_.data() + k * nr_ * kSketchComponents);
      one_side(host_q + k * len_q, len_q, mu_q + k * nq_, inv_q + k * nq_,
               nq_, col_sketch_.data() + k * nq_ * kSketchComponents);
    }
    build_column_boxes();
  }

  /// Refreshes the per-column skip thresholds from the current (stale —
  /// and therefore conservative) profile, then scores row batch
  /// [i0, i0 + rows) and fills the decision vector.
  template <typename Traits>
  void score_batch(const typename Traits::Storage* profile, std::size_t i0,
                   std::size_t rows) {
    using CT = typename Traits::Compute;
    for (std::size_t j = 0; j < nq_; ++j) {
      float pmax = 0.0f;
      for (std::size_t k = 0; k < d_; ++k) {
        const float p = float(CT(profile[k * nq_ + j]));
        pmax = p > pmax || !(p == p) ? p : pmax;  // NaN/inf -> not finite
      }
      // Unset (infinite) entries make the column unskippable: tau = -inf.
      pmax_scratch_[j] =
          pmax <= std::numeric_limits<float>::max() ? pmax : -1.0f;
    }
    score_batch_scored(i0, rows);
  }

  /// The current batch's decisions, one per kPrefilterColGroup columns
  /// (fused_rows_blocked runs kSkip groups QT-only).
  const PrefilterDecision* decisions() const { return decisions_.data(); }

  /// Invokes fn(group_begin, group_end, decision) for every decision
  /// group intersecting column range [begin, end) of the current batch.
  /// The engine reads decisions() instead; the repository benchmark's
  /// probe still loops over this until the benchmark is revised.
  template <typename Fn>
  void for_groups(std::size_t begin, std::size_t end, Fn&& fn) const {
    std::size_t j = begin;
    while (j < end) {
      const std::size_t g = j / kPrefilterColGroup;
      const std::size_t ge = std::min(end, (g + 1) * kPrefilterColGroup);
      fn(j, ge, decisions_[g]);
      j = ge;
    }
  }

  /// Post-batch miss sampling: a verify-block column counts as missed if
  /// any dimension's profile index now points into the batch's global row
  /// range [row_lo, row_hi] — the exactly-executed rows updated an entry
  /// the sketch had declared update-free.
  void note_batch_end(const std::int64_t* index, std::int64_t row_lo,
                      std::int64_t row_hi);

 private:
  void build_column_boxes();
  void score_batch_scored(std::size_t i0, std::size_t rows);

  bool enabled_ = false;
  std::size_t m_ = 0, d_ = 0, nr_ = 0, nq_ = 0;
  std::size_t groups_ = 0;
  float eps_ = 0.0f;  ///< guard band from the miss budget
  std::vector<float> signs_;        // [p * m + t]
  std::vector<float> row_sketch_;   // [(k * nr + i) * P + p]
  std::vector<float> col_sketch_;   // [(k * nq + j) * P + p]
  std::vector<float> col_lo_;       // [(g * d + k) * P + p], static boxes
  std::vector<float> col_hi_;       // [(g * d + k) * P + p]
  std::vector<float> pmax_scratch_;  // [j], <0 == unskippable
  std::vector<PrefilterDecision> decisions_;  // [group]
  std::size_t verify_counter_ = 0;
  PrefilterStats stats_;
};

}  // namespace mpsim::mp
