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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
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

/// Prefix sums of x in double (len adds of similar magnitude, no
/// cancellation surprises): prefix[0] = 0, prefix[t + 1] = prefix[t] +
/// x[t].  `prefix` holds len + 1 entries.
void sketch_prefix(const float* x, std::size_t len, double* prefix);

/// Range form of sketch_series over segments [s0, s1), from the series'
/// prefix sums (sketch_prefix): writes out[j * components + p] for those
/// segments only.  Every segment reads only prefix[j, j + m], mu[j] and
/// inv[j], so disjoint ranges may run concurrently and any partition of
/// [0, nseg) writes the same bytes as one call.
void sketch_series_range(const double* prefix, std::size_t s0,
                         std::size_t s1, std::size_t m, const float* mu,
                         const float* inv, const float* signs,
                         std::size_t components, float* out);

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
/// decision vector.
///
/// Both passes split into a serial part and a part that runs on disjoint
/// ranges concurrently, so the engine can fold them into launches it
/// already makes:
///   - build = prepare (serial) -> sketch_rows / sketch_cols over any
///     partition of the rows and columns (the GEMM-seed launch's chunks)
///     -> finish_build (serial);
///   - score = set_row_box (serial) -> flag_cols over a partition into
///     whole column groups (the chunks of the dispatch that ends the
///     previous score batch, each after its own rows) -> commit_verdicts
///     (serial, scan order: the verify counter and every stats field).
/// build() and score_batch() chain the pieces serially; they are the
/// reference the split paths are tested against.  The decision vector is
/// read-only during each row batch's dispatch (the engine ends its
/// temporal-blocked batches at score-batch ends); flag_cols writes a
/// separate flag vector, which only commit_verdicts turns into decisions.
class TilePrefilter {
 public:
  TilePrefilter(const PrefilterConfig& config, std::size_t m, std::size_t d,
                std::size_t nr, std::size_t nq);

  bool enabled() const { return enabled_; }
  std::size_t batch_rows() const { return kPrefilterRowBatch; }
  const PrefilterStats& stats() const { return stats_; }

  /// Builds the FP16 sketches of every reference-row and query-column
  /// segment from the staged storage-precision tile + the precalc
  /// mu/inv outputs, serially.
  template <typename Traits>
  void build(const typename Traits::Storage* host_r, std::size_t len_r,
             const typename Traits::Storage* mu_r,
             const typename Traits::Storage* inv_r,
             const typename Traits::Storage* host_q, std::size_t len_q,
             const typename Traits::Storage* mu_q,
             const typename Traits::Storage* inv_q) {
    prepare<Traits>(host_r, len_r, mu_r, inv_r, host_q, len_q, mu_q, inv_q);
    sketch_rows(0, nr_);
    sketch_cols(0, nq_);
    finish_build();
  }

  /// Build, serial first step (O(len * d)): widens the staged series and
  /// mu/inv to float and builds the per-dimension prefix sums.  Widening
  /// ST -> float goes through the mode's compute type, the same
  /// conversion the kernels use.
  template <typename Traits>
  void prepare(const typename Traits::Storage* host_r, std::size_t len_r,
               const typename Traits::Storage* mu_r,
               const typename Traits::Storage* inv_r,
               const typename Traits::Storage* host_q, std::size_t len_q,
               const typename Traits::Storage* mu_q,
               const typename Traits::Storage* inv_q) {
    rows_.template widen<Traits>(host_r, len_r, mu_r, inv_r, nr_, d_);
    cols_.template widen<Traits>(host_q, len_q, mu_q, inv_q, nq_, d_);
  }

  /// Build, concurrent step: sketches reference rows [i0, i1) / query
  /// columns [j0, j1) in every dimension.  Needs prepare; disjoint ranges
  /// may run concurrently.
  void sketch_rows(std::size_t i0, std::size_t i1);
  void sketch_cols(std::size_t j0, std::size_t j1);

  /// Build, serial last step: the static column-group boxes.  Releases
  /// prepare's widened inputs.
  void finish_build();

  /// Refreshes the per-column skip thresholds from the current (stale —
  /// and therefore conservative) profile, then scores row batch
  /// [i0, i0 + rows) and fills the decision vector.
  template <typename Traits>
  void score_batch(const typename Traits::Storage* profile, std::size_t i0,
                   std::size_t rows) {
    set_row_box(i0, rows);
    flag_cols<Traits>(profile, 0, nq_);
    commit_verdicts();
  }

  /// Score, serial first step: the per-component box of row batch
  /// [i0, i0 + rows)'s sketches, per dimension.
  void set_row_box(std::size_t i0, std::size_t rows);

  /// Score, concurrent step: flags each column group inside [c0, c1) as
  /// skippable or not against the current row box.  c0 must start a
  /// group and c1 must end one (or be the tile width), so each group's
  /// weakest column is read by exactly one caller; the caller must own
  /// the profile columns [c0, c1) (no concurrent writer).
  template <typename Traits>
  void flag_cols(const typename Traits::Storage* profile, std::size_t c0,
                 std::size_t c1) {
    using CT = typename Traits::Compute;
    constexpr std::size_t G = kPrefilterColGroup;
    MPSIM_CHECK(c0 % G == 0 && (c1 % G == 0 || c1 == nq_) && c1 <= nq_,
                "flag_cols: [" << c0 << ", " << c1
                               << ") does not cover whole column groups");
    for (std::size_t g = c0 / G; g * G < c1; ++g) {
      const std::size_t jb = g * G;
      const std::size_t je = std::min(jb + G, nq_);
      // Weakest column: the largest profile distance has the LOWEST tau.
      // An unset (infinite) or NaN entry in any dimension makes its column
      // — and so the group — unskippable.
      float pmax_weakest = 0.0f;
      bool skippable = true;
      for (std::size_t j = jb; j < je; ++j) {
        float pmax = 0.0f;
        for (std::size_t k = 0; k < d_; ++k) {
          const float p = float(CT(profile[k * nq_ + j]));
          pmax = p > pmax || !(p == p) ? p : pmax;  // NaN/inf -> not finite
        }
        skippable =
            skippable && pmax <= std::numeric_limits<float>::max();
        pmax_weakest = std::max(pmax_weakest, pmax);
      }
      flags_[g] = skippable && group_clears(g, pmax_weakest);
    }
  }

  /// Score, serial last step: turns the flags into the decision vector in
  /// scan order (every kPrefilterVerifyStride-th skippable block becomes
  /// kVerify) and tallies the stats.
  void commit_verdicts();

  /// The built sketches, [(k * nr + i) * P + p] and [(k * nq + j) * P + p].
  const std::vector<float>& row_sketches() const { return row_sketch_; }
  const std::vector<float>& col_sketches() const { return col_sketch_; }

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
  /// One side's prepared build inputs: per-dimension prefix sums of the
  /// widened series and the widened mu/inv.
  struct Widened {
    std::size_t len = 0;
    std::vector<double> prefix;  // [k * (len + 1) + t]
    std::vector<float> mu, inv;  // [k * nseg + s]

    template <typename Traits>
    void widen(const typename Traits::Storage* x, std::size_t n,
               const typename Traits::Storage* mu_st,
               const typename Traits::Storage* inv_st, std::size_t nseg,
               std::size_t d) {
      using CT = typename Traits::Compute;
      len = n;
      prefix.resize(d * (len + 1));
      mu.resize(d * nseg);
      inv.resize(d * nseg);
      std::vector<float> series(len);
      for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t t = 0; t < len; ++t) {
          series[t] = float(CT(x[k * len + t]));
        }
        sketch_prefix(series.data(), len, prefix.data() + k * (len + 1));
      }
      for (std::size_t e = 0; e < d * nseg; ++e) {
        mu[e] = float(CT(mu_st[e]));
        inv[e] = float(CT(inv_st[e]));
      }
    }
  };

  void sketch_side(const Widened& side, std::size_t nseg, std::size_t s0,
                   std::size_t s1, float* sketches) const;
  /// The interval-product bound of group g against the row box: true when
  /// no block update can beat the weakest column's profile entry.
  bool group_clears(std::size_t g, float pmax_weakest) const;

  bool enabled_ = false;
  std::size_t m_ = 0, d_ = 0, nr_ = 0, nq_ = 0;
  std::size_t groups_ = 0;
  float eps_ = 0.0f;  ///< guard band from the miss budget
  std::vector<float> signs_;        // [p * chunks + q]
  Widened rows_, cols_;             // prepare .. finish_build only
  std::vector<float> row_sketch_;   // [(k * nr + i) * P + p]
  std::vector<float> col_sketch_;   // [(k * nq + j) * P + p]
  std::vector<float> col_lo_;       // [(g * d + k) * P + p], static boxes
  std::vector<float> col_hi_;       // [(g * d + k) * P + p]
  std::vector<float> row_box_;      // [k * P + p] lo, then [(d + k) * P + p] hi
  std::vector<std::uint8_t> flags_;  // [group], 1 == skippable
  std::vector<PrefilterDecision> decisions_;  // [group]
  std::size_t verify_counter_ = 0;
  PrefilterStats stats_;
};

}  // namespace mpsim::mp
