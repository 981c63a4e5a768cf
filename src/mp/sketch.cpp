#include "mp/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "precision/float16.hpp"

namespace mpsim::mp {

namespace {

/// splitmix64: tiny, seedable, platform-stable — decision replay across
/// retries/resume depends on this stream, so no std:: engine (their
/// sequences are implementation-defined only up to the standard's spec,
/// and we want the exact bits pinned).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Guard band the block score must clear below tau before a skip: wider
/// for tighter budgets.  Heuristic, scaled to the sketch estimator's
/// noise floor ~sqrt(2 / kSketchComponents) = 0.25 — the verify sample
/// measures whatever miss rate the band actually achieves.
float guard_band(double budget) {
  const double b = std::clamp(budget, 1e-6, 0.5);
  return float(std::clamp(0.05 * -std::log10(b), 0.05, 0.4));
}

}  // namespace

std::uint64_t sketch_seed(std::size_t window, std::size_t components,
                          double budget) {
  // Run-level parameters only (window, P, budget bits) — deliberately no
  // tile geometry or device index, see the determinism note in sketch.hpp.
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(budget));
  std::memcpy(&bits, &budget, sizeof(bits));
  std::uint64_t state = 0x6d70736b65746368ull;  // "mpsketch"
  state ^= splitmix64(state) ^ std::uint64_t(window);
  state ^= splitmix64(state) ^ std::uint64_t(components);
  state ^= splitmix64(state) ^ bits;
  return splitmix64(state);
}

std::vector<float> rademacher_signs(std::size_t chunks,
                                    std::size_t components,
                                    std::uint64_t seed) {
  std::vector<float> signs(components * chunks);
  std::uint64_t state = seed;
  std::uint64_t word = 0;
  int left = 0;
  for (auto& s : signs) {
    if (left == 0) {
      word = splitmix64(state);
      left = 64;
    }
    s = (word & 1u) != 0 ? 1.0f : -1.0f;
    word >>= 1;
    --left;
  }
  return signs;
}

float sketch_fp16_round(float v) { return float(float16(v)); }

void sketch_series(const float* x, std::size_t len, std::size_t nseg,
                   std::size_t m, const float* mu, const float* inv,
                   const float* signs, std::size_t components, float* out) {
  // One prefix-sum array (double: len adds of similar magnitude, no
  // cancellation surprises) shared by every segment and component.
  std::vector<double> prefix(len + 1, 0.0);
  for (std::size_t t = 0; t < len; ++t) prefix[t + 1] = prefix[t] + x[t];

  const std::size_t chunks = sketch_chunks(m);
  std::vector<float> agg(chunks, 0.0f);
  for (std::size_t j = 0; j < nseg; ++j) {
    // Chunk-aggregate of the z-normalised segment, then normalise the
    // aggregate itself: the sketch products estimate the correlation of
    // the CHUNK-AGGREGATED windows, a genuine [-1, 1] quantity at every
    // signal roughness (without this, chunking would inflate smooth
    // segments' sketches by sqrt(kSketchChunk) and deflate rough ones,
    // skewing the skip bound in opposite directions).  Float arithmetic
    // throughout the hot loops: the components get rounded to FP16
    // anyway, and the dense +-1.0f multiplies vectorise.
    const double* pj = prefix.data() + j;
    const double mu_j = double(mu[j]);
    const float inv_j = inv[j];
    float norm2 = 0.0f;
    std::size_t b = 0;
    for (std::size_t q = 0; q < chunks; ++q) {
      const std::size_t e = std::min(b + kSketchChunk, m);
      const float a = float((pj[e] - pj[b]) - mu_j * double(e - b)) * inv_j;
      agg[q] = a;
      norm2 += a * a;
      b = e;
    }
    float* sj = out + j * components;
    if (!(norm2 > 1e-20f) || !std::isfinite(norm2)) {
      // Degenerate (flat / non-finite) segment: a zero sketch scores as
      // uncorrelated; the profile threshold still governs the decision.
      for (std::size_t p = 0; p < components; ++p) sj[p] = 0.0f;
      continue;
    }
    const float scale = 1.0f / std::sqrt(norm2);
    for (std::size_t p = 0; p < components; ++p) {
      const float* g = signs + p * chunks;
      float dot = 0.0f;
      for (std::size_t q = 0; q < chunks; ++q) dot += g[q] * agg[q];
      sj[p] = sketch_fp16_round(dot * scale);
    }
  }
}

TilePrefilter::TilePrefilter(const PrefilterConfig& config, std::size_t m,
                             std::size_t d, std::size_t nr, std::size_t nq)
    : enabled_(config.enabled()), m_(m), d_(d), nr_(nr), nq_(nq) {
  if (!enabled_) return;
  eps_ = guard_band(config.budget);
  signs_ = rademacher_signs(sketch_chunks(m_), kSketchComponents,
                            sketch_seed(m_, kSketchComponents,
                                        config.budget));
  groups_ = (nq_ + kPrefilterColGroup - 1) / kPrefilterColGroup;
  row_sketch_.assign(d_ * nr_ * kSketchComponents, 0.0f);
  col_sketch_.assign(d_ * nq_ * kSketchComponents, 0.0f);
  col_lo_.assign(groups_ * d_ * kSketchComponents, 0.0f);
  col_hi_.assign(groups_ * d_ * kSketchComponents, 0.0f);
  pmax_scratch_.assign(nq_, -1.0f);
  decisions_.assign(groups_, PrefilterDecision::kRun);
}

void TilePrefilter::build_column_boxes() {
  // Static per-group component boxes over the column sketches.  Consecutive
  // columns' windows overlap by m-1 samples, so a group's box (32 columns,
  // kPrefilterColGroup) stays close to the individual sketches — tight
  // enough that one interval product bounds the whole group.
  constexpr std::size_t P = kSketchComponents;
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t jb = g * kPrefilterColGroup;
    const std::size_t je = std::min(jb + kPrefilterColGroup, nq_);
    for (std::size_t k = 0; k < d_; ++k) {
      float* lo = col_lo_.data() + (g * d_ + k) * P;
      float* hi = col_hi_.data() + (g * d_ + k) * P;
      const float* first = col_sketch_.data() + (k * nq_ + jb) * P;
      for (std::size_t p = 0; p < P; ++p) lo[p] = hi[p] = first[p];
      for (std::size_t j = jb + 1; j < je; ++j) {
        const float* s = col_sketch_.data() + (k * nq_ + j) * P;
        for (std::size_t p = 0; p < P; ++p) {
          lo[p] = std::min(lo[p], s[p]);
          hi[p] = std::max(hi[p], s[p]);
        }
      }
    }
  }
}

void TilePrefilter::score_batch_scored(std::size_t i0, std::size_t rows) {
  // Per-component bounding box of the batch's row sketches, per dim.
  // Consecutive rows' windows overlap by m-1 samples, so the box is tight.
  constexpr std::size_t P = kSketchComponents;
  float rmin[/*d*/ 64 * P], rmax[64 * P];
  std::vector<float> heap_box;
  float* lo = rmin;
  float* hi = rmax;
  if (d_ > 64) {
    heap_box.assign(2 * d_ * P, 0.0f);
    lo = heap_box.data();
    hi = heap_box.data() + d_ * P;
  }
  for (std::size_t k = 0; k < d_; ++k) {
    const float* first = row_sketch_.data() + (k * nr_ + i0) * P;
    for (std::size_t p = 0; p < P; ++p) {
      lo[k * P + p] = first[p];
      hi[k * P + p] = first[p];
    }
    for (std::size_t r = 1; r < rows; ++r) {
      const float* s = row_sketch_.data() + (k * nr_ + i0 + r) * P;
      for (std::size_t p = 0; p < P; ++p) {
        lo[k * P + p] = std::min(lo[k * P + p], s[p]);
        hi[k * P + p] = std::max(hi[k * P + p], s[p]);
      }
    }
  }

  // Score every column group with ONE interval-product bound per dim:
  // ub >= corr(i, j) estimate for every (row, column) in the block, up to
  // sketch noise, which the eps guard band absorbs.  The block threshold
  // is the weakest column's tau — the correlation a new match must EXCEED
  // to beat the current profile entry (dist = sqrt(2m(1 - corr))).
  const float inv_2m = 1.0f / (2.0f * float(m_));
  const float inv_p = 1.0f / float(P);
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t jb = g * kPrefilterColGroup;
    const std::size_t je = std::min(jb + kPrefilterColGroup, nq_);
    // Weakest column: the largest profile distance has the LOWEST tau.
    // Negative scratch entries mark unskippable columns (unset profile).
    float pmax_weakest = 0.0f;
    bool skippable = true;
    for (std::size_t j = jb; j < je; ++j) {
      const float p = pmax_scratch_[j];
      skippable = skippable && p >= 0.0f;
      pmax_weakest = std::max(pmax_weakest, p);
    }
    if (skippable) {
      const float tau = 1.0f - pmax_weakest * pmax_weakest * inv_2m;
      float ub = -std::numeric_limits<float>::infinity();
      for (std::size_t k = 0; k < d_; ++k) {
        const float* clo = col_lo_.data() + (g * d_ + k) * P;
        const float* chi = col_hi_.data() + (g * d_ + k) * P;
        float acc = 0.0f;
        for (std::size_t p = 0; p < P; ++p) {
          const float a = lo[k * P + p] * clo[p];
          const float b = lo[k * P + p] * chi[p];
          const float c = hi[k * P + p] * clo[p];
          const float e = hi[k * P + p] * chi[p];
          acc += std::max(std::max(a, b), std::max(c, e));
        }
        ub = std::max(ub, acc * inv_p);
      }
      skippable = ub + eps_ <= tau;
    }
    ++stats_.blocks_total;
    if (!skippable) {
      decisions_[g] = PrefilterDecision::kRun;
      continue;
    }
    // Deterministic verify sampling: every kPrefilterVerifyStride-th
    // skippable block (tile-local counter, scan order) runs exactly.
    ++verify_counter_;
    if (verify_counter_ % kPrefilterVerifyStride == 0) {
      decisions_[g] = PrefilterDecision::kVerify;
      ++stats_.blocks_verified;
      stats_.cols_verified += je - jb;
    } else {
      decisions_[g] = PrefilterDecision::kSkip;
      ++stats_.blocks_skipped;
      stats_.cols_skipped += je - jb;
    }
  }
}

void TilePrefilter::note_batch_end(const std::int64_t* index,
                                   std::int64_t row_lo, std::int64_t row_hi) {
  for (std::size_t g = 0; g < decisions_.size(); ++g) {
    if (decisions_[g] != PrefilterDecision::kVerify) continue;
    const std::size_t jb = g * kPrefilterColGroup;
    const std::size_t je = std::min(jb + kPrefilterColGroup, nq_);
    for (std::size_t j = jb; j < je; ++j) {
      for (std::size_t k = 0; k < d_; ++k) {
        const std::int64_t idx = index[k * nq_ + j];
        if (idx >= row_lo && idx <= row_hi) {
          ++stats_.cols_missed;
          break;
        }
      }
    }
  }
}

}  // namespace mpsim::mp
