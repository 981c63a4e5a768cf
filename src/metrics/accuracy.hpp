// Accuracy metrics of the paper (§V-A "Accuracy Metrics").
//
// Numerical accuracy (reduced-precision result vs FP64 reference):
//   * recall rate R — fraction of matrix profile indices that match the
//     reference exactly;
//   * relative accuracy A = 1 - E, with E the relative discrepancy of the
//     matrix profile values (norm-wise relative error).
//
// Practical accuracy:
//   * R_embedded — recall of embedded motifs: fraction of injected query
//     patterns whose matrix profile index points at the injected reference
//     location;
//   * R^r_embedded — the relaxed variant with relaxation factor r: a
//     detection within r * window of the expected location counts.
#pragma once

#include <cstdint>
#include <vector>

#include "mp/options.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::metrics {

/// Fraction of exactly matching indices (R). Ranges [0, 1].
double recall_rate(const std::vector<std::int64_t>& test,
                   const std::vector<std::int64_t>& reference);

/// Relative accuracy A = 1 - E with E = ||test - ref||_1 / ||ref||_1,
/// clamped into [0, 1].  Non-finite entries in either operand count as
/// maximal error for that entry.
double relative_accuracy(const std::vector<double>& test,
                         const std::vector<double>& reference);

/// Embedded-motif recall over a set of injections, checked on the
/// 1-dimensional profile (k = 0), which selects the best-matching
/// dimension automatically.  An injected query pattern counts as detected
/// when its matrix profile index lands within relaxation * window of ANY
/// injected reference location — all injections embed the same repeating
/// pattern, so every injected copy is a true match (the z-normalised
/// distance cannot distinguish them).
///
/// `index` is the dimension-major matrix profile index with `segments`
/// columns; `relaxation` = 0 demands an exact location.
double embedded_motif_recall(const std::vector<std::int64_t>& index,
                             std::size_t segments,
                             const std::vector<Injection>& injections,
                             std::size_t window, double relaxation = 0.0);

/// Realized miss rate of the sketch prefilter's verify sample: the
/// fraction of verify-block columns whose exact execution updated a
/// profile entry the sketch had declared update-free.  0 when nothing
/// was verified (an exact run, or one where no block ever skipped).
double prefilter_miss_rate(const mp::PrefilterStats& stats);

/// True when the measured miss rate stays within the configured budget —
/// the acceptance check the statistical prefilter tests (and users of
/// `prefilter.miss_rate` in --metrics-out) apply.  Vacuously true with an
/// empty verify sample.
bool prefilter_within_budget(const mp::PrefilterStats& stats,
                             double budget);

}  // namespace mpsim::metrics
