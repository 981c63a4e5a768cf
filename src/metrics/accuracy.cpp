#include "metrics/accuracy.hpp"

#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace mpsim::metrics {

double recall_rate(const std::vector<std::int64_t>& test,
                   const std::vector<std::int64_t>& reference) {
  MPSIM_CHECK(test.size() == reference.size(),
              "index vectors differ in size: " << test.size() << " vs "
                                               << reference.size());
  if (test.empty()) return 1.0;
  std::size_t matches = 0;
  for (std::size_t e = 0; e < test.size(); ++e) {
    if (test[e] == reference[e]) ++matches;
  }
  return double(matches) / double(test.size());
}

double relative_accuracy(const std::vector<double>& test,
                         const std::vector<double>& reference) {
  MPSIM_CHECK(test.size() == reference.size(),
              "profile vectors differ in size");
  if (test.empty()) return 1.0;
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t e = 0; e < test.size(); ++e) {
    const double r = reference[e];
    const double t = test[e];
    if (!std::isfinite(r)) continue;  // undefined reference entry
    norm += std::fabs(r);
    err += std::isfinite(t) ? std::fabs(t - r) : std::fabs(r);
  }
  if (norm == 0.0) return err == 0.0 ? 1.0 : 0.0;
  const double relative_error = err / norm;
  return relative_error >= 1.0 ? 0.0 : 1.0 - relative_error;
}

double embedded_motif_recall(const std::vector<std::int64_t>& index,
                             std::size_t segments,
                             const std::vector<Injection>& injections,
                             std::size_t window, double relaxation) {
  if (injections.empty()) return 1.0;
  const auto tolerance = std::int64_t(relaxation * double(window));
  std::size_t hits = 0;
  for (const auto& inj : injections) {
    MPSIM_CHECK(inj.query_position < segments,
                "injection outside the profile");
    const std::int64_t found = index[inj.query_position];  // k = 0 plane
    if (found < 0) continue;
    for (const auto& candidate : injections) {
      const auto expected = std::int64_t(candidate.reference_position);
      if (std::llabs(found - expected) <= tolerance) {
        ++hits;
        break;
      }
    }
  }
  return double(hits) / double(injections.size());
}

double prefilter_miss_rate(const mp::PrefilterStats& stats) {
  if (stats.cols_verified == 0) return 0.0;
  return double(stats.cols_missed) / double(stats.cols_verified);
}

bool prefilter_within_budget(const mp::PrefilterStats& stats,
                             double budget) {
  return prefilter_miss_rate(stats) <= budget;
}

}  // namespace mpsim::metrics
