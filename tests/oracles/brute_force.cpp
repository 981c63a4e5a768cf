#include "oracles/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace mpsim::mp {
namespace {

struct SegmentStats {
  double mean = 0.0;
  double norm = 0.0;  // || segment - mean ||
};

SegmentStats stats_of(const double* x, std::size_t m) {
  double sum = 0.0;
  for (std::size_t t = 0; t < m; ++t) sum += x[t];
  const double mean = sum / double(m);
  double ssq = 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    const double c = x[t] - mean;
    ssq += c * c;
  }
  return {mean, std::sqrt(ssq)};
}

}  // namespace

double znormalized_distance(const double* a, const double* b,
                            std::size_t window) {
  const SegmentStats sa = stats_of(a, window);
  const SegmentStats sb = stats_of(b, window);
  if (sa.norm == 0.0 || sb.norm == 0.0) {
    // Flat segment: correlation defined as zero (SCAMP convention).
    return std::sqrt(2.0 * double(window));
  }
  double dot = 0.0;
  for (std::size_t t = 0; t < window; ++t) {
    dot += (a[t] - sa.mean) * (b[t] - sb.mean);
  }
  const double corr = dot / (sa.norm * sb.norm);
  const double val = 2.0 * double(window) * (1.0 - corr);
  return val > 0.0 ? std::sqrt(val) : 0.0;
}

BruteForceResult compute_matrix_profile_brute_force(
    const TimeSeries& reference, const TimeSeries& query, std::size_t window,
    std::int64_t exclusion) {
  MPSIM_CHECK(reference.dims() == query.dims(), "dimension mismatch");
  const std::size_t d = reference.dims();
  const std::size_t nr = reference.segment_count(window);
  const std::size_t nq = query.segment_count(window);
  MPSIM_CHECK(nr >= 1 && nq >= 1, "window longer than an input series");

  BruteForceResult out;
  out.segments = nq;
  out.dims = d;
  out.profile.assign(nq * d, std::numeric_limits<double>::infinity());
  out.index.assign(nq * d, -1);

  std::vector<double> dists(d);
  for (std::size_t i = 0; i < nr; ++i) {
    for (std::size_t j = 0; j < nq; ++j) {
      if (exclusion > 0) {
        const auto gap = std::llabs(std::int64_t(i) - std::int64_t(j));
        if (gap < exclusion) continue;
      }
      for (std::size_t k = 0; k < d; ++k) {
        dists[k] = znormalized_distance(reference.dim(k).data() + i,
                                        query.dim(k).data() + j, window);
      }
      std::sort(dists.begin(), dists.end());
      // Progressive inclusive average (plain sequential order — this is
      // the independent oracle, not the shared kernel helper).
      double running = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        running += dists[k];
        const double avg = running / double(k + 1);
        const std::size_t e = k * nq + j;
        if (avg < out.profile[e]) {
          out.profile[e] = avg;
          out.index[e] = std::int64_t(i);
        }
      }
    }
  }
  return out;
}

}  // namespace mpsim::mp
