// Z-normalisation oracle: sliding segment statistics and explicit
// z-normalised segments.  The optimised engines never materialise these
// (they use the streaming formulation); the MASS oracle builds on these.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace mpsim {

struct SlidingStats {
  std::vector<double> mean;  ///< per segment
  std::vector<double> norm;  ///< || segment - mean || per segment
};

/// Two-pass (numerically robust) mean and centred norm of every length-m
/// segment of x.
inline SlidingStats sliding_stats(std::span<const double> x, std::size_t m) {
  MPSIM_CHECK(m >= 1 && m <= x.size(), "invalid window for sliding stats");
  const std::size_t nseg = x.size() - m + 1;
  SlidingStats s;
  s.mean.resize(nseg);
  s.norm.resize(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    double sum = 0.0;
    for (std::size_t t = 0; t < m; ++t) sum += x[i + t];
    s.mean[i] = sum / double(m);
    double ssq = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      const double c = x[i + t] - s.mean[i];
      ssq += c * c;
    }
    s.norm[i] = std::sqrt(ssq);
  }
  return s;
}

/// The z-normalised copy of segment [start, start+m): zero mean, unit
/// centred norm.  Flat segments return all zeros (SCAMP convention).
inline std::vector<double> znormalize_segment(std::span<const double> x,
                                              std::size_t start,
                                              std::size_t m) {
  MPSIM_CHECK(start + m <= x.size(), "segment out of range");
  double sum = 0.0;
  for (std::size_t t = 0; t < m; ++t) sum += x[start + t];
  const double mean = sum / double(m);
  double ssq = 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    const double c = x[start + t] - mean;
    ssq += c * c;
  }
  std::vector<double> out(m, 0.0);
  if (ssq == 0.0) return out;
  const double inv = 1.0 / std::sqrt(ssq);
  for (std::size_t t = 0; t < m; ++t) out[t] = (x[start + t] - mean) * inv;
  return out;
}

}  // namespace mpsim
