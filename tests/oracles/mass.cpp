#include "oracles/mass.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"
#include "mp/sort_scan.hpp"
#include "oracles/znorm.hpp"

namespace mpsim::mp {

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  MPSIM_CHECK(n != 0 && (n & (n - 1)) == 0, "FFT size must be a power of 2");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / double(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / double(n);
    for (auto& x : data) x *= scale;
  }
}

std::vector<double> sliding_dot_products(const std::vector<double>& series,
                                         const std::vector<double>& query) {
  const std::size_t n = series.size();
  const std::size_t m = query.size();
  MPSIM_CHECK(m >= 1 && m <= n, "query must fit inside the series");

  const std::size_t p2 = next_pow2(2 * n);
  std::vector<std::complex<double>> a(p2), b(p2);
  for (std::size_t t = 0; t < n; ++t) a[t] = series[t];
  // Time-reversed query: convolution turns into correlation.
  for (std::size_t t = 0; t < m; ++t) b[t] = query[m - 1 - t];

  fft(a, false);
  fft(b, false);
  for (std::size_t t = 0; t < p2; ++t) a[t] *= b[t];
  fft(a, true);

  // Alignment i's dot product sits at convolution index i + m - 1.
  std::vector<double> out(n - m + 1);
  for (std::size_t i = 0; i + m <= n; ++i) {
    out[i] = a[i + m - 1].real();
  }
  return out;
}

std::vector<double> mass(const std::vector<double>& series,
                         const std::vector<double>& query_segment) {
  const std::size_t m = query_segment.size();
  const auto dots = sliding_dot_products(series, query_segment);
  const auto stats = sliding_stats(
      std::span<const double>(series.data(), series.size()), m);

  double q_sum = 0.0;
  for (const double v : query_segment) q_sum += v;
  const double q_mean = q_sum / double(m);
  double q_ssq = 0.0;
  for (const double v : query_segment) {
    const double c = v - q_mean;
    q_ssq += c * c;
  }
  const double q_norm = std::sqrt(q_ssq);

  std::vector<double> out(dots.size());
  for (std::size_t i = 0; i < dots.size(); ++i) {
    if (q_norm == 0.0 || stats.norm[i] == 0.0) {
      out[i] = std::sqrt(2.0 * double(m));  // flat segment: correlation 0
      continue;
    }
    // Centred dot product from the raw one:
    // sum (x - mu_x)(q - mu_q) = dot - m * mu_x * mu_q.
    const double centred = dots[i] - double(m) * stats.mean[i] * q_mean;
    const double corr = centred / (stats.norm[i] * q_norm);
    const double val = 2.0 * double(m) * (1.0 - corr);
    out[i] = val > 0.0 ? std::sqrt(val) : 0.0;
  }
  return out;
}

StampResult compute_matrix_profile_stamp(const TimeSeries& reference,
                                         const TimeSeries& query,
                                         std::size_t window) {
  MPSIM_CHECK(reference.dims() == query.dims(), "dimension mismatch");
  const std::size_t d = reference.dims();
  const std::size_t n_r = reference.segment_count(window);
  const std::size_t n_q = query.segment_count(window);
  MPSIM_CHECK(n_r >= 1 && n_q >= 1, "window longer than an input series");

  StampResult out;
  out.segments = n_q;
  out.dims = d;
  out.profile.assign(n_q * d, std::numeric_limits<double>::infinity());
  out.index.assign(n_q * d, -1);

  // STAMP iterates over query segments; each needs one MASS pass per
  // dimension, then the mSTAMP sort + inclusive average across dims.
  std::vector<std::vector<double>> columns(d);
  std::vector<double> dists(d), scratch(d);
  std::vector<double> ref_dim, query_segment(window);
  for (std::size_t j = 0; j < n_q; ++j) {
    for (std::size_t k = 0; k < d; ++k) {
      const auto qdim = query.dim(k);
      std::copy(qdim.begin() + std::ptrdiff_t(j),
                qdim.begin() + std::ptrdiff_t(j + window),
                query_segment.begin());
      const auto rdim = reference.dim(k);
      ref_dim.assign(rdim.begin(), rdim.end());
      columns[k] = mass(ref_dim, query_segment);
    }
    for (std::size_t i = 0; i < n_r; ++i) {
      for (std::size_t k = 0; k < d; ++k) dists[k] = columns[k][i];
      std::sort(dists.begin(), dists.end());
      inclusive_scan_average(dists.data(), scratch.data(), d);
      for (std::size_t k = 0; k < d; ++k) {
        const std::size_t e = k * n_q + j;
        if (dists[k] < out.profile[e]) {
          out.profile[e] = dists[k];
          out.index[e] = std::int64_t(i);
        }
      }
    }
  }
  return out;
}

}  // namespace mpsim::mp
