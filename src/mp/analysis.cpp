#include "mp/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mpsim::mp {
namespace {

std::vector<ProfileExtreme> top_extremes(const MatrixProfileResult& result,
                                         std::size_t k_dim, std::size_t count,
                                         std::size_t separation,
                                         bool smallest) {
  MPSIM_CHECK(k_dim < result.dims,
              "k_dim " << k_dim << " out of range for " << result.dims
                       << "-dimensional profile");

  std::vector<std::size_t> order;
  order.reserve(result.segments);
  for (std::size_t j = 0; j < result.segments; ++j) {
    const double v = result.at(j, k_dim);
    if (!std::isfinite(v) || result.index_at(j, k_dim) < 0) continue;
    order.push_back(j);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              const double va = result.at(a, k_dim);
              const double vb = result.at(b, k_dim);
              if (va != vb) return smallest ? va < vb : va > vb;
              return a < b;  // deterministic tie-break
            });

  std::vector<ProfileExtreme> out;
  for (const std::size_t j : order) {
    if (out.size() == count) break;
    const bool overlaps = std::any_of(
        out.begin(), out.end(), [&](const ProfileExtreme& e) {
          const auto gap = std::int64_t(j) - std::int64_t(e.query_segment);
          return std::size_t(gap < 0 ? -gap : gap) < separation;
        });
    if (overlaps) continue;
    out.push_back(ProfileExtreme{j, result.index_at(j, k_dim),
                                 result.at(j, k_dim)});
  }
  return out;
}

}  // namespace

std::vector<ProfileExtreme> top_motifs(const MatrixProfileResult& result,
                                       std::size_t k_dim, std::size_t count,
                                       std::size_t separation) {
  return top_extremes(result, k_dim, count, separation, /*smallest=*/true);
}

std::vector<ProfileExtreme> top_discords(const MatrixProfileResult& result,
                                         std::size_t k_dim, std::size_t count,
                                         std::size_t separation) {
  return top_extremes(result, k_dim, count, separation, /*smallest=*/false);
}

}  // namespace mpsim::mp
