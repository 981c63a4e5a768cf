// Post-processing utilities on matrix-profile results: the classic
// downstream consumers of a matrix profile (Yeh et al. 2016) — motif
// discovery (recurring patterns = smallest profile entries) and discord
// discovery (anomalies = largest profile entries), with non-overlap
// handling so the top-k list isn't k shifted copies of one event.
#pragma once

#include <cstdint>
#include <vector>

#include "mp/options.hpp"

namespace mpsim::mp {

/// One motif or discord occurrence.
struct ProfileExtreme {
  std::size_t query_segment = 0;   ///< segment index in the query series
  std::int64_t match_segment = -1; ///< its nearest neighbour in the reference
  double distance = 0.0;           ///< the profile value
};

/// The `count` best-matching (smallest-distance) query segments of the
/// k_dim-dimensional profile, at least `separation` segments apart
/// (default: one window is a sensible choice).  Unmatched segments
/// (index < 0) are skipped.
std::vector<ProfileExtreme> top_motifs(const MatrixProfileResult& result,
                                       std::size_t k_dim, std::size_t count,
                                       std::size_t separation);

/// The `count` worst-matching (largest finite-distance) query segments —
/// the discords / anomalies — with the same non-overlap rule.
std::vector<ProfileExtreme> top_discords(const MatrixProfileResult& result,
                                         std::size_t k_dim, std::size_t count,
                                         std::size_t separation);

}  // namespace mpsim::mp
