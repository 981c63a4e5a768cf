// Tests for the motif/discord discovery utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "mp/analysis.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

MatrixProfileResult fake_result(const std::vector<double>& values) {
  MatrixProfileResult r;
  r.segments = values.size();
  r.dims = 1;
  r.profile = values;
  r.index.assign(values.size(), 0);
  for (std::size_t j = 0; j < values.size(); ++j) {
    r.index[j] = std::int64_t(100 + j);
  }
  return r;
}

TEST(TopMotifs, ReturnsSmallestNonOverlapping) {
  //            0    1    2    3    4    5    6    7
  const auto r = fake_result({0.5, 0.1, 0.2, 9.0, 0.15, 7.0, 6.0, 8.0});
  const auto motifs = top_motifs(r, 0, 3, /*separation=*/2);
  ASSERT_EQ(motifs.size(), 3u);
  EXPECT_EQ(motifs[0].query_segment, 1u);  // 0.1
  // 0.15 at segment 4 is next (segment 2's 0.2 overlaps segment 1).
  EXPECT_EQ(motifs[1].query_segment, 4u);
  EXPECT_EQ(motifs[2].query_segment, 6u);  // 6.0 — 0.2 and 0.5 overlap used slots
  EXPECT_DOUBLE_EQ(motifs[0].distance, 0.1);
  EXPECT_EQ(motifs[0].match_segment, 101);
}

TEST(TopMotifs, SeparationOneKeepsAdjacent) {
  const auto r = fake_result({0.3, 0.1, 0.2});
  const auto motifs = top_motifs(r, 0, 3, /*separation=*/1);
  ASSERT_EQ(motifs.size(), 3u);
  EXPECT_EQ(motifs[0].query_segment, 1u);
  EXPECT_EQ(motifs[1].query_segment, 2u);
  EXPECT_EQ(motifs[2].query_segment, 0u);
}

TEST(TopDiscords, ReturnsLargestFiniteValues) {
  auto r = fake_result({0.5, 3.0, 0.2, 9.0, 1.0});
  r.profile[1] = std::numeric_limits<double>::infinity();  // unmatched-ish
  const auto discords = top_discords(r, 0, 2, /*separation=*/1);
  ASSERT_EQ(discords.size(), 2u);
  EXPECT_EQ(discords[0].query_segment, 3u);  // 9.0
  EXPECT_EQ(discords[1].query_segment, 4u);  // 1.0 (inf skipped)
}

TEST(TopMotifs, SkipsUnmatchedSegments) {
  auto r = fake_result({0.1, 0.2, 0.3});
  r.index[0] = -1;  // never matched
  const auto motifs = top_motifs(r, 0, 3, 1);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].query_segment, 1u);
}

TEST(TopMotifs, RejectsBadDimension) {
  const auto r = fake_result({0.1});
  EXPECT_THROW(top_motifs(r, 5, 1, 1), Error);
}

TEST(Analysis, FindsInjectedMotifsOnRealProfile) {
  SyntheticSpec spec;
  spec.segments = 512;
  spec.dims = 2;
  spec.window = 32;
  spec.injections_per_dim = 2;
  const auto data = make_synthetic_dataset(spec);
  MatrixProfileConfig config;
  config.window = 32;
  const auto result =
      compute_matrix_profile(data.reference, data.query, config);
  const auto motifs = top_motifs(result, 0, 4, spec.window);
  ASSERT_EQ(motifs.size(), 4u);
  // Every reported motif should sit near an injected query location.
  for (const auto& motif : motifs) {
    bool near = false;
    for (const auto& inj : data.injections) {
      const auto gap = std::int64_t(motif.query_segment) -
                       std::int64_t(inj.query_position);
      if (std::llabs(gap) <= std::int64_t(spec.window)) near = true;
    }
    EXPECT_TRUE(near) << "motif at " << motif.query_segment;
  }
  // Motifs come out sorted by distance.
  for (std::size_t i = 1; i < motifs.size(); ++i) {
    EXPECT_LE(motifs[i - 1].distance, motifs[i].distance);
  }
}

}  // namespace
}  // namespace mpsim::mp
