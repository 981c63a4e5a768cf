// Tests for the accuracy metrics and the nearest-neighbour classifier.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/classifier.hpp"

namespace mpsim::metrics {
namespace {

TEST(RecallRate, CountsExactMatches) {
  EXPECT_DOUBLE_EQ(recall_rate({1, 2, 3, 4}, {1, 2, 3, 4}), 1.0);
  EXPECT_DOUBLE_EQ(recall_rate({1, 2, 0, 4}, {1, 2, 3, 4}), 0.75);
  EXPECT_DOUBLE_EQ(recall_rate({9, 9}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(recall_rate({}, {}), 1.0);
  EXPECT_THROW(recall_rate({1}, {1, 2}), Error);
}

TEST(RelativeAccuracy, PerfectAndDegraded) {
  EXPECT_DOUBLE_EQ(relative_accuracy({1.0, 2.0}, {1.0, 2.0}), 1.0);
  // 10% norm-wise error -> 90% accuracy.
  EXPECT_NEAR(relative_accuracy({1.1, 2.2}, {1.0, 2.0}), 0.9, 1e-12);
  // Total garbage clamps to zero, never negative.
  EXPECT_DOUBLE_EQ(relative_accuracy({100.0, 100.0}, {1.0, 1.0}), 0.0);
}

TEST(RelativeAccuracy, HandlesNonFiniteEntries) {
  const double inf = std::numeric_limits<double>::infinity();
  // Non-finite test values count as full error on that entry.
  EXPECT_NEAR(relative_accuracy({inf, 2.0}, {1.0, 2.0}), 1.0 - 1.0 / 3.0,
              1e-12);
  // Non-finite reference entries are skipped.
  EXPECT_DOUBLE_EQ(relative_accuracy({5.0, 2.0}, {inf, 2.0}), 1.0);
}

TEST(EmbeddedMotifRecall, AcceptsAnyInjectedReferenceSite) {
  // Two injections of the same repeating pattern: matching either
  // reference location counts as a successful retrieval.
  std::vector<Injection> injections{{0, 5, 100}, {0, 40, 200}};
  std::vector<std::int64_t> index(64, -1);
  index[5] = 200;   // matched the *other* copy
  index[40] = 200;  // matched its own copy
  EXPECT_DOUBLE_EQ(
      embedded_motif_recall(index, 64, injections, 16, 0.0), 1.0);
}

TEST(EmbeddedMotifRecall, RelaxationWidensAcceptance) {
  std::vector<Injection> injections{{0, 5, 100}};
  std::vector<std::int64_t> index(64, -1);
  index[5] = 103;  // 3 samples off
  EXPECT_DOUBLE_EQ(embedded_motif_recall(index, 64, injections, 16, 0.0), 0.0);
  // r = 25% of a 16-window -> tolerance 4.
  EXPECT_DOUBLE_EQ(embedded_motif_recall(index, 64, injections, 16, 0.25),
                   1.0);
}

TEST(EmbeddedMotifRecall, UnmatchedIndexCountsAsMiss) {
  std::vector<Injection> injections{{0, 5, 100}};
  std::vector<std::int64_t> index(64, -1);
  EXPECT_DOUBLE_EQ(embedded_motif_recall(index, 64, injections, 16, 1.0), 0.0);
}

TEST(SegmentLabels, ReadsCentreSample) {
  std::vector<int> samples(20, 0);
  for (std::size_t t = 10; t < 20; ++t) samples[t] = 3;
  const auto labels = segment_labels(samples, 13, 8);
  EXPECT_EQ(labels[0], 0);   // centre at 4
  EXPECT_EQ(labels[12], 3);  // centre at 16
}

TEST(SegmentLabels, PureOnlyMarksBoundarySegments) {
  std::vector<int> samples(20, 0);
  for (std::size_t t = 10; t < 20; ++t) samples[t] = 3;
  const auto labels = segment_labels(samples, 13, 8, /*pure_only=*/true);
  EXPECT_EQ(labels[0], 0);    // fully inside phase 0
  EXPECT_EQ(labels[12], 3);   // fully inside phase 3
  EXPECT_EQ(labels[5], -1);   // window [5,13) spans the boundary at 10
  EXPECT_EQ(labels[9], -1);
}

TEST(Classifier, NegativeTruthIsExcluded) {
  const std::vector<int> truth{0, -1, 1, -1};
  const std::vector<int> pred{0, 1, 0, 0};
  const auto report = evaluate_classification(pred, truth, 2);
  // Only entries 0 and 2 are scored: one correct.
  EXPECT_DOUBLE_EQ(report.accuracy, 0.5);
}

TEST(Classifier, EvaluationPerfectPrediction) {
  const std::vector<int> truth{0, 1, 2, 1, 0, 2};
  const auto report = evaluate_classification(truth, truth, 3);
  EXPECT_DOUBLE_EQ(report.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(report.macro_f1, 1.0);
  for (const auto& score : report.per_class) {
    EXPECT_DOUBLE_EQ(score.f1, 1.0);
  }
}

TEST(Classifier, EvaluationMixedPrediction) {
  const std::vector<int> truth{0, 0, 1, 1};
  const std::vector<int> pred{0, 1, 1, 1};
  const auto report = evaluate_classification(pred, truth, 2);
  EXPECT_DOUBLE_EQ(report.accuracy, 0.75);
  // Class 0: tp=1 fp=0 fn=1 -> p=1, r=0.5, f1=2/3.
  EXPECT_NEAR(report.per_class[0].f1, 2.0 / 3.0, 1e-12);
  // Class 1: tp=2 fp=1 fn=0 -> p=2/3, r=1, f1=0.8.
  EXPECT_NEAR(report.per_class[1].f1, 0.8, 1e-12);
  EXPECT_NEAR(report.macro_f1, (2.0 / 3.0 + 0.8) / 2.0, 1e-12);
}

TEST(Classifier, AbsentClassesExcludedFromMacroF1) {
  const std::vector<int> truth{0, 0, 0};
  const std::vector<int> pred{0, 0, 1};
  const auto report = evaluate_classification(pred, truth, 5);
  // Only class 0 appears in the truth; classes 1-4 must not dilute F1.
  EXPECT_NEAR(report.macro_f1, report.per_class[0].f1, 1e-12);
}

TEST(Classifier, NnLabelTransferUsesIndexAndCentre) {
  mp::MatrixProfileResult result;
  result.segments = 4;
  result.dims = 2;
  result.profile.assign(8, 1.0);
  result.index.assign(8, -1);
  // k=1 plane (entries 4..7) points at reference segments.
  result.index[4] = 0;
  result.index[5] = 10;
  result.index[6] = -1;  // no match
  result.index[7] = 2;

  std::vector<int> ref_labels(32, 7);
  for (std::size_t t = 12; t < 18; ++t) ref_labels[t] = 9;

  const auto labels = nn_classify(result, 1, ref_labels, 8);
  EXPECT_EQ(labels[0], 7);   // centre of segment 0 = sample 4
  EXPECT_EQ(labels[1], 9);   // centre of segment 10 = sample 14
  EXPECT_EQ(labels[2], -1);  // unmatched
  EXPECT_EQ(labels[3], 7);
  EXPECT_THROW(nn_classify(result, 2, ref_labels, 8), Error);
}

}  // namespace
}  // namespace mpsim::metrics
