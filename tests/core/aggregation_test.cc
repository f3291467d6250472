#include "core/aggregation.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairrec {
namespace {

TEST(AggregationTest, Minimum) {
  const std::vector<double> scores{3.0, 1.5, 4.0};
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMinimum), 1.5);
}

TEST(AggregationTest, Average) {
  const std::vector<double> scores{3.0, 1.5, 4.5};
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kAverage), 3.0);
}

TEST(AggregationTest, Maximum) {
  const std::vector<double> scores{3.0, 1.5, 4.5};
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMaximum), 4.5);
}

TEST(AggregationTest, SingletonIsIdentityForAllKinds) {
  const std::vector<double> one{2.5};
  for (const auto kind : {AggregationKind::kMinimum, AggregationKind::kAverage,
                          AggregationKind::kMaximum}) {
    EXPECT_DOUBLE_EQ(Aggregate(one, kind), 2.5);
  }
}

TEST(AggregationTest, MinLeqAvgLeqMax) {
  const std::vector<double> scores{1.0, 2.0, 5.0, 3.5};
  const double lo = Aggregate(scores, AggregationKind::kMinimum);
  const double mid = Aggregate(scores, AggregationKind::kAverage);
  const double hi = Aggregate(scores, AggregationKind::kMaximum);
  EXPECT_LE(lo, mid);
  EXPECT_LE(mid, hi);
}

TEST(AggregationTest, KindNames) {
  EXPECT_EQ(AggregationKindToString(AggregationKind::kMinimum), "min");
  EXPECT_EQ(AggregationKindToString(AggregationKind::kAverage), "avg");
  EXPECT_EQ(AggregationKindToString(AggregationKind::kMaximum), "max");
  EXPECT_EQ(AggregationKindToString(AggregationKind::kMedian), "median");
  EXPECT_EQ(AggregationKindToString(AggregationKind::kMiseryBlend),
            "misery-blend");
}

TEST(AggregationTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(
      Aggregate(std::vector<double>{5.0, 1.0, 3.0}, AggregationKind::kMedian),
      3.0);
  EXPECT_DOUBLE_EQ(Aggregate(std::vector<double>{4.0, 1.0, 3.0, 2.0},
                             AggregationKind::kMedian),
                   2.5);
}

TEST(AggregationTest, MedianMatchesSortThenMiddleBitForBit) {
  // Sizes 1-9 in a shuffled order, so a reused sort buffer shrinks and grows
  // between calls; values on a coarse grid, so ties are common.
  Rng rng(7);
  std::vector<size_t> sizes;
  for (int round = 0; round < 200; ++round) {
    for (size_t n = 1; n <= 9; ++n) sizes.push_back(n);
  }
  rng.Shuffle(sizes);
  for (const size_t n : sizes) {
    std::vector<double> scores(n);
    for (double& s : scores) {
      s = rng.NextBool(0.5) ? 0.5 * static_cast<double>(rng.UniformInt(0, 4))
                            : rng.UniformReal(-1.0, 5.0);
    }
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end());
    const double want = n % 2 == 1
                            ? sorted[n / 2]
                            : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
    const std::vector<double> before = scores;
    const double got = Aggregate(scores, AggregationKind::kMedian);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "size " << n;
    EXPECT_EQ(scores, before);  // the input is left as it was
  }
}

TEST(AggregationTest, MedianRobustToOneOutlier) {
  // One vetoing member drags min to 1 but barely moves the median.
  const std::vector<double> scores{4.0, 4.2, 4.1, 1.0};
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMinimum), 1.0);
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMedian), 4.05);
}

TEST(AggregationTest, MiseryBlendInterpolates) {
  const std::vector<double> scores{1.0, 5.0};
  AggregationParams params;
  params.misery_alpha = 0.0;  // pure average
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMiseryBlend, params), 3.0);
  params.misery_alpha = 1.0;  // pure least misery
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMiseryBlend, params), 1.0);
  params.misery_alpha = 0.5;
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMiseryBlend, params), 2.0);
}

TEST(AggregationTest, MiseryBlendClampsAlpha) {
  const std::vector<double> scores{1.0, 5.0};
  AggregationParams params;
  params.misery_alpha = 7.0;  // clamped to 1 -> min
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMiseryBlend, params), 1.0);
  params.misery_alpha = -3.0;  // clamped to 0 -> avg
  EXPECT_DOUBLE_EQ(Aggregate(scores, AggregationKind::kMiseryBlend, params), 3.0);
}

TEST(AggregationTest, AllKindsBoundedByMinAndMax) {
  const std::vector<double> scores{2.0, 3.5, 4.8, 1.2};
  for (const auto kind :
       {AggregationKind::kMinimum, AggregationKind::kAverage,
        AggregationKind::kMaximum, AggregationKind::kMedian,
        AggregationKind::kMiseryBlend}) {
    const double v = Aggregate(scores, kind);
    EXPECT_GE(v, 1.2);
    EXPECT_LE(v, 4.8);
  }
}

}  // namespace
}  // namespace fairrec
