#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  const Percentile p50 = ComputePercentile(OneTo(100), 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  const Percentile p90 = ComputePercentile(OneTo(100), 0.90);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10);
  EXPECT_TRUE(p90.supported);
  EXPECT_EQ(ComputePercentile(OneTo(7), 1.0).value, 7.0);
  EXPECT_EQ(ComputePercentile({4.0}, 0.5).value, 4.0);
}

TEST(PercentileTest, TenSamplesBeyondCut) {
  const Percentile short_of = ComputePercentile(OneTo(999), 0.99);
  EXPECT_EQ(short_of.beyond, 9);
  EXPECT_FALSE(short_of.supported);
  const Percentile exact = ComputePercentile(OneTo(1000), 0.99);
  EXPECT_EQ(exact.value, 990.0);
  EXPECT_EQ(exact.beyond, 10);
  EXPECT_TRUE(exact.supported);
  EXPECT_FALSE(ComputePercentile(OneTo(99), 0.90).supported);
  EXPECT_FALSE(ComputePercentile({}, 0.5).supported);
  EXPECT_EQ(ComputePercentile({}, 0.5).samples, 0);
}

TEST(PercentileTest, MinSamplesMatchesTheCut) {
  for (const double q : {0.5, 0.9, 0.99}) {
    const int64_t n = MinSamplesForPercentile(q);
    EXPECT_TRUE(ComputePercentile(OneTo(static_cast<int>(n)), q).supported) << q;
    EXPECT_FALSE(ComputePercentile(OneTo(static_cast<int>(n - 1)), q).supported)
        << q;
  }
  EXPECT_EQ(MinSamplesForPercentile(0.99), 1000);
  EXPECT_EQ(MinSamplesForPercentile(0.90), 100);
  EXPECT_EQ(MinSamplesForPercentile(0.50), 20);
}

TEST(PercentileTest, ChunkedTailIsTheMedianOfPerChunkPercentiles) {
  // Three chunks of 1000; the middle one holds a burst of 50 slow samples
  // that alone would set the whole-run p99.
  std::vector<double> values;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 1000; ++i) values.push_back(i);
  }
  for (int i = 0; i < 50; ++i) values[1000 + static_cast<size_t>(i)] = 1e6;
  values.push_back(5000.0);  // the remainder joins the last chunk
  const ChunkedPercentile tail = ComputeChunkedPercentile(values, 0.99);
  EXPECT_EQ(tail.chunks, 3);
  EXPECT_EQ(tail.percentile.samples, 3001);
  ASSERT_EQ(tail.chunk_values.size(), 3u);
  EXPECT_EQ(tail.chunk_values[0], 990.0);
  EXPECT_EQ(tail.chunk_values[1], 1e6);
  EXPECT_EQ(tail.chunk_values[2], 991.0);
  EXPECT_EQ(tail.percentile.value, 991.0);
  EXPECT_EQ(tail.percentile.beyond, 10);
  EXPECT_TRUE(tail.percentile.supported);
  EXPECT_EQ(ComputePercentile(values, 0.99).value, 1e6);
}

TEST(PercentileTest, ChunkedTailNeedsOneFullChunk) {
  const ChunkedPercentile tail = ComputeChunkedPercentile(OneTo(999), 0.99);
  EXPECT_EQ(tail.chunks, 0);
  EXPECT_FALSE(tail.percentile.supported);
  EXPECT_EQ(tail.percentile.samples, 999);
  EXPECT_TRUE(ComputeChunkedPercentile(OneTo(1000), 0.99).percentile.supported);
}

TEST(PercentileTest, MedianAndMean) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(PoissonScheduleTest, DeterministicFromSeed) {
  const std::vector<double> a = PoissonSchedule(42, 1000.0, 2.0);
  const std::vector<double> b = PoissonSchedule(42, 1000.0, 2.0);
  const std::vector<double> c = PoissonSchedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonScheduleTest, IncreasingInsideWindowAtTheRate) {
  const double rate = 2000.0;
  const double seconds = 5.0;
  const std::vector<double> due = PoissonSchedule(7, rate, seconds);
  ASSERT_FALSE(due.empty());
  for (size_t k = 1; k < due.size(); ++k) EXPECT_GT(due[k], due[k - 1]);
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), seconds);
  // Count ~ Poisson(10000): five standard deviations is +-500.
  EXPECT_NEAR(static_cast<double>(due.size()), rate * seconds, 500.0);
  // Exponential gaps: the coefficient of variation is 1.
  std::vector<double> gaps;
  for (size_t k = 1; k < due.size(); ++k) gaps.push_back(due[k] - due[k - 1]);
  const double mean = Mean(gaps);
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
  EXPECT_TRUE(PoissonSchedule(7, 0.0, 1.0).empty());
}

TEST(PoissonScheduleTest, BatchSizesDeterministicWithTheMean) {
  uint64_t a = 99;
  uint64_t b = 99;
  double sum = 0.0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    const int64_t x = SamplePoisson(8.0, a);
    EXPECT_EQ(x, SamplePoisson(8.0, b));
    EXPECT_GE(x, 0);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / n, 8.0, 0.15);
}

TEST(LadderTest, GeometricRungs) {
  const std::vector<double> rungs = RateLadder(100.0, 1000.0, 2.0);
  EXPECT_EQ(rungs, (std::vector<double>{100.0, 200.0, 400.0, 800.0}));
  EXPECT_EQ(RateLadder(500.0, 500.0, 1.1).size(), 1u);
}

TEST(LadderTest, FindsTheHighestPassingRungForEveryThreshold) {
  for (int32_t rungs : {1, 2, 7, 34}) {
    const auto bound = static_cast<size_t>(
        std::ceil(std::log2(static_cast<double>(rungs) + 1.0)));
    for (int32_t threshold = -1; threshold < rungs; ++threshold) {
      std::set<int32_t> seen;
      const LadderResult result = SearchLadder(rungs, [&](int32_t k) {
        EXPECT_TRUE(seen.insert(k).second) << "rung " << k << " probed twice";
        return k <= threshold;
      });
      EXPECT_EQ(result.index, threshold) << rungs;
      EXPECT_LE(result.probed.size(), bound) << rungs;
      EXPECT_EQ(result.probed.size(), seen.size());
    }
  }
}

TEST(LadderTest, NonMonotoneOutcomeStillReturnsAPassingRung) {
  // Rung 3 fails but 5 passes: the search never reports a rung it saw fail.
  const LadderResult result =
      SearchLadder(8, [](int32_t k) { return k != 3 && k <= 5; });
  EXPECT_GE(result.index, 0);
  EXPECT_NE(result.index, 3);
  EXPECT_LE(result.index, 5);
}

}  // namespace
}  // namespace perfbench
