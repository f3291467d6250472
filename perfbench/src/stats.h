#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile: a tail
/// figure resting on fewer than this many observations is one outlier wide.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// One nearest-rank percentile with the sample accounting that decides
/// whether it may be reported.
struct Percentile {
  double value = 0.0;
  /// Total samples the percentile was taken over.
  int64_t samples = 0;
  /// Samples strictly above the reported rank.
  int64_t beyond = 0;
  /// beyond >= kMinSamplesBeyond.
  bool supported = false;
};

/// Nearest-rank percentile of `values` (q in (0, 1]): the value at 1-based
/// rank ceil(q * n) of the sorted sample. An empty sample is unsupported.
Percentile ComputePercentile(std::vector<double> values, double q);

/// Smallest sample size whose q-percentile is supported.
int64_t MinSamplesForPercentile(double q);

/// A tail percentile robust to a burst that hits one stretch of a run (a
/// stalled CPU, a long publish): `values`, in arrival order, are cut into
/// consecutive chunks of MinSamplesForPercentile(q) samples (the remainder
/// joins the last chunk), the q-percentile is taken in each, and the median
/// of those is reported. `samples` is the total, `beyond` the smallest
/// per-chunk count, and `chunks` the number of chunks; unsupported when no
/// chunk is full.
struct ChunkedPercentile {
  Percentile percentile;
  int64_t chunks = 0;
  std::vector<double> chunk_values;
};
ChunkedPercentile ComputeChunkedPercentile(const std::vector<double>& values,
                                           double q);

/// Median of `values` (mean of the two middle values for even n); 0 when
/// empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// Poisson(mean) draw by inversion (Knuth), from a splitmix-seeded stream
/// owned by the caller.
int64_t SamplePoisson(double mean, uint64_t& state);

/// Uniform double in [0, 1) from a splitmix64 stream.
double NextUniform(uint64_t& state);

/// Due times, in seconds from the start of the window, of a Poisson arrival
/// process at `rate_per_s` over [0, seconds): exponential gaps drawn from a
/// stream seeded by `seed` alone, so the schedule is a pure function of
/// (seed, rate, seconds).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds);

/// Geometric ladder of offered rates: first, first * ratio, ... while
/// <= last.
std::vector<double> RateLadder(double first, double last, double ratio);

/// Result of the max-rate search over a fixed ladder.
struct LadderResult {
  /// Index of the highest rung found passing, or -1 when even the lowest
  /// rung failed.
  int32_t index = -1;
  /// Rung indexes probed, in probe order.
  std::vector<int32_t> probed;
};

/// Bisects the ladder for the highest passing rung, assuming pass/fail is
/// monotone in the rate: rungs below a passing rung pass, rungs above a
/// failing rung fail. Each rung is probed at most once; a non-monotone
/// probe outcome only changes which rung is returned, never the number of
/// probes (at most ceil(log2(n + 1))).
LadderResult SearchLadder(int32_t rungs,
                          const std::function<bool(int32_t)>& passes);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
