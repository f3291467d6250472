#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

Percentile ComputePercentile(std::vector<double> values, double q) {
  Percentile out;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, out.samples);
  out.value = values[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  return out;
}

int64_t MinSamplesForPercentile(double q) {
  int64_t n = 1;
  while (true) {
    const auto rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
    if (n - rank >= kMinSamplesBeyond) return n;
    ++n;
  }
}

ChunkedPercentile ComputeChunkedPercentile(const std::vector<double>& values,
                                           double q) {
  ChunkedPercentile out;
  const auto chunk = static_cast<size_t>(MinSamplesForPercentile(q));
  out.percentile.samples = static_cast<int64_t>(values.size());
  out.chunks = static_cast<int64_t>(values.size() / chunk);
  if (out.chunks == 0) return out;
  out.percentile.beyond = out.percentile.samples;
  for (int64_t c = 0; c < out.chunks; ++c) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto last = c + 1 == out.chunks
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(chunk);
    const Percentile p = ComputePercentile(std::vector<double>(first, last), q);
    out.chunk_values.push_back(p.value);
    out.percentile.beyond = std::min(out.percentile.beyond, p.beyond);
  }
  out.percentile.value = Median(out.chunk_values);
  out.percentile.supported = out.percentile.beyond >= kMinSamplesBeyond;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double NextUniform(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

int64_t SamplePoisson(double mean, uint64_t& state) {
  const double limit = std::exp(-mean);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextUniform(state);
  } while (p > limit);
  return k - 1;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    // 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - NextUniform(state)) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::vector<double> RateLadder(double first, double last, double ratio) {
  std::vector<double> rungs;
  for (double r = first; r <= last * (1.0 + 1e-12); r *= ratio) {
    rungs.push_back(std::round(r));
  }
  return rungs;
}

LadderResult SearchLadder(int32_t rungs,
                          const std::function<bool(int32_t)>& passes) {
  LadderResult result;
  int32_t lo = 0;          // lowest rung not yet known to fail
  int32_t hi = rungs - 1;  // highest rung not yet known to fail
  while (lo <= hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    result.probed.push_back(mid);
    if (passes(mid)) {
      result.index = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return result;
}

}  // namespace perfbench
