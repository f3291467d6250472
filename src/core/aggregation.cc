#include "core/aggregation.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace fairrec {

std::string_view AggregationKindToString(AggregationKind kind) {
  switch (kind) {
    case AggregationKind::kMinimum:
      return "min";
    case AggregationKind::kAverage:
      return "avg";
    case AggregationKind::kMaximum:
      return "max";
    case AggregationKind::kMedian:
      return "median";
    case AggregationKind::kMiseryBlend:
      return "misery-blend";
  }
  return "?";
}

namespace {

double Minimum(std::span<const double> scores) {
  return *std::min_element(scores.begin(), scores.end());
}

double Average(std::span<const double> scores) {
  double sum = 0.0;
  for (const double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

double Median(std::span<const double> scores) {
  // Reused per thread: a median-aggregated GroupContext calls this per item.
  thread_local std::vector<double> sorted;
  sorted.assign(scores.begin(), scores.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

}  // namespace

double Aggregate(std::span<const double> member_scores, AggregationKind kind,
                 const AggregationParams& params) {
  FAIRREC_DCHECK(!member_scores.empty());
  switch (kind) {
    case AggregationKind::kMinimum:
      return Minimum(member_scores);
    case AggregationKind::kAverage:
      return Average(member_scores);
    case AggregationKind::kMaximum:
      return *std::max_element(member_scores.begin(), member_scores.end());
    case AggregationKind::kMedian:
      return Median(member_scores);
    case AggregationKind::kMiseryBlend: {
      const double alpha = std::clamp(params.misery_alpha, 0.0, 1.0);
      return alpha * Minimum(member_scores) +
             (1.0 - alpha) * Average(member_scores);
    }
  }
  return 0.0;
}

}  // namespace fairrec
