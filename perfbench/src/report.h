#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Which half of BENCHMARK.json a metric belongs to: end-to-end metrics are
/// printed by untraced runs, per-layer metrics by traced ones.
enum class MetricKind { kEndToEnd, kPerLayer };

/// One declared metric. The table in metrics.cc is the benchmark's side of
/// the contract with BENCHMARK.json; the self-test checks that the two agree.
struct MetricSpec {
  const char* name;
  const char* unit;
  /// "lower" or "higher".
  const char* better;
  MetricKind kind;
  /// Workloads that measure the metric, comma-separated: every workload for
  /// an end-to-end metric, the workloads that call the layer for a per-layer
  /// one (the others print it as 0).
  const char* workloads;
};

const std::vector<MetricSpec>& MetricTable();

/// The spec named `name`, or null.
const MetricSpec* FindMetric(const std::string& name);

/// True when `spec` lists `workload`.
bool MetricAppliesTo(const MetricSpec& spec, const std::string& workload);

/// Minimal ordered JSON object writer: keys keep insertion order, numbers
/// keep every significant digit.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, int32_t value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Everything one run reports: metric values, correctness checks, operation
/// counts, provenance, and free-form details.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Records a declared metric. An undeclared name, or one not declared for
  /// this workload, is recorded as a failed check: the run cannot print a
  /// metric BENCHMARK.json does not know.
  void Metric(const std::string& name, double value);

  /// Records a correctness check; any failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  /// Operation accounting of the measured phase.
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  JsonObject& provenance() { return provenance_; }
  JsonObject& details() { return details_; }

  bool correct() const;

  /// Renders the whole report with every declared metric of `kind`. Checks
  /// that each metric the workload measures was recorded once, and that no
  /// end-to-end metric reads 0.
  std::string Finish(MetricKind kind);

 private:
  std::string workload_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> failed_checks_;
  int64_t checks_passed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  JsonObject provenance_;
  JsonObject details_;
};

/// A percentile with its sample accounting, for the details block.
JsonObject PercentileJson(const Percentile& p);
JsonObject ChunkedPercentileJson(const ChunkedPercentile& p);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
