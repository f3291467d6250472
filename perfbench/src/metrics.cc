#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

const std::vector<MetricSpec>& MetricTable() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  constexpr const char* kAll = "serve-mixed,build-cold,ingest-durable";
  constexpr const char* kServe = "serve-mixed";
  constexpr const char* kBuild = "build-cold";
  constexpr const char* kIngest = "ingest-durable";
  constexpr const char* kDelta = "serve-mixed,ingest-durable";
  static const std::vector<MetricSpec> table = {
      // ---- End to end (untraced runs), measured by every workload. ----
      {"setup_s", "s", "lower", E, kAll},
      {"peak_rss_mb", "MB", "lower", E, kAll},
      {"op_p50_ms", "ms", "lower", E, kAll},
      {"side_p50_ms", "ms", "lower", E, kAll},
      {"work_per_s", "1/s", "higher", E, kAll},
      {"group_min_max_ratio", "ratio", "higher", E, kAll},
      // ---- Per layer (traced runs). ----
      {"failed_frac", "ratio", "lower", L, kAll},
      {"trace.overhead_pct", "%", "lower", L, kAll},
      // serve
      {"serve.acquire_us", "us", "lower", L, kServe},
      {"serve.wait_ms", "ms", "lower", L, kServe},
      {"serve.queue_peak", "count", "lower", L, kServe},
      {"serve.shed", "count", "lower", L, kServe},
      {"serve.gen_late_ms", "ms", "lower", L, kServe},
      // cf
      {"cf.relevance_us", "us", "lower", L, kServe},
      {"cf.peers_per_member", "count", "lower", L, kServe},
      {"cf.user_topk_us", "us", "lower", L, kServe},
      // core
      {"core.context_us", "us", "lower", L, kServe},
      {"core.candidates", "count", "lower", L, kServe},
      {"core.select_us.algorithm1", "us", "lower", L, kServe},
      {"core.select_us.local-search", "us", "lower", L, kServe},
      {"core.select_us.envy-swap", "us", "lower", L, kServe},
      {"core.select_us.fair-package", "us", "lower", L, kServe},
      {"core.select_us.least-misery", "us", "lower", L, kServe},
      {"core.select_us.greedy-value", "us", "lower", L, kServe},
      // eval
      {"eval.fairness_us", "us", "lower", L, kServe},
      // sim, incremental patch path
      {"sim.apply_ms", "ms", "lower", L, kDelta},
      {"sim.changed_pairs", "count", "lower", L, kDelta},
      {"sim.refinished_pairs", "count", "lower", L, kDelta},
      {"sim.rows_patched", "count", "lower", L, kDelta},
      {"sim.rows_refinished", "count", "lower", L, kDelta},
      {"sim.full_rebuild_frac", "ratio", "lower", L, kDelta},
      // sim, residency and durability
      {"sim.tile_restores", "count", "lower", L, kIngest},
      {"sim.tile_spills", "count", "lower", L, kIngest},
      {"sim.spill_mb", "MB", "lower", L, kIngest},
      {"sim.resident_mb", "MB", "lower", L, kIngest},
      {"common.checkpoint_mb", "MB", "lower", L, kIngest},
      {"sim.recovery_replayed", "count", "lower", L, kIngest},
      {"sim.recovery_s", "s", "lower", L, kIngest},
      // ratings
      {"ratings.journal_append_ms", "ms", "lower", L, kIngest},
      {"ratings.journal_bytes", "count", "lower", L, kIngest},
      // sim, engine sweep
      {"sim.co_ratings", "count", "lower", L, kBuild},
      {"sim.accumulate_s", "s", "lower", L, kBuild},
      {"sim.finish_s", "s", "lower", L, kBuild},
      {"sim.pairs_finished", "count", "lower", L, kBuild},
      {"sim.index_mb", "MB", "lower", L, kBuild},
      // dist
      {"dist.worker_s.max", "s", "lower", L, kBuild},
      {"dist.worker_skew", "ratio", "lower", L, kBuild},
      {"dist.write_s", "s", "lower", L, kBuild},
      {"dist.merge_s", "s", "lower", L, kBuild},
      {"dist.artifact_mb", "MB", "lower", L, kBuild},
      {"dist.attempts_failed", "count", "lower", L, kBuild},
  };
  return table;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& spec : MetricTable()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

bool MetricAppliesTo(const MetricSpec& spec, const std::string& workload) {
  const std::string list = std::string(",") + spec.workloads + ",";
  return list.find("," + workload + ",") != std::string::npos;
}

}  // namespace perfbench
