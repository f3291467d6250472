// build-cold: the operator's re-index path. A cold Def. 1 peer-graph build of
// a larger clustered corpus, once through the in-process engine and once
// through the distributed coordinator, alternating until the window closes.
// sim and dist do all the measured work; cf and core run only in the
// fairness probe after the window.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/stopwatch.h"
#include "data/scenario.h"
#include "dist/coordinator.h"
#include "dist/partial_artifact.h"
#include "sim/pairwise_engine.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fairrec::DistBuildCoordinator;
using fairrec::DistBuildOptions;
using fairrec::PairwiseEngineStats;
using fairrec::PeerIndex;
using fairrec::PeerIndexOptions;
using fairrec::RatingMatrix;
using fairrec::Result;
using fairrec::Status;

constexpr int32_t kPatients = 16000;
constexpr int32_t kDocuments = 3200;
constexpr int32_t kClusters = 8;
constexpr double kDensity = 0.01;
constexpr double kPeerDelta = 0.1;
constexpr int32_t kPeerCap = 64;
// Each build runs at least this often, so the reported medians rest on more
// than one build even when the window is short.
constexpr int kMinBuilds = 3;
constexpr int kSetupReps = 9;
// Groups per GroupShape the fairness probe serves from the built index.
constexpr int32_t kProbeGroupsPerShape = 64;

/// The coordinator's in-process worker (BuildPartialPeerArtifact, then
/// WriteFile), with a span around each of the two calls.
Status TracedWorker(const RatingMatrix& matrix,
                    const fairrec::PartitionDescriptor& partition,
                    int32_t attempt, const fairrec::DistWorkerOptions& options,
                    const std::string& path) {
  trace::Span worker("dist.worker");
  Result<fairrec::PartialPeerArtifact> artifact = [&] {
    trace::Span span("dist.sweep");
    return fairrec::BuildPartialPeerArtifact(matrix, partition, attempt,
                                             options);
  }();
  if (!artifact.ok()) return artifact.status();
  trace::Span span("dist.write");
  return artifact->WriteFile(path);
}

/// Per-build figures of the dist spans: the spans of build k are the ones
/// that started inside the k-th "dist.run" span.
struct DistSpanFigures {
  std::vector<double> worker_max_s;
  std::vector<double> worker_skew;
  std::vector<double> write_s;
};

DistSpanFigures FiguresFromSpans(const std::vector<trace::SpanRecord>& spans) {
  DistSpanFigures figures;
  for (const trace::SpanRecord& run : spans) {
    if (std::string(run.name) != "dist.run") continue;
    double slowest = 0.0;
    double fastest = 0.0;
    double write = 0.0;
    int workers = 0;
    for (const trace::SpanRecord& span : spans) {
      if (span.start_ns < run.start_ns || span.start_ns > run.end_ns) continue;
      const double seconds =
          static_cast<double>(span.end_ns - span.start_ns) / 1e9;
      const std::string name = span.name;
      if (name == "dist.worker") {
        slowest = workers == 0 ? seconds : std::max(slowest, seconds);
        fastest = workers == 0 ? seconds : std::min(fastest, seconds);
        ++workers;
      } else if (name == "dist.write") {
        write += seconds;
      }
    }
    if (workers == 0) continue;
    figures.worker_max_s.push_back(slowest);
    figures.worker_skew.push_back(fastest > 0.0 ? slowest / fastest : 0.0);
    figures.write_s.push_back(write);
  }
  return figures;
}

}  // namespace

PassOutput RunBuildCold(const RunConfig& config, Report& report) {
  PassOutput out;

  std::vector<double> setup_s;
  RatingMatrix matrix;
  std::vector<fairrec::Group> groups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    matrix = RatingMatrix();
    fairrec::Stopwatch clock;
    fairrec::ScenarioConfig scenario_config;
    scenario_config.num_patients = kPatients;
    scenario_config.num_documents = kDocuments;
    scenario_config.num_clusters = kClusters;
    scenario_config.rating_density = kDensity;
    scenario_config.seed = config.seed;
    Result<fairrec::Scenario> scenario = fairrec::BuildScenario(scenario_config);
    if (!scenario.ok()) {
      report.Check("build.setup", false, scenario.status().ToString());
      return out;
    }
    groups = MakeGroups(*scenario, config.seed, kProbeGroupsPerShape);
    matrix = std::move(scenario->ratings);
    setup_s.push_back(clock.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_s);

  // Co-rating work of the sweep: sum over items of |U(i)|^2.
  double co_ratings = 0.0;
  for (fairrec::ItemId i = 0; i < matrix.num_items(); ++i) {
    const double raters = matrix.ItemDegree(i);
    co_ratings += raters * raters;
  }

  PeerIndexOptions peers;
  peers.delta = kPeerDelta;
  peers.max_peers_per_user = kPeerCap;
  fairrec::PairwiseEngineOptions engine_options;
  engine_options.num_threads = static_cast<size_t>(config.nproc);
  const fairrec::PairwiseSimilarityEngine engine(&matrix, {}, engine_options);
  const std::string artifact_dir = config.work_dir + "/artifacts";

  std::vector<double> build_s;
  std::vector<double> dist_build_s;
  std::vector<double> merge_s;
  std::vector<double> accumulate_s;
  std::vector<double> finish_s;
  int64_t pairs_finished = 0;
  double index_mb = 0.0;
  double artifact_mb = 0.0;
  int64_t attempts_failed = 0;
  int64_t failures = 0;
  int64_t attempted = 0;
  std::string engine_bytes;
  std::string first_error;
  const auto fail = [&](const std::string& what) {
    if (failures++ == 0) first_error = what;
  };

  ResetPeakRss();
  const fairrec::Stopwatch window;
  for (int iter = 0; iter < kMinBuilds || window.ElapsedSeconds() < config.seconds;
       ++iter) {
    // Engine build.
    ++attempted;
    PairwiseEngineStats stats;
    fairrec::Stopwatch clock;
    Result<PeerIndex> index = [&] {
      trace::Span span("sim.build_peer_index");
      return engine.BuildPeerIndex(peers, &stats);
    }();
    build_s.push_back(clock.ElapsedSeconds());
    if (!index.ok()) {
      fail(index.status().ToString());
      continue;
    }
    accumulate_s.push_back(stats.accumulate_seconds);
    finish_s.push_back(stats.finish_seconds);
    pairs_finished = stats.pairs_finished;
    index_mb = Mb(static_cast<double>(index->StorageBytes()));
    std::string bytes;
    index->SerializeTo(bytes);
    if (engine_bytes.empty()) engine_bytes = bytes;
    report.Check("build.engine_deterministic", bytes == engine_bytes,
                 "engine build " + std::to_string(iter) + " differs");

    // Distributed build into a fresh artifact directory.
    ++attempted;
    if (!ResetDir(artifact_dir)) {
      fail("cannot reset " + artifact_dir);
      continue;
    }
    DistBuildOptions options;
    options.num_partitions = config.nproc;
    options.worker_slots = static_cast<size_t>(config.nproc);
    options.artifact_dir = artifact_dir;
    options.worker.peers = peers;
    clock.Restart();
    Result<fairrec::DistBuildResult> dist = [&] {
      trace::Span span("dist.run");
      DistBuildCoordinator coordinator(&matrix, options);
      coordinator.set_worker_fn(TracedWorker);
      return coordinator.Run();
    }();
    dist_build_s.push_back(clock.ElapsedSeconds());
    if (!dist.ok()) {
      fail(dist.status().ToString());
      continue;
    }
    attempts_failed += dist->stats.attempts_failed;
    artifact_mb = Mb(static_cast<double>(DirBytes(artifact_dir)));
    std::string dist_bytes;
    dist->index.SerializeTo(dist_bytes);
    report.Check("build.dist_index_equals_engine", dist_bytes == engine_bytes,
                 "coordinator build " + std::to_string(iter) + " differs");

    if (trace::Enabled()) {
      // The merge stage on its own, from the artifacts the run left.
      clock.Restart();
      Result<PeerIndex> merged = [&] {
        trace::Span span("dist.merge");
        return fairrec::MergePartialArtifactFiles(dist->artifact_paths);
      }();
      merge_s.push_back(clock.ElapsedSeconds());
      std::string merged_bytes;
      if (merged.ok()) merged->SerializeTo(merged_bytes);
      report.Check("build.merged_files_equal_engine",
                   merged.ok() && merged_bytes == engine_bytes,
                   merged.ok() ? "bytes differ" : merged.status().ToString());
    }
  }
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  RemoveDir(artifact_dir);
  report.AddAttempted(attempted);
  report.AddFailed(failures);
  report.Check("build.all_builds_ok", failures == 0, first_error);

  // The workload's operation is an engine build, its side operation a
  // coordinator build; its work rate counts patient rows indexed per second
  // of build time on both paths.
  out.end_to_end["op_p50_ms"] = 1e3 * Median(build_s);
  out.end_to_end["side_p50_ms"] = 1e3 * Median(dist_build_s);
  double build_seconds = 0.0;
  for (const double s : build_s) build_seconds += s;
  for (const double s : dist_build_s) build_seconds += s;
  out.end_to_end["work_per_s"] =
      static_cast<double>(kPatients) *
      static_cast<double>(build_s.size() + dist_build_s.size()) / build_seconds;

  // ---- Fairness served from the built index. ----
  FairnessProbe probe;
  Result<PeerIndex> built = PeerIndex::Deserialize(engine_bytes);
  if (built.ok()) {
    probe = ProbeFairness(std::make_shared<const RatingMatrix>(matrix),
                          std::make_shared<const PeerIndex>(std::move(built).value()),
                          groups);
  } else {
    probe.status = built.status();
  }
  report.Check("build.fairness_probe", probe.status.ok(), probe.status.ToString());
  out.end_to_end["group_min_max_ratio"] = probe.mean_min_max;
  out.result_digests[0] =
      fairrec::Crc32c(engine_bytes.data(), engine_bytes.size());

  if (trace::Enabled()) {
    const DistSpanFigures figures = FiguresFromSpans(trace::Spans());
    out.per_layer["failed_frac"] =
        static_cast<double>(failures) / static_cast<double>(attempted);
    out.per_layer["sim.co_ratings"] = co_ratings;
    out.per_layer["sim.accumulate_s"] = Median(accumulate_s);
    out.per_layer["sim.finish_s"] = Median(finish_s);
    out.per_layer["sim.pairs_finished"] = static_cast<double>(pairs_finished);
    out.per_layer["sim.index_mb"] = index_mb;
    out.per_layer["dist.worker_s.max"] = Median(figures.worker_max_s);
    out.per_layer["dist.worker_skew"] = Median(figures.worker_skew);
    out.per_layer["dist.write_s"] = Median(figures.write_s);
    out.per_layer["dist.merge_s"] = Median(merge_s);
    out.per_layer["dist.artifact_mb"] = artifact_mb;
    out.per_layer["dist.attempts_failed"] = static_cast<double>(attempts_failed);
  }

  out.provenance.Add("corpus", JsonObject()
                                   .Add("generator", "BuildScenario")
                                   .Add("patients", kPatients)
                                   .Add("documents", kDocuments)
                                   .Add("clusters", kClusters)
                                   .Add("density", kDensity)
                                   .Add("ratings", matrix.num_ratings())
                                   .Add("peer_delta", kPeerDelta)
                                   .Add("peer_cap", kPeerCap));
  out.provenance.Add("threads", JsonObject()
                                    .Add("engine_sweep", config.nproc)
                                    .Add("dist_partitions", config.nproc)
                                    .Add("dist_worker_slots", config.nproc));
  out.provenance.Add("load", JsonObject()
                                 .Add("loop", "closed, builds back to back")
                                 .Add("min_builds", kMinBuilds));
  out.details.Add("engine_builds", static_cast<int64_t>(build_s.size()))
      .Add("dist_builds", static_cast<int64_t>(dist_build_s.size()))
      .Add("build_s_min", *std::min_element(build_s.begin(), build_s.end()))
      .Add("build_s_max", *std::max_element(build_s.begin(), build_s.end()))
      .Add("dist_build_s_min",
           *std::min_element(dist_build_s.begin(), dist_build_s.end()))
      .Add("dist_build_s_max",
           *std::max_element(dist_build_s.begin(), dist_build_s.end()))
      .Add("co_ratings", co_ratings)
      .Add("build_s", Median(build_s))
      .Add("dist_build_s", Median(dist_build_s))
      .Add("probe_groups_answered", probe.answered)
      .Add("probe_out_of_range", probe.out_of_range);
  return out;
}

}  // namespace perfbench
