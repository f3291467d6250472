// ingest-durable: the write side of the incremental layer under a memory
// budget. One writer streams Poisson-sized batches through
// DurablePeerGraph::ApplyDelta with a moment-store budget below the unbounded
// store, checkpoints on a fixed cadence, and ends with a drop-and-Open
// recovery. No requests are served; the journal fsync, tile residency and
// checkpoint I/O do the work.

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/stopwatch.h"
#include "data/scenario.h"
#include "ratings/delta_journal.h"
#include "ratings/rating_delta.h"
#include "sim/durable_peer_graph.h"
#include "sim/pairwise_engine.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fairrec::DeltaApplyStats;
using fairrec::DurablePeerGraph;
using fairrec::IncrementalPeerGraphOptions;
using fairrec::RatingDelta;
using fairrec::RatingMatrix;
using fairrec::Result;
using fairrec::Status;

// 12 ratings a patient: enough for most patients to have Def. 1 peers, so
// the fairness probe has candidates to serve.
constexpr int32_t kPatients = 1000;
constexpr int32_t kDocuments = 300;
constexpr int32_t kClusters = 6;
constexpr double kDensity = 0.04;
constexpr double kPeerDelta = 0.1;
constexpr int32_t kPeerCap = 64;
// The budget as a share of the unbounded moment store: below it, so every
// apply pays the residency path.
constexpr double kBudgetShare = 0.5;
// Spill granularity: eight tiles over the 1k patients, so the residency
// manager chooses which tiles stay (the 2048-user default would make the
// whole store one tile that can never fit the budget).
constexpr int32_t kTileUsers = 128;
constexpr double kMeanUpserts = 8.0;
constexpr int64_t kCheckpointEvery = 40;
// Batches journaled after the final checkpoint: the tail every recovery
// replays, fixed so sim.recovery_s does not depend on where the window closed.
constexpr int64_t kTailBatches = 8;
constexpr int kRecoveryReps = 3;
constexpr int kSetupReps = 9;
// Groups per GroupShape the fairness probe serves from the recovered graph.
constexpr int32_t kProbeGroupsPerShape = 128;

RatingDelta NextBatch(uint64_t& state) {
  RatingDelta batch;
  const int64_t upserts = std::max<int64_t>(1, SamplePoisson(kMeanUpserts, state));
  for (int64_t u = 0; u < upserts; ++u) {
    const auto user = static_cast<fairrec::UserId>(NextUniform(state) * kPatients);
    const auto item = static_cast<fairrec::ItemId>(NextUniform(state) * kDocuments);
    const auto value =
        static_cast<fairrec::Rating>(1 + static_cast<int>(NextUniform(state) * 5));
    (void)batch.Add(user, item, value);
  }
  return batch;
}

/// Matrix, store and index in their serialized forms (the store made
/// resident first).
struct StateBytes {
  std::string matrix;
  std::string store;
  std::string index;
};

Result<StateBytes> CaptureState(DurablePeerGraph& durable) {
  FAIRREC_RETURN_NOT_OK(durable.graph().EnsureStoreResident());
  StateBytes bytes;
  durable.graph().matrix().SerializeTo(bytes.matrix);
  durable.graph().store().SerializeTo(bytes.store);
  durable.graph().index()->SerializeTo(bytes.index);
  return bytes;
}

}  // namespace

PassOutput RunIngestDurable(const RunConfig& config, Report& report) {
  PassOutput out;
  const std::string durable_dir = config.work_dir + "/durable";

  IncrementalPeerGraphOptions options;
  options.peers.delta = kPeerDelta;
  options.peers.max_peers_per_user = kPeerCap;
  options.engine.num_threads = static_cast<size_t>(config.nproc);
  options.store_spill_dir = durable_dir + "/spill";
  options.store.tile_users = kTileUsers;

  // ---- Setup, repeated: corpus, unbounded store size, seeding Open. ----
  std::vector<double> setup_s;
  std::optional<DurablePeerGraph> durable;
  size_t unbounded_store_bytes = 0;
  int64_t ratings = 0;
  std::vector<fairrec::Group> groups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    durable.reset();
    if (!ResetDir(durable_dir)) {
      report.Check("ingest.setup", false, "cannot reset " + durable_dir);
      return out;
    }
    fairrec::Stopwatch clock;
    fairrec::ScenarioConfig scenario_config;
    scenario_config.num_patients = kPatients;
    scenario_config.num_documents = kDocuments;
    scenario_config.num_clusters = kClusters;
    scenario_config.rating_density = kDensity;
    scenario_config.seed = config.seed;
    Result<fairrec::Scenario> scenario = fairrec::BuildScenario(scenario_config);
    if (!scenario.ok()) {
      report.Check("ingest.setup", false, scenario.status().ToString());
      return out;
    }
    ratings = scenario->ratings.num_ratings();
    groups = MakeGroups(*scenario, config.seed, kProbeGroupsPerShape);
    {
      const fairrec::PairwiseSimilarityEngine engine(
          &scenario->ratings, options.similarity, options.engine);
      Result<fairrec::MomentStore> store = engine.BuildMomentStore(options.store);
      if (!store.ok()) {
        report.Check("ingest.setup", false, store.status().ToString());
        return out;
      }
      unbounded_store_bytes = store->ResidentBytes();
    }
    options.store_budget_bytes = static_cast<size_t>(
        kBudgetShare * static_cast<double>(unbounded_store_bytes));
    Result<DurablePeerGraph> opened = DurablePeerGraph::Open(
        durable_dir, std::move(scenario->ratings), options);
    if (!opened.ok()) {
      report.Check("ingest.setup", false, opened.status().ToString());
      return out;
    }
    durable.emplace(std::move(opened).value());
    setup_s.push_back(clock.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_s);

  std::optional<fairrec::DeltaJournal> side_journal;
  if (trace::Enabled()) {
    Result<fairrec::DeltaJournal> journal =
        fairrec::DeltaJournal::Open(config.work_dir + "/side_journal.frj");
    if (!journal.ok()) {
      report.Check("ingest.side_journal", false, journal.status().ToString());
      return out;
    }
    side_journal.emplace(std::move(journal).value());
  }

  // ---- Measured stream. ----
  uint64_t state = config.seed ^ 0x1a9e57u;
  int64_t seq = 0;
  std::vector<double> delta_ms;
  std::vector<double> checkpoint_s;
  std::vector<DeltaApplyStats> applied;
  int64_t upserts = 0;
  int64_t failures = 0;
  int64_t attempted = 0;
  double checkpoint_mb = 0.0;
  std::string first_error;
  const auto fail = [&](const std::string& what) {
    if (failures++ == 0) first_error = what;
  };
  const auto apply = [&] {
    const RatingDelta batch = NextBatch(state);
    ++seq;
    ++attempted;
    if (side_journal.has_value()) {
      trace::Span span("ratings.journal_append");
      const Status appended = side_journal->Append(static_cast<uint64_t>(seq), batch);
      if (!appended.ok()) fail(appended.ToString());
    }
    const int64_t t0 = trace::NowNs();
    Result<DeltaApplyStats> stats = [&] {
      trace::Span span("sim.durable_apply");
      return durable->ApplyDelta(batch);
    }();
    delta_ms.push_back(static_cast<double>(trace::NowNs() - t0) / 1e6);
    if (!stats.ok()) {
      fail(stats.status().ToString());
      return;
    }
    upserts += batch.size();
    applied.push_back(*stats);
  };
  const auto checkpoint = [&] {
    ++attempted;
    fairrec::Stopwatch clock;
    const Status written = [&] {
      trace::Span span("sim.checkpoint");
      return durable->Checkpoint();
    }();
    checkpoint_s.push_back(clock.ElapsedSeconds());
    if (!written.ok()) fail(written.ToString());
    const std::string path = DurablePeerGraph::CheckpointPathOf(durable_dir);
    checkpoint_mb = Mb(static_cast<double>(FileBytes(path)));
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    out.result_digests[static_cast<uint64_t>(seq)] =
        fairrec::Crc32c(bytes.data(), bytes.size());
  };

  ResetPeakRss();
  const fairrec::Stopwatch window;
  while (window.ElapsedSeconds() < config.seconds) {
    apply();
    if (seq % kCheckpointEvery == 0) checkpoint();
  }
  checkpoint();
  for (int64_t k = 0; k < kTailBatches; ++k) apply();
  const uint64_t journal_bytes = durable->journal_bytes();

  // ---- Drop and recover. ----
  Result<StateBytes> before = CaptureState(*durable);
  durable.reset();
  std::vector<double> recovery_s;
  int64_t replayed = 0;
  Result<StateBytes> after = Status::Internal("no recovery ran");
  std::shared_ptr<const RatingMatrix> recovered_matrix;
  std::shared_ptr<const fairrec::PeerIndex> recovered_index;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    fairrec::Stopwatch clock;
    Result<DurablePeerGraph> reopened = [&] {
      trace::Span span("sim.recover");
      return DurablePeerGraph::Open(durable_dir, RatingMatrix(), options);
    }();
    recovery_s.push_back(clock.ElapsedSeconds());
    ++attempted;
    if (!reopened.ok()) {
      fail(reopened.status().ToString());
      continue;
    }
    replayed = reopened->recovery_info().replayed_batches;
    if (rep == kRecoveryReps - 1) {
      after = CaptureState(*reopened);
      recovered_matrix = reopened->graph().matrix_snapshot();
      recovered_index = reopened->graph().index();
    }
  }
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  report.AddAttempted(attempted);
  report.AddFailed(failures);
  report.Check("ingest.all_operations_ok", failures == 0, first_error);
  report.Check("ingest.recovery_replayed_tail", replayed == kTailBatches,
               "replayed " + std::to_string(replayed));
  const bool captured = before.ok() && after.ok();
  report.Check("ingest.state_captured", captured,
               !before.ok() ? before.status().ToString()
                            : (!after.ok() ? after.status().ToString() : ""));
  if (captured) {
    report.Check("ingest.recovered_matrix_identical",
                 before->matrix == after->matrix);
    report.Check("ingest.recovered_store_identical",
                 before->store == after->store);
    report.Check("ingest.recovered_index_identical",
                 before->index == after->index);
    Result<RatingMatrix> final_matrix = RatingMatrix::Deserialize(before->matrix);
    std::string fresh_bytes;
    if (final_matrix.ok()) {
      const fairrec::PairwiseSimilarityEngine engine(
          &*final_matrix, options.similarity, options.engine);
      Result<fairrec::PeerIndex> fresh = engine.BuildPeerIndex(options.peers);
      if (fresh.ok()) fresh->SerializeTo(fresh_bytes);
    }
    report.Check("ingest.index_equals_fresh_build",
                 !fresh_bytes.empty() && fresh_bytes == before->index);
  }
  RemoveDir(durable_dir);

  const Percentile delta_p50 = ComputePercentile(delta_ms, 0.50);
  const Percentile delta_p90 = ComputePercentile(delta_ms, 0.90);
  report.Check("ingest.samples.delta_p90", delta_p90.supported,
               std::to_string(delta_p90.beyond) +
                   " samples beyond the percentile");
  double apply_seconds = 0.0;
  for (const double ms : delta_ms) apply_seconds += ms / 1e3;
  // The workload's operation is a journaled batch, its side operation a
  // checkpoint, its work rate upserts per second of ApplyDelta time.
  out.end_to_end["op_p50_ms"] = delta_p50.value;
  out.end_to_end["side_p50_ms"] = 1e3 * Median(checkpoint_s);
  out.end_to_end["work_per_s"] =
      apply_seconds > 0.0 ? static_cast<double>(upserts) / apply_seconds : 0.0;

  // ---- Fairness served from the recovered graph. ----
  FairnessProbe probe;
  if (recovered_matrix != nullptr && recovered_index != nullptr) {
    probe = ProbeFairness(recovered_matrix, recovered_index, groups);
    report.Check("ingest.fairness_probe", probe.status.ok(),
                 probe.status.ToString());
    out.end_to_end["group_min_max_ratio"] = probe.mean_min_max;
  }

  if (trace::Enabled()) {
    const auto layers = trace::AggregateLayers(trace::Spans());
    const auto per_batch = [&](auto field) {
      std::vector<double> values;
      for (const DeltaApplyStats& s : applied) values.push_back(field(s));
      return Mean(values);
    };
    out.per_layer["failed_frac"] =
        static_cast<double>(failures) / static_cast<double>(attempted);
    out.per_layer["sim.apply_ms"] = MeanSelfUs(layers, "sim.durable_apply") / 1e3;
    out.per_layer["sim.changed_pairs"] = per_batch(
        [](const DeltaApplyStats& s) { return static_cast<double>(s.changed_pairs); });
    out.per_layer["sim.refinished_pairs"] = per_batch([](const DeltaApplyStats& s) {
      return static_cast<double>(s.refinished_pairs);
    });
    out.per_layer["sim.rows_patched"] = per_batch(
        [](const DeltaApplyStats& s) { return static_cast<double>(s.rows_patched); });
    out.per_layer["sim.rows_refinished"] = per_batch([](const DeltaApplyStats& s) {
      return static_cast<double>(s.rows_refinished);
    });
    out.per_layer["sim.full_rebuild_frac"] = per_batch(
        [](const DeltaApplyStats& s) { return s.used_full_rebuild ? 1.0 : 0.0; });
    out.per_layer["sim.tile_restores"] = per_batch(
        [](const DeltaApplyStats& s) { return static_cast<double>(s.tile_restores); });
    out.per_layer["sim.tile_spills"] = per_batch(
        [](const DeltaApplyStats& s) { return static_cast<double>(s.tile_spills); });
    out.per_layer["sim.spill_mb"] = per_batch([](const DeltaApplyStats& s) {
      return Mb(static_cast<double>(s.spill_bytes_written));
    });
    out.per_layer["sim.resident_mb"] = per_batch([](const DeltaApplyStats& s) {
      return Mb(static_cast<double>(s.resident_bytes));
    });
    out.per_layer["common.checkpoint_mb"] = checkpoint_mb;
    out.per_layer["sim.recovery_replayed"] = static_cast<double>(replayed);
    out.per_layer["sim.recovery_s"] = Median(recovery_s);
    out.per_layer["ratings.journal_append_ms"] =
        MeanSelfUs(layers, "ratings.journal_append") / 1e3;
    out.per_layer["ratings.journal_bytes"] = static_cast<double>(journal_bytes);
  }
  side_journal.reset();
  RemoveDir(config.work_dir + "/side_journal.frj");

  out.provenance.Add("corpus", JsonObject()
                                   .Add("generator", "BuildScenario")
                                   .Add("patients", kPatients)
                                   .Add("documents", kDocuments)
                                   .Add("clusters", kClusters)
                                   .Add("density", kDensity)
                                   .Add("ratings", ratings)
                                   .Add("peer_delta", kPeerDelta)
                                   .Add("peer_cap", kPeerCap));
  out.provenance.Add("store", JsonObject()
                                  .Add("unbounded_bytes",
                                       static_cast<uint64_t>(unbounded_store_bytes))
                                  .Add("budget_bytes",
                                       static_cast<uint64_t>(options.store_budget_bytes)));
  out.provenance.Add("threads", JsonObject()
                                    .Add("writer", 1)
                                    .Add("apply_and_seed_pool", config.nproc));
  out.provenance.Add("load", JsonObject()
                                 .Add("loop", "closed, one writer")
                                 .Add("mean_upserts_per_batch", kMeanUpserts)
                                 .Add("checkpoint_every_batches", kCheckpointEvery)
                                 .Add("tail_batches", kTailBatches));
  out.details.Add("delta_p50", PercentileJson(delta_p50))
      .Add("delta_p90", PercentileJson(delta_p90))
      .Add("batches", static_cast<int64_t>(delta_ms.size()))
      .Add("upserts", upserts)
      .Add("checkpoints", static_cast<int64_t>(checkpoint_s.size()))
      .Add("recovery_s", Median(recovery_s))
      .Add("probe_groups_answered", probe.answered)
      .Add("probe_out_of_range", probe.out_of_range)
      .Add("recovery_s_min",
           *std::min_element(recovery_s.begin(), recovery_s.end()))
      .Add("recovery_s_max",
           *std::max_element(recovery_s.begin(), recovery_s.end()));
  return out;
}

}  // namespace perfbench
