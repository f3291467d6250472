// serve-mixed: open-loop Poisson traffic into ServingServer while a publisher
// applies rating batches through LivePeerGraph. The caregiver's path, with
// reads beside writes; cf, core and serve do almost all the work and nothing
// touches disk.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cf/recommender.h"
#include "common/crc32c.h"
#include "common/stopwatch.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/fairness_metrics.h"
#include "ratings/rating_delta.h"
#include "serve/recommendation_service.h"
#include "serve/server.h"
#include "serve/snapshot_source.h"
#include "sim/incremental_peer_graph.h"
#include "sim/pairwise_engine.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fairrec::DeltaApplyStats;
using fairrec::GroupContext;
using fairrec::IncrementalPeerGraph;
using fairrec::IncrementalPeerGraphOptions;
using fairrec::MemberRelevance;
using fairrec::RatingDelta;
using fairrec::Recommender;
using fairrec::Result;
using fairrec::Selection;
using fairrec::Status;
using fairrec::UserId;
using fairrec::serve::GroupRecRequest;
using fairrec::serve::GroupRecResponse;
using fairrec::serve::LivePeerGraph;
using fairrec::serve::MemberSatisfaction;
using fairrec::serve::RecommendationService;
using fairrec::serve::RecommendationServiceOptions;
using fairrec::serve::ServingServer;
using fairrec::serve::ServingServerOptions;
using fairrec::serve::ServingServerStats;
using fairrec::serve::ServingSnapshot;
using fairrec::serve::SnapshotSource;
using fairrec::serve::UserRecRequest;
using fairrec::serve::UserRecResponse;

// Corpus: the 5k-patient x 1k-document, 2% shape the per-stage costs in
// README.md were first measured at.
constexpr int32_t kPatients = 5000;
constexpr int32_t kDocuments = 1000;
constexpr int32_t kClusters = 6;
constexpr double kDensity = 0.02;
constexpr double kPeerDelta = 0.1;
// Capped peer lists, as a serving deployment builds them.
constexpr int32_t kPeerCap = 64;

// Threads: the generator (main, spinning to each due time), kWorkers serving
// workers, one publisher.
constexpr int32_t kWorkers = 2;
constexpr int32_t kMaxQueue = 256;

// Traffic mix.
constexpr double kGroupShare = 0.6;
constexpr int32_t kGroupsPerShape = 128;

struct SelectorMix {
  const char* name;
  const char* span;
  const char* metric;
  double weight;
};
// Weighted toward the paper's Algorithm 1; brute-force is exponential in z
// and stays out of served traffic.
constexpr SelectorMix kSelectors[] = {
    {"algorithm1", "core.select.algorithm1", "core.select_us.algorithm1", 0.5},
    {"local-search", "core.select.local-search", "core.select_us.local-search",
     0.1},
    {"envy-swap", "core.select.envy-swap", "core.select_us.envy-swap", 0.1},
    {"fair-package", "core.select.fair-package", "core.select_us.fair-package",
     0.1},
    {"least-misery", "core.select.least-misery", "core.select_us.least-misery",
     0.1},
    {"greedy-value", "core.select.greedy-value", "core.select_us.greedy-value",
     0.1},
};
constexpr int32_t kNumSelectors =
    static_cast<int32_t>(sizeof(kSelectors) / sizeof(kSelectors[0]));

// Phases of the measured window, as shares of --seconds: the fixed-rate
// latency phase first (long enough for several 1000-sample p99 chunks of each
// request kind), then the ladder probes.
constexpr double kFixedRate = 600.0;
constexpr double kFixedShare = 0.7;
constexpr double kProbeMinShare = 0.06;
// The stated latency limit of max_qps_at_slo: well above the multi-ms bursts
// a shared host's CPU steal adds, so a probe fails on queueing, not on one
// stall.
constexpr double kSloGroupP99Ms = 20.0;
constexpr double kLadderFirst = 1000.0;
constexpr double kLadderLast = 16000.0;
constexpr double kLadderRatio = 1.05;

// Publisher: small Poisson batches on a fixed schedule.
constexpr double kPublishIntervalS = 0.1;
constexpr double kPublishMeanUpserts = 8.0;
// Snapshots pinned for replay: every kRetainEvery-th generation (all of them
// would hold one matrix + index copy per publish).
constexpr uint64_t kRetainEvery = 16;

constexpr int kSetupReps = 5;

/// Forwards to the live graph, with a span around each acquire and the
/// acquired generation left in a thread-local for the completion callback
/// (which runs on the same worker right after the request).
thread_local uint64_t t_last_generation = 0;

class TracedSource final : public SnapshotSource {
 public:
  explicit TracedSource(const LivePeerGraph* live) : live_(live) {}
  ServingSnapshot Acquire() const override {
    trace::Span span("serve.acquire");
    ServingSnapshot snapshot = live_->Acquire();
    t_last_generation = snapshot.generation;
    return snapshot;
  }

 private:
  const LivePeerGraph* live_;
};

struct World {
  std::vector<fairrec::Group> groups;
  std::unique_ptr<LivePeerGraph> live;
  int64_t ratings = 0;
};

Result<World> BuildWorld(uint64_t seed, int32_t nproc) {
  fairrec::ScenarioConfig scenario_config;
  scenario_config.num_patients = kPatients;
  scenario_config.num_documents = kDocuments;
  scenario_config.num_clusters = kClusters;
  scenario_config.rating_density = kDensity;
  scenario_config.seed = seed;
  FAIRREC_ASSIGN_OR_RETURN(fairrec::Scenario scenario,
                           fairrec::BuildScenario(scenario_config));
  World world;
  world.groups = MakeGroups(scenario, seed, kGroupsPerShape);
  world.ratings = scenario.ratings.num_ratings();
  IncrementalPeerGraphOptions options;
  options.peers.delta = kPeerDelta;
  options.peers.max_peers_per_user = kPeerCap;
  // The seeding sweep may use every core; the live graph then patches on the
  // publisher's one thread, inside the run's thread budget.
  fairrec::PairwiseEngineOptions seed_engine = options.engine;
  seed_engine.num_threads = static_cast<size_t>(nproc);
  const fairrec::PairwiseSimilarityEngine engine(&scenario.ratings,
                                                 options.similarity, seed_engine);
  FAIRREC_ASSIGN_OR_RETURN(fairrec::MomentStore store,
                           engine.BuildMomentStore(options.store));
  FAIRREC_ASSIGN_OR_RETURN(fairrec::PeerIndex index,
                           engine.BuildPeerIndex(options.peers));
  options.engine.num_threads = 1;
  FAIRREC_ASSIGN_OR_RETURN(
      IncrementalPeerGraph graph,
      IncrementalPeerGraph::FromArtifacts(std::move(scenario.ratings),
                                          std::move(store), std::move(index),
                                          options));
  world.live = std::make_unique<LivePeerGraph>(std::move(graph));
  return world;
}

struct Request {
  bool group = false;
  int32_t group_index = 0;
  int32_t selector = 0;
  UserId user = 0;
  double due_s = 0.0;
};

std::vector<Request> MakeSchedule(uint64_t seed, double rate, double seconds,
                                  int32_t num_groups) {
  std::vector<Request> schedule;
  uint64_t state = seed ^ 0x5c4edu;
  for (const double due : PoissonSchedule(seed, rate, seconds)) {
    Request r;
    r.due_s = due;
    r.group = NextUniform(state) < kGroupShare;
    if (r.group) {
      r.group_index = std::min(
          num_groups - 1, static_cast<int32_t>(NextUniform(state) * num_groups));
      double pick = NextUniform(state);
      r.selector = kNumSelectors - 1;
      for (int32_t s = 0; s < kNumSelectors; ++s) {
        if (pick < kSelectors[s].weight) {
          r.selector = s;
          break;
        }
        pick -= kSelectors[s].weight;
      }
    } else {
      r.user = std::min(kPatients - 1,
                        static_cast<UserId>(NextUniform(state) * kPatients));
    }
    schedule.push_back(r);
  }
  return schedule;
}

enum class State { kPending, kOk, kOutOfRange, kError, kShed };

struct Outcome {
  State state = State::kPending;
  int64_t done_ns = 0;
  /// Generation the serving worker acquired for the request.
  uint64_t generation = 0;
  std::string error;
  GroupRecResponse group;
  UserRecResponse user;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<int64_t> due_ns;
  std::vector<double> late_ms;
  ServingServerStats stats;
  /// Requests admitted but not completed when the last one was submitted.
  int64_t outstanding_at_end = 0;
};

/// Plays `schedule` open-loop into a fresh ServingServer: each request is
/// submitted at its due time whatever the state of earlier ones, and timed
/// from that due time.
PhaseResult RunOpenLoop(const RecommendationService& service,
                        const std::vector<Request>& schedule,
                        const std::vector<fairrec::Group>& groups,
                        bool keep_responses, uint64_t request_base) {
  PhaseResult phase;
  const size_t n = schedule.size();
  phase.outcomes.resize(n);
  phase.due_ns.resize(n);
  phase.late_ms.reserve(n);
  std::atomic<int64_t> completed{0};
  int64_t admitted = 0;

  ServingServerOptions server_options;
  server_options.num_workers = kWorkers;
  server_options.max_queue = kMaxQueue;
  ServingServer server(&service, server_options);

  // One clock reading anchors both the sleeps and the due times.
  const int64_t start_ns = trace::NowNs() + 2'000'000;
  const std::chrono::steady_clock::time_point start{
      std::chrono::nanoseconds(start_ns)};
  for (size_t i = 0; i < n; ++i) {
    const Request& r = schedule[i];
    const auto offset = std::chrono::nanoseconds(
        static_cast<int64_t>(r.due_s * 1e9));
    phase.due_ns[i] = start_ns + offset.count();
    // Spin, not sleep: a sleeping generator's wake-up latency (timer slack,
    // and on a virtual machine the halted vCPU's reschedule) would be timed
    // into every request as lateness.
    while (std::chrono::steady_clock::now() < start + offset) {
    }
    phase.late_ms.push_back(
        static_cast<double>(trace::NowNs() - phase.due_ns[i]) / 1e6);
    Outcome* outcome = &phase.outcomes[i];
    const uint64_t request_id = request_base + i;
    Status submitted;
    if (r.group) {
      GroupRecRequest request;
      request.members = groups[static_cast<size_t>(r.group_index)];
      request.z = kGroupZ;
      request.selector = kSelectors[r.selector].name;
      submitted = server.SubmitGroup(
          std::move(request),
          [outcome, &completed, keep_responses,
           request_id](Result<GroupRecResponse> result) {
            outcome->done_ns = trace::NowNs();
            outcome->generation = t_last_generation;
            trace::Claim(request_id);
            if (result.ok()) {
              outcome->state = State::kOk;
              if (keep_responses) outcome->group = std::move(result).value();
            } else if (result.status().IsOutOfRange()) {
              outcome->state = State::kOutOfRange;
            } else {
              outcome->state = State::kError;
              outcome->error = result.status().ToString();
            }
            completed.fetch_add(1, std::memory_order_release);
          });
    } else {
      UserRecRequest request;
      request.user = r.user;
      submitted = server.SubmitUser(
          request, [outcome, &completed, keep_responses,
                    request_id](Result<UserRecResponse> result) {
            outcome->done_ns = trace::NowNs();
            outcome->generation = t_last_generation;
            trace::Claim(request_id);
            if (result.ok()) {
              outcome->state = State::kOk;
              if (keep_responses) outcome->user = std::move(result).value();
            } else {
              outcome->state = State::kError;
              outcome->error = result.status().ToString();
            }
            completed.fetch_add(1, std::memory_order_release);
          });
    }
    if (submitted.ok()) {
      ++admitted;
    } else {
      outcome->state =
          submitted.IsResourceExhausted() ? State::kShed : State::kError;
      outcome->error = submitted.ToString();
    }
  }
  phase.outstanding_at_end =
      admitted - completed.load(std::memory_order_acquire);
  server.Shutdown();
  phase.stats = server.stats();
  return phase;
}

double LatencyMs(const PhaseResult& phase, size_t i) {
  return static_cast<double>(phase.outcomes[i].done_ns - phase.due_ns[i]) /
         1e6;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameItems(const std::vector<fairrec::ScoredItem>& a,
               const std::vector<fairrec::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].item != b[k].item || !SameBits(a[k].score, b[k].score)) {
      return false;
    }
  }
  return true;
}

bool SameGroupResponse(const GroupRecResponse& a, const GroupRecResponse& b) {
  if (a.generation != b.generation || a.selector != b.selector ||
      !SameItems(a.items, b.items) ||
      !SameBits(a.score.fairness, b.score.fairness) ||
      !SameBits(a.score.relevance_sum, b.score.relevance_sum) ||
      !SameBits(a.score.value, b.score.value) ||
      a.members.size() != b.members.size()) {
    return false;
  }
  for (size_t m = 0; m < a.members.size(); ++m) {
    const MemberSatisfaction& x = a.members[m];
    const MemberSatisfaction& y = b.members[m];
    if (x.user != y.user || x.satisfied != y.satisfied ||
        !SameBits(x.relevance_sum, y.relevance_sum) ||
        !SameBits(x.satisfaction, y.satisfaction)) {
      return false;
    }
  }
  return true;
}

struct GroupReplay {
  Status status;
  GroupRecResponse response;
  /// Relevance + context + selection: the service time of the request.
  double service_us = 0.0;
  double fairness_min_max = 1.0;
};

/// Re-runs one group request stage by stage, in the service's order
/// (serve/recommendation_service.cc), on its pinned snapshot, with a span
/// around each call into a layer.
GroupReplay ReplayGroup(const RecommendationService& service,
                        const ServingSnapshot& snapshot,
                        const GroupRecRequest& request, int32_t selector_index,
                        RecommendationService::Scratch& scratch) {
  GroupReplay replay;
  trace::Span whole("serve.replay_group");
  const int64_t start_ns = trace::NowNs();
  const Recommender recommender =
      snapshot.MakeRecommender(service.options().recommender);
  Result<std::vector<MemberRelevance>> members = [&] {
    trace::Span span("cf.relevance");
    return recommender.RelevanceForGroup(request.members, scratch);
  }();
  if (!members.ok()) {
    replay.status = members.status();
    return replay;
  }
  for (const MemberRelevance& member : *members) {
    trace::Count("cf.peers", static_cast<double>(member.peers.size()));
  }
  Result<GroupContext> context = [&] {
    trace::Span span("core.context");
    return GroupContext::Build(*members, service.options().context);
  }();
  if (!context.ok()) {
    replay.status = context.status();
    return replay;
  }
  trace::Count("core.candidates", context->num_candidates());
  if (request.z > context->num_candidates()) {
    replay.status = Status::OutOfRange("z exceeds candidates");
    return replay;
  }
  Result<const fairrec::ItemSetSelector*> selector =
      service.selector(request.selector);
  if (!selector.ok()) {
    replay.status = selector.status();
    return replay;
  }
  Result<Selection> selection = [&] {
    trace::Span span(kSelectors[selector_index].span);
    return (*selector)->Select(*context, request.z);
  }();
  replay.service_us = static_cast<double>(trace::NowNs() - start_ns) / 1e3;
  if (!selection.ok()) {
    replay.status = selection.status();
    return replay;
  }
  {
    trace::Span span("eval.fairness");
    replay.fairness_min_max =
        fairrec::ComputeFairnessReport(*context, *selection).min_max_ratio;
  }
  GroupRecResponse& response = replay.response;
  response.generation = snapshot.generation;
  response.selector = (*selector)->name();
  response.score = selection->score;
  for (const fairrec::ItemId item : selection->items) {
    const int32_t index = context->CandidateIndexOf(item);
    response.items.push_back(
        {item, index >= 0 ? context->candidate(index).group_relevance : 0.0});
  }
  for (int32_t m = 0; m < context->group_size(); ++m) {
    const fairrec::MemberBreakdown& row =
        selection->members[static_cast<size_t>(m)];
    MemberSatisfaction sat;
    sat.user = context->members()[static_cast<size_t>(m)];
    sat.satisfied = row.satisfied;
    sat.relevance_sum = row.relevance_sum;
    sat.satisfaction = row.satisfaction;
    response.members.push_back(sat);
  }
  return replay;
}

/// max_qps_at_slo: bisection over the fixed rate ladder, one open-loop probe
/// per visited rung.
struct MaxQps {
  LadderResult search;
  /// The highest passing rung's rate as actually served: its Poisson
  /// schedule's realized arrivals (all completed, or it would not pass)
  /// over the probe window. 0 when no rung passed.
  double served_per_s = 0.0;
  JsonObject probes;
};

MaxQps SearchMaxQps(const RecommendationService& service,
                    const std::vector<fairrec::Group>& groups,
                    const RunConfig& config, uint64_t request_base) {
  MaxQps out;
  const std::vector<double> ladder =
      RateLadder(kLadderFirst, kLadderLast, kLadderRatio);
  const auto num_groups = static_cast<int32_t>(groups.size());
  std::map<int32_t, double> served_rate;
  int32_t probe_count = 0;
  out.search = SearchLadder(
      static_cast<int32_t>(ladder.size()), [&](int32_t rung) {
        const double rate = ladder[static_cast<size_t>(rung)];
        const double seconds = std::max(
            kProbeMinShare * config.seconds,
            1.25 * static_cast<double>(MinSamplesForPercentile(0.99)) /
                (rate * kGroupShare));
        const std::vector<Request> schedule = MakeSchedule(
            config.seed * 7919u + static_cast<uint64_t>(rung), rate, seconds,
            num_groups);
        PhaseResult probe = RunOpenLoop(service, schedule, groups,
                                        /*keep_responses=*/false, request_base);
        request_base += schedule.size();
        std::vector<double> group_ms;
        int64_t errors = 0;
        for (size_t i = 0; i < schedule.size(); ++i) {
          const State state = probe.outcomes[i].state;
          if (state == State::kError) ++errors;
          if (schedule[i].group && state == State::kOk) {
            group_ms.push_back(LatencyMs(probe, i));
          }
        }
        const Percentile p99 = ComputePercentile(group_ms, 0.99);
        const int64_t backlog_limit =
            static_cast<int64_t>(std::ceil(rate * kSloGroupP99Ms / 1e3)) +
            kWorkers;
        const bool pass = p99.supported && p99.value <= kSloGroupP99Ms &&
                          probe.stats.shed == 0 && errors == 0 &&
                          probe.outstanding_at_end <= backlog_limit;
        served_rate[rung] = static_cast<double>(probe.stats.completed_ok +
                                                probe.stats.completed_error) /
                            seconds;
        out.probes.Add(std::to_string(probe_count++),
                       JsonObject()
                           .Add("rate", rate)
                           .Add("served_per_s", served_rate[rung])
                           .Add("seconds", seconds)
                           .Add("group_p99", PercentileJson(p99))
                           .Add("shed", static_cast<uint64_t>(probe.stats.shed))
                           .Add("errors", errors)
                           .Add("outstanding_at_end", probe.outstanding_at_end)
                           .Add("backlog_limit", backlog_limit)
                           .Add("pass", pass));
        return pass;
      });
  if (out.search.index >= 0) out.served_per_s = served_rate[out.search.index];
  return out;
}

/// What replaying the fixed-rate phase found.
struct ReplaySummary {
  int64_t replayed = 0;
  int64_t mismatches = 0;
  int64_t fairness_mismatches = 0;
  int64_t out_of_range = 0;
  /// Served latency minus replayed service time, per replayed group request.
  std::vector<double> wait_ms;
};

/// Replays every fixed-rate request that ran on a pinned generation, on that
/// generation, and compares it with what was served.
ReplaySummary ReplayPinned(const RecommendationService& service,
                           const std::vector<fairrec::Group>& groups,
                           const std::vector<Request>& schedule,
                           const PhaseResult& served,
                           const std::map<uint64_t, ServingSnapshot>& pinned) {
  ReplaySummary out;
  RecommendationService::Scratch scratch;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = served.outcomes[i];
    if (o.state != State::kOk && o.state != State::kOutOfRange) continue;
    const auto snapshot = pinned.find(o.generation);
    if (snapshot == pinned.end()) continue;
    const Request& r = schedule[i];
    trace::SetRequest(1 + i);
    ++out.replayed;
    if (r.group) {
      GroupRecRequest request;
      request.members = groups[static_cast<size_t>(r.group_index)];
      request.z = kGroupZ;
      request.selector = kSelectors[r.selector].name;
      const GroupReplay replay =
          ReplayGroup(service, snapshot->second, request, r.selector, scratch);
      if (o.state == State::kOutOfRange) {
        ++out.out_of_range;
        if (!replay.status.IsOutOfRange()) ++out.mismatches;
      } else if (!replay.status.ok() ||
                 !SameGroupResponse(replay.response, o.group)) {
        ++out.mismatches;
      } else {
        out.wait_ms.push_back(LatencyMs(served, i) - replay.service_us / 1e3);
        if (r.selector == 0 &&
            !SameBits(replay.fairness_min_max, MinMaxRatio(o.group.members))) {
          ++out.fairness_mismatches;
        }
      }
    } else {
      Result<std::vector<fairrec::ScoredItem>> items = [&] {
        trace::Span span("cf.user_topk");
        return snapshot->second.MakeRecommender(service.options().recommender)
            .RecommendForUser(r.user, scratch);
      }();
      if (!items.ok() || !SameItems(*items, o.user.items)) ++out.mismatches;
    }
    trace::SetRequest(0);
  }
  return out;
}

/// The publisher thread: one batch every kPublishIntervalS until stopped.
class Publisher {
 public:
  Publisher(LivePeerGraph* live, uint64_t seed) : live_(live), state_(seed) {
    retained_.emplace(live_->generation(), live_->Acquire());
    thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop().
  const std::vector<double>& apply_ms() const { return apply_ms_; }
  const std::vector<DeltaApplyStats>& stats() const { return stats_; }
  const std::map<uint64_t, ServingSnapshot>& retained() const {
    return retained_;
  }
  int64_t upserts() const { return upserts_; }
  int64_t failures() const { return failures_; }
  const std::string& first_error() const { return first_error_; }

 private:
  void Loop() {
    const auto start = std::chrono::steady_clock::now();
    for (int64_t k = 1;; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto due =
            start + std::chrono::nanoseconds(
                        static_cast<int64_t>(k * kPublishIntervalS * 1e9));
        if (cv_.wait_until(lock, due, [this] { return stop_; })) return;
      }
      RatingDelta batch;
      const int64_t upserts =
          std::max<int64_t>(1, SamplePoisson(kPublishMeanUpserts, state_));
      for (int64_t u = 0; u < upserts; ++u) {
        const auto user = static_cast<UserId>(NextUniform(state_) * kPatients);
        const auto item =
            static_cast<fairrec::ItemId>(NextUniform(state_) * kDocuments);
        const auto value =
            static_cast<fairrec::Rating>(1 + static_cast<int>(NextUniform(state_) * 5));
        (void)batch.Add(user, item, value);
      }
      upserts_ += batch.size();
      const int64_t t0 = trace::NowNs();
      Result<DeltaApplyStats> applied = [&] {
        trace::Span span("sim.apply");
        return live_->ApplyDelta(batch);
      }();
      apply_ms_.push_back(static_cast<double>(trace::NowNs() - t0) / 1e6);
      if (!applied.ok()) {
        if (failures_++ == 0) first_error_ = applied.status().ToString();
        continue;
      }
      const DeltaApplyStats& s = *applied;
      stats_.push_back(s);
      trace::Count("sim.changed_pairs", static_cast<double>(s.changed_pairs));
      trace::Count("sim.refinished_pairs",
                   static_cast<double>(s.refinished_pairs));
      trace::Count("sim.rows_patched", static_cast<double>(s.rows_patched));
      trace::Count("sim.rows_refinished",
                   static_cast<double>(s.rows_refinished));
      trace::Count("sim.full_rebuild", s.used_full_rebuild ? 1.0 : 0.0);
      // The publisher is the only writer, so this acquire returns exactly
      // the generation its ApplyDelta just published.
      const uint64_t generation = live_->generation();
      if (generation % kRetainEvery == 0) {
        retained_.emplace(generation, live_->Acquire());
      }
    }
  }

  LivePeerGraph* live_;
  uint64_t state_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> apply_ms_;
  std::vector<DeltaApplyStats> stats_;
  std::map<uint64_t, ServingSnapshot> retained_;
  int64_t upserts_ = 0;
  int64_t failures_ = 0;
  std::string first_error_;
  std::thread thread_;
};

double CounterMean(const std::map<std::string, trace::Counter>& counters,
                   const std::string& name) {
  const auto it = counters.find(name);
  if (it == counters.end() || it->second.events == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.events);
}

}  // namespace

PassOutput RunServeMixed(const RunConfig& config, Report& report) {
  PassOutput out;

  // ---- Setup, repeated; the median is setup_s. ----
  std::vector<double> setup_s;
  World world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world = World();
    fairrec::Stopwatch clock;
    Result<World> built = BuildWorld(config.seed, config.nproc);
    if (!built.ok()) {
      report.Check("serve.setup", false, built.status().ToString());
      return out;
    }
    world = std::move(built).value();
    setup_s.push_back(clock.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_s);
  const double fixed_seconds = kFixedShare * config.seconds;
  const std::vector<Request> fixed_schedule =
      MakeSchedule(config.seed, kFixedRate, fixed_seconds,
                   static_cast<int32_t>(world.groups.size()));

  const TracedSource source(world.live.get());
  const RecommendationService service(&source, ServingOptions());

  // ---- Measured phase. ----
  ResetPeakRss();
  Publisher publisher(world.live.get(), config.seed ^ 0x9b1d5u);
  PhaseResult fixed = RunOpenLoop(service, fixed_schedule, world.groups,
                                  /*keep_responses=*/true, /*request_base=*/1);

  const MaxQps max_qps = SearchMaxQps(service, world.groups, config,
                                     /*request_base=*/fixed_schedule.size() + 1);
  publisher.Stop();
  out.end_to_end["peak_rss_mb"] = PeakRssMb();

  // ---- Fixed-rate latency, failures, fairness. ----
  std::vector<double> group_ms;
  std::vector<double> user_ms;
  std::vector<double> min_max;
  int64_t out_of_range = 0;
  int64_t errors = 0;
  int64_t shed = 0;
  int64_t generation_mismatch = 0;
  std::string first_error;
  for (size_t i = 0; i < fixed_schedule.size(); ++i) {
    const Outcome& o = fixed.outcomes[i];
    switch (o.state) {
      case State::kOk:
        if (fixed_schedule[i].group) {
          group_ms.push_back(LatencyMs(fixed, i));
          if (o.group.generation != o.generation) ++generation_mismatch;
          if (fixed_schedule[i].selector == 0) {
            min_max.push_back(MinMaxRatio(o.group.members));
          }
        } else {
          user_ms.push_back(LatencyMs(fixed, i));
          if (o.user.generation != o.generation) ++generation_mismatch;
        }
        break;
      case State::kOutOfRange:
        ++out_of_range;
        break;
      case State::kShed:
        ++shed;
        break;
      case State::kError:
      case State::kPending:
        if (errors++ == 0) first_error = o.error;
        break;
    }
  }
  const int64_t attempted = static_cast<int64_t>(fixed_schedule.size()) +
                           static_cast<int64_t>(publisher.apply_ms().size());
  const int64_t failed = errors + shed + publisher.failures();
  report.AddAttempted(attempted);
  report.AddFailed(failed);
  report.Check("serve.no_request_errors", errors == 0, first_error);
  report.Check("serve.no_fixed_rate_sheds", shed == 0,
               std::to_string(shed) + " shed at the fixed rate");
  report.Check("serve.publish_ok", publisher.failures() == 0,
               publisher.first_error());
  report.Check("serve.response_generation_matches_acquire",
               generation_mismatch == 0,
               std::to_string(generation_mismatch) + " responses");

  const Percentile group_p50 = ComputePercentile(group_ms, 0.50);
  const Percentile group_p90 = ComputePercentile(group_ms, 0.90);
  const ChunkedPercentile group_p99 = ComputeChunkedPercentile(group_ms, 0.99);
  const Percentile user_p50 = ComputePercentile(user_ms, 0.50);
  const Percentile user_p90 = ComputePercentile(user_ms, 0.90);
  const ChunkedPercentile user_p99 = ComputeChunkedPercentile(user_ms, 0.99);
  const Percentile delta_p50 = ComputePercentile(publisher.apply_ms(), 0.50);
  const Percentile delta_p90 = ComputePercentile(publisher.apply_ms(), 0.90);
  for (const auto& [name, p] :
       {std::pair<const char*, const Percentile*>{"group_p90", &group_p90},
        {"user_p90", &user_p90},
        {"group_p99", &group_p99.percentile},
        {"user_p99", &user_p99.percentile},
        {"delta_p90", &delta_p90}}) {
    report.Check(std::string("serve.samples.") + name, p->supported,
                 std::to_string(p->beyond) + " samples beyond the percentile");
  }
  // The workload's operation is a group request, its side operation a
  // publish, its work rate the highest ladder rate that met the SLO.
  out.end_to_end["op_p50_ms"] = group_p50.value;
  out.end_to_end["side_p50_ms"] = delta_p50.value;
  out.end_to_end["group_min_max_ratio"] = Mean(min_max);
  report.Check("serve.lowest_ladder_rung_passes", max_qps.search.index >= 0,
               "no rung met the SLO");
  out.end_to_end["work_per_s"] = max_qps.served_per_s;

  // ---- Replay every request served on a pinned generation. ----
  const ReplaySummary replay = ReplayPinned(service, world.groups,
                                            fixed_schedule, fixed,
                                            publisher.retained());
  report.Check("serve.replay_bit_identical", replay.mismatches == 0,
               std::to_string(replay.mismatches) + " of " +
                   std::to_string(replay.replayed) + " replays differ");
  report.Check("serve.replayed_some", replay.replayed > 0,
               "no request replayed");
  report.Check("serve.min_max_ratio_matches_fairness_report",
               replay.fairness_mismatches == 0,
               std::to_string(replay.fairness_mismatches) + " responses");

  // ---- Quiesced: the live index equals a from-scratch build. ----
  const IncrementalPeerGraph& graph = world.live->graph();
  const fairrec::PairwiseSimilarityEngine engine(
      &graph.matrix(), graph.options().similarity, graph.options().engine);
  Result<fairrec::PeerIndex> fresh = engine.BuildPeerIndex(graph.options().peers);
  std::string live_bytes;
  graph.index()->SerializeTo(live_bytes);
  std::string fresh_bytes;
  if (fresh.ok()) fresh->SerializeTo(fresh_bytes);
  report.Check("serve.final_index_equals_fresh_build",
               fresh.ok() && live_bytes == fresh_bytes,
               fresh.ok() ? "index bytes differ" : fresh.status().ToString());
  // Every pinned generation's artifacts, for the traced/untraced comparison.
  for (const auto& [generation, snapshot] : publisher.retained()) {
    std::string bytes;
    snapshot.matrix->SerializeTo(bytes);
    const auto* index = dynamic_cast<const fairrec::PeerIndex*>(snapshot.peers.get());
    if (index != nullptr) index->SerializeTo(bytes);
    out.result_digests[generation] = fairrec::Crc32c(bytes.data(), bytes.size());
  }

  // ---- Per-layer numbers from this pass's spans. ----
  if (trace::Enabled()) {
    const auto layers = trace::AggregateLayers(trace::Spans());
    const auto counters = trace::Counters();
    out.per_layer["failed_frac"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    out.per_layer["serve.acquire_us"] = MeanSelfUs(layers, "serve.acquire");
    out.per_layer["serve.wait_ms"] = Mean(replay.wait_ms);
    out.per_layer["serve.queue_peak"] =
        static_cast<double>(fixed.stats.queue_peak);
    out.per_layer["serve.shed"] = static_cast<double>(fixed.stats.shed);
    out.per_layer["serve.gen_late_ms"] =
        ComputePercentile(fixed.late_ms, 0.99).value;
    out.per_layer["cf.relevance_us"] = MeanSelfUs(layers, "cf.relevance");
    out.per_layer["cf.peers_per_member"] = CounterMean(counters, "cf.peers");
    out.per_layer["cf.user_topk_us"] = MeanSelfUs(layers, "cf.user_topk");
    out.per_layer["core.context_us"] = MeanSelfUs(layers, "core.context");
    out.per_layer["core.candidates"] = CounterMean(counters, "core.candidates");
    for (const SelectorMix& s : kSelectors) {
      out.per_layer[s.metric] = MeanSelfUs(layers, s.span);
    }
    out.per_layer["eval.fairness_us"] = MeanSelfUs(layers, "eval.fairness");
    out.per_layer["sim.apply_ms"] = MeanSelfUs(layers, "sim.apply") / 1e3;
    for (const char* name : {"sim.changed_pairs", "sim.refinished_pairs",
                             "sim.rows_patched", "sim.rows_refinished"}) {
      out.per_layer[name] = CounterMean(counters, name);
    }
    out.per_layer["sim.full_rebuild_frac"] =
        CounterMean(counters, "sim.full_rebuild");
  }

  out.provenance.Add("corpus", JsonObject()
                                   .Add("generator", "BuildScenario")
                                   .Add("patients", kPatients)
                                   .Add("documents", kDocuments)
                                   .Add("clusters", kClusters)
                                   .Add("density", kDensity)
                                   .Add("ratings", world.ratings)
                                   .Add("peer_delta", kPeerDelta)
                                   .Add("peer_cap", kPeerCap));
  out.provenance.Add("threads", JsonObject()
                                    .Add("generator", 1)
                                    .Add("serving_workers", kWorkers)
                                    .Add("publisher", 1)
                                    .Add("seed_sweep", config.nproc));
  out.provenance.Add(
      "load", JsonObject()
                  .Add("loop", "open, Poisson arrivals")
                  .Add("fixed_rate_per_s", kFixedRate)
                  .Add("fixed_seconds", fixed_seconds)
                  .Add("group_share", kGroupShare)
                  .Add("z", kGroupZ)
                  .Add("slo_group_p99_ms", kSloGroupP99Ms)
                  .Add("ladder", JsonObject()
                                     .Add("first", kLadderFirst)
                                     .Add("last", kLadderLast)
                                     .Add("ratio", kLadderRatio))
                  .Add("publish_interval_s", kPublishIntervalS)
                  .Add("publish_mean_upserts", kPublishMeanUpserts));
  out.details.Add("max_qps_at_slo", max_qps.served_per_s)
      .Add("group_p50", PercentileJson(group_p50))
      .Add("group_p90", PercentileJson(group_p90))
      .Add("group_p99", ChunkedPercentileJson(group_p99))
      .Add("user_p50", PercentileJson(user_p50))
      .Add("user_p90", PercentileJson(user_p90))
      .Add("user_p99", ChunkedPercentileJson(user_p99))
      .Add("generator_late_p99_ms", ComputePercentile(fixed.late_ms, 0.99).value)
      .Add("delta_p50", PercentileJson(delta_p50))
      .Add("delta_p90", PercentileJson(delta_p90))
      .Add("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()))
      .Add("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()))
      .Add("fixed_requests", static_cast<int64_t>(fixed_schedule.size()))
      .Add("out_of_range", out_of_range)
      .Add("out_of_range_replayed", replay.out_of_range)
      .Add("replayed", replay.replayed)
      .Add("min_max_responses", static_cast<int64_t>(min_max.size()))
      .Add("publishes", static_cast<int64_t>(publisher.apply_ms().size()))
      .Add("published_upserts", publisher.upserts())
      .Add("retained_generations",
           static_cast<int64_t>(publisher.retained().size()))
      .Add("ladder_probes", max_qps.probes);
  return out;
}

}  // namespace perfbench
