#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/scenario.h"
#include "report.h"
#include "serve/recommendation_service.h"
#include "sim/peer_index.h"
#include "trace.h"

namespace perfbench {

/// Command-line inputs of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Hardware threads the run may use (std::thread::hardware_concurrency).
  int32_t nproc = 1;
  /// Directory for this pass's on-disk artifacts (journal, checkpoints,
  /// spills, partial artifacts). Created and emptied by the pass.
  std::string work_dir;
};

/// What one pass of a workload measured. Correctness checks go straight to
/// the Report; the pass returns numbers only.
struct PassOutput {
  std::map<std::string, double> end_to_end;
  /// Filled only when tracing was enabled during the pass.
  std::map<std::string, double> per_layer;
  /// CRC32C of the artifacts the pass produced, keyed by the point of the
  /// stream they were taken at (a generation, a journal sequence number).
  /// An untraced and a traced pass of one seed must agree on every key both
  /// reached: tracing changes no result.
  std::map<uint64_t, uint32_t> result_digests;
  JsonObject provenance;
  JsonObject details;
};

PassOutput RunServeMixed(const RunConfig& config, Report& report);
PassOutput RunBuildCold(const RunConfig& config, Report& report);
PassOutput RunIngestDurable(const RunConfig& config, Report& report);

// ---- Shared helpers (util.cc). ----

/// Resets the process's peak-RSS high-water mark (/proc/self/clear_refs), so
/// the next PeakRssMb() covers only what ran since.
void ResetPeakRss();
/// VmHWM of the process in MiB.
double PeakRssMb();

/// Removes and recreates `dir`. False on failure.
bool ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);
/// Size of a regular file in bytes (0 when absent).
uint64_t FileBytes(const std::string& path);
/// Summed size of the regular files directly under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Bytes as MiB.
inline double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---- Group traffic and the served fairness figure (util.cc). ----

/// Groups served or probed by the workloads: `per_shape` groups of each of
/// the five GroupShapes, 3-6 members each, deterministic in `seed`.
std::vector<fairrec::Group> MakeGroups(const fairrec::Scenario& scenario,
                                       uint64_t seed, int32_t per_shape);

/// The service options every workload serves with: Def. 1 peers at
/// delta 0.1, A_u of the top 10 items.
fairrec::serve::RecommendationServiceOptions ServingOptions();

/// Size of the recommended set D in every group request.
inline constexpr int32_t kGroupZ = 5;

/// Min/max member satisfaction of one response, over the members with a
/// defined satisfaction (eval/fairness_metrics.h's rule); 1 when none is
/// defined or the best is 0.
double MinMaxRatio(
    const std::vector<fairrec::serve::MemberSatisfaction>& members);

/// What the fairness probe served.
struct FairnessProbe {
  /// Mean MinMaxRatio over the answered groups.
  double mean_min_max = 0.0;
  int64_t answered = 0;
  /// "z exceeds the candidates" answers, each retried with z - 1.
  int64_t out_of_range = 0;
  fairrec::Status status;
};

/// Serves `algorithm1` (z = kGroupZ, or the largest smaller z the group's
/// candidates allow) for every group in `groups` from a fixed snapshot of
/// `matrix` and `index`: the fairness a caregiver would see from the peer
/// graph a build or a recovery produced. Runs outside the measured phase.
FairnessProbe ProbeFairness(std::shared_ptr<const fairrec::RatingMatrix> matrix,
                            std::shared_ptr<const fairrec::PeerIndex> index,
                            const std::vector<fairrec::Group>& groups);

/// Mean self time per call of span `name`, in microseconds (0 when the span
/// never ran).
double MeanSelfUs(const std::map<std::string, trace::LayerTimes>& layers,
                  const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
