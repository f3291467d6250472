#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "serve/snapshot_source.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

void ResetPeakRss() {
  // Hand memory freed by set-up back to the kernel first, so the high-water
  // mark starts from what the measured phase actually holds.
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return false;
  return std::filesystem::create_directories(dir, ec) && !ec;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += FileBytes(entry.path().string());
  }
  return total;
}

std::vector<fairrec::Group> MakeGroups(const fairrec::Scenario& scenario,
                                       uint64_t seed, int32_t per_shape) {
  constexpr int32_t kMinSize = 3;
  constexpr int32_t kMaxSize = 6;
  constexpr fairrec::GroupShape kShapes[] = {
      fairrec::GroupShape::kCohesive, fairrec::GroupShape::kRandom,
      fairrec::GroupShape::kSkewed, fairrec::GroupShape::kColdStart,
      fairrec::GroupShape::kAdversarial};
  std::vector<fairrec::Group> groups;
  uint64_t state = seed ^ 0x67a0u;
  for (int32_t k = 0; k < per_shape; ++k) {
    for (const fairrec::GroupShape shape : kShapes) {
      const auto size = static_cast<int32_t>(
          kMinSize + NextUniform(state) * (kMaxSize - kMinSize + 1));
      groups.push_back(
          scenario.MakeGroup(shape, size, seed * 1000003u + groups.size()));
    }
  }
  return groups;
}

fairrec::serve::RecommendationServiceOptions ServingOptions() {
  fairrec::serve::RecommendationServiceOptions options;
  options.recommender.peers.delta = 0.1;
  options.recommender.top_k = 10;
  options.context.top_k = 10;
  return options;
}

double MinMaxRatio(
    const std::vector<fairrec::serve::MemberSatisfaction>& members) {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (const fairrec::serve::MemberSatisfaction& m : members) {
    if (m.satisfaction < 0.0) continue;
    lo = any ? std::min(lo, m.satisfaction) : m.satisfaction;
    hi = any ? std::max(hi, m.satisfaction) : m.satisfaction;
    any = true;
  }
  if (!any) return 1.0;
  return hi > 0.0 ? lo / hi : 1.0;
}

FairnessProbe ProbeFairness(std::shared_ptr<const fairrec::RatingMatrix> matrix,
                            std::shared_ptr<const fairrec::PeerIndex> index,
                            const std::vector<fairrec::Group>& groups) {
  const fairrec::serve::StaticSnapshotSource source(std::move(matrix),
                                                   std::move(index));
  const fairrec::serve::RecommendationService service(&source,
                                                      ServingOptions());
  FairnessProbe probe;
  std::vector<double> ratios;
  for (const fairrec::Group& group : groups) {
    fairrec::serve::GroupRecRequest request;
    request.members = group;
    request.selector = "algorithm1";
    // OutOfRange means z exceeds the group's candidates; the service's
    // contract is to retry with a smaller z, as a client would.
    for (request.z = kGroupZ; request.z > 0; --request.z) {
      const auto response = service.RecommendGroup(request);
      if (response.ok()) {
        ratios.push_back(MinMaxRatio(response->members));
        break;
      }
      if (response.status().IsOutOfRange()) {
        ++probe.out_of_range;
        continue;
      }
      if (probe.status.ok()) probe.status = response.status();
      break;
    }
  }
  probe.answered = static_cast<int64_t>(ratios.size());
  probe.mean_min_max = Mean(ratios);
  if (probe.status.ok() && ratios.empty()) {
    probe.status = fairrec::Status::Internal("no probe group was answered");
  }
  return probe;
}

double MeanSelfUs(const std::map<std::string, trace::LayerTimes>& layers,
                  const std::string& name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.calls == 0) return 0.0;
  return it->second.self_us / static_cast<double>(it->second.calls);
}

}  // namespace perfbench
