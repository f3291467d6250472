// The perfbench binary: runs one workload of the repository benchmark for one
// seed and prints one JSON result line.
//
//   perfbench --workload serve-mixed|build-cold|ingest-durable --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]
//             [--spans-out FILE]
//   perfbench --list-metrics
//
// --trace 0 runs the workload once, untraced, and reports its end-to-end
// metrics. --trace 1 runs it twice on the same seed, untraced then traced,
// and reports the per-layer metrics of the traced pass, the tracing overhead
// as the change in every end-to-end metric, and a check that both passes
// ended in the same artifacts. Exit status: 0 when every check passed, 3
// when one failed, 1 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "report.h"
#include "sim/pearson_finish_batch.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(fairrec::Trim(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

int ListMetrics() {
  for (const MetricSpec& spec : MetricTable()) {
    std::printf("%s\n", JsonObject()
                            .Add("name", spec.name)
                            .Add("unit", spec.unit)
                            .Add("better", spec.better)
                            .Add("kind", spec.kind == MetricKind::kEndToEnd
                                             ? "end_to_end"
                                             : "per_layer")
                            .Add("workloads", spec.workloads)
                            .ToString()
                            .c_str());
  }
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-sha SHA] [--spans-out FILE]\n"
               "       perfbench --list-metrics\n",
               why);
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  int trace_flag = -1;
  std::string git_sha = "unknown";
  std::string spans_out;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") return ListMetrics();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      trace_flag = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  PassOutput (*run)(const RunConfig&, Report&) = nullptr;
  if (config.workload == "serve-mixed") run = RunServeMixed;
  if (config.workload == "build-cold") run = RunBuildCold;
  if (config.workload == "ingest-durable") run = RunIngestDurable;
  if (run == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || trace_flag < 0 || config.work_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  config.nproc = static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::string root_work_dir = config.work_dir;
  config.work_dir = root_work_dir + "/" + config.workload + "-" +
                    std::to_string(::getpid());
  if (!ResetDir(config.work_dir)) return Usage("cannot create --work-dir");

  Report report(config.workload);
  trace::SetEnabled(false);
  // Write back what earlier processes left dirty, so this run's fsyncs
  // (journal, checkpoints, atomic artifact writes) do not queue behind it.
  ::sync();
  PassOutput untraced = run(config, report);
  PassOutput reported_pass;
  const bool traced = trace_flag == 1;
  if (traced) {
    trace::Reset();
    trace::SetEnabled(true);
    ::sync();
    // Checks and operation counts of both passes go into the one report.
    PassOutput traced_pass = run(config, report);
    trace::SetEnabled(false);
    int64_t compared = 0;
    int64_t differing = 0;
    for (const auto& [key, digest] : untraced.result_digests) {
      const auto it = traced_pass.result_digests.find(key);
      if (it == traced_pass.result_digests.end()) continue;
      ++compared;
      if (it->second != digest) ++differing;
    }
    report.Check("trace.result_unchanged", compared > 0 && differing == 0,
                 std::to_string(differing) + " of " + std::to_string(compared) +
                     " artifacts differ between the traced and untraced pass");
    JsonObject overhead;
    for (const auto& [name, base] : untraced.end_to_end) {
      const auto it = traced_pass.end_to_end.find(name);
      if (it == traced_pass.end_to_end.end() || base == 0.0) continue;
      overhead.Add(name, JsonObject()
                             .Add("untraced", base)
                             .Add("traced", it->second)
                             .Add("change_pct", 100.0 * (it->second / base - 1.0)));
    }
    const double base = untraced.end_to_end["op_p50_ms"];
    const double with_trace = traced_pass.end_to_end["op_p50_ms"];
    traced_pass.per_layer["trace.overhead_pct"] =
        base > 0.0 ? 100.0 * (with_trace / base - 1.0) : 0.0;
    for (const auto& [name, value] : traced_pass.per_layer) {
      report.Metric(name, value);
    }
    const std::vector<trace::SpanRecord> spans = trace::Spans();
    traced_pass.details.Add("trace_overhead", overhead)
        .Add("trace_overhead_metric", "op_p50_ms")
        .Add("spans", static_cast<int64_t>(spans.size()));
    if (!spans_out.empty()) {
      report.Check("trace.spans_written", trace::WriteSpans(spans, spans_out),
                   spans_out);
    }
    reported_pass = std::move(traced_pass);
  } else {
    for (const auto& [name, value] : untraced.end_to_end) {
      report.Metric(name, value);
    }
    reported_pass = std::move(untraced);
  }
  RemoveDir(config.work_dir);

  report.provenance()
      .Add("nproc", config.nproc)
      .Add("cpu_model", CpuModel())
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("finish_kernel", fairrec::FinishPearsonBatchKernel())
      .Add("git_sha", git_sha)
      .Add("seed", config.seed)
      .Add("seconds", config.seconds)
      .Add("traced", traced)
      .Add("workload_config", reported_pass.provenance);
  report.details() = reported_pass.details;
  const std::string line =
      report.Finish(traced ? MetricKind::kPerLayer : MetricKind::kEndToEnd);
  std::printf("%s\n", line.c_str());
  return report.correct() ? 0 : 3;
}
