#include "report.h"

#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* KindName(MetricKind kind) {
  return kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer";
}

}  // namespace

JsonObject& JsonObject::Add(const std::string& key, double value) {
  fields_.emplace_back(key, Number(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t k = 0; k < fields_.size(); ++k) {
    if (k > 0) out += ", ";
    out += Quote(fields_[k].first) + ": " + fields_[k].second;
  }
  return out + "}";
}

void Report::Metric(const std::string& name, double value) {
  const MetricSpec* spec = FindMetric(name);
  if (spec == nullptr || !MetricAppliesTo(*spec, workload_)) {
    Check("metric_declared." + name, false,
          "not declared for workload " + workload_);
    return;
  }
  if (!std::isfinite(value)) {
    Check("metric_finite." + name, false, "value is not finite");
    return;
  }
  metrics_.emplace_back(name, value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (ok) {
    ++checks_passed_;
  } else {
    failed_checks_.emplace_back(name, detail);
    std::fprintf(stderr, "CHECK FAILED: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
  }
}

bool Report::correct() const { return failed_checks_.empty(); }

std::string Report::Finish(MetricKind kind) {
  std::map<std::string, double> recorded;
  for (const auto& [name, value] : metrics_) {
    if (FindMetric(name)->kind != kind) continue;
    if (!recorded.emplace(name, value).second) {
      Check("metric_unique." + name, false, "recorded twice");
    }
  }
  // Every declared metric of the kind is printed, in table order. A layer
  // the workload never calls reports 0 calls' worth: 0.
  JsonObject metrics;
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.kind != kind) continue;
    const auto it = recorded.find(spec.name);
    double value = 0.0;
    if (it != recorded.end()) {
      value = it->second;
    } else if (MetricAppliesTo(spec, workload_)) {
      Check(std::string("metric_reported.") + spec.name, false,
            "declared for this workload but not measured");
    }
    if (kind == MetricKind::kEndToEnd && value == 0.0) {
      Check(std::string("metric_nonzero.") + spec.name, false,
            "an end-to-end metric must never read 0");
    }
    metrics.Add(spec.name, JsonObject().Add("value", value).Add("unit", spec.unit));
  }
  JsonObject checks;
  checks.Add("passed", checks_passed_);
  JsonObject failed;
  for (const auto& [name, detail] : failed_checks_) failed.Add(name, detail);
  checks.Add("failed", failed);

  JsonObject out;
  out.Add("workload", workload_)
      .Add("kind", KindName(kind))
      .Add("correct", correct())
      .Add("attempted", attempted_)
      .Add("failed", failed_)
      .Add("metrics", metrics)
      .Add("checks", checks)
      .Add("provenance", provenance_)
      .Add("details", details_);
  return out.ToString();
}

JsonObject PercentileJson(const Percentile& p) {
  return JsonObject()
      .Add("value", p.value)
      .Add("samples", p.samples)
      .Add("beyond", p.beyond)
      .Add("supported", p.supported);
}

JsonObject ChunkedPercentileJson(const ChunkedPercentile& p) {
  JsonObject chunks;
  for (size_t k = 0; k < p.chunk_values.size(); ++k) {
    chunks.Add(std::to_string(k), p.chunk_values[k]);
  }
  return PercentileJson(p.percentile)
      .Add("chunks", p.chunks)
      .Add("chunk_values", chunks);
}

}  // namespace perfbench
