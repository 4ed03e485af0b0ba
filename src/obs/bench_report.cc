#include "src/obs/bench_report.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace slim {

namespace {

// Best-effort git description for run metadata: `git describe` from the cwd.
std::string GitDescribe() {
  std::string out;
  if (std::FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      out += buf;
    }
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

JsonValue RunMetadata() {
  JsonObject run;
  run.emplace_back("git", JsonValue(GitDescribe()));
  run.emplace_back("unix_time", JsonValue(static_cast<int64_t>(std::time(nullptr))));
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  run.emplace_back("host", JsonValue(std::string(host)));
  return JsonValue(std::move(run));
}

}  // namespace

BenchReporter::BenchReporter(std::string name, std::string title, const std::string& dir,
                             JsonObject scale)
    : name_(std::move(name)),
      title_(std::move(title)),
      scale_(std::move(scale)),
      path_((dir.empty() ? "" : dir + "/") + "BENCH_" + name_ + ".json") {}

BenchReporter::~BenchReporter() {
  if (!written_ && !metrics_.empty()) {
    Write();
  }
}

void BenchReporter::Metric(std::string metric, double value, std::string unit) {
  JsonObject row;
  row.emplace_back("name", JsonValue(std::move(metric)));
  row.emplace_back("value", JsonValue(value));
  row.emplace_back("unit", JsonValue(std::move(unit)));
  metrics_.push_back(JsonValue(std::move(row)));
}

void BenchReporter::Metric(std::string metric, int64_t value, std::string unit) {
  JsonObject row;
  row.emplace_back("name", JsonValue(std::move(metric)));
  row.emplace_back("value", JsonValue(value));
  row.emplace_back("unit", JsonValue(std::move(unit)));
  metrics_.push_back(JsonValue(std::move(row)));
}

void BenchReporter::Knob(std::string knob, int64_t value) {
  for (auto& [k, v] : scale_) {
    if (k == knob) {
      v = JsonValue(value);
      return;
    }
  }
  scale_.emplace_back(std::move(knob), JsonValue(value));
}

void BenchReporter::AttachSnapshot(const MetricRegistry& registry) {
  snapshot_ = registry.Snapshot();
}

JsonValue BenchReporter::Document() const {
  JsonObject doc;
  doc.emplace_back("schema_version", JsonValue(kSchemaVersion));
  doc.emplace_back("bench", JsonValue(name_));
  doc.emplace_back("title", JsonValue(title_));
  doc.emplace_back("run", RunMetadata());
  doc.emplace_back("scale", JsonValue(scale_));
  doc.emplace_back("metrics", JsonValue(metrics_));
  if (snapshot_.has_value()) {
    doc.emplace_back("metrics_registry", *snapshot_);
  }
  return JsonValue(std::move(doc));
}

bool BenchReporter::Write() {
  written_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s: %s\n", path_.c_str(), std::strerror(errno));
    return false;
  }
  const std::string json = Document().Dump(2) + "\n";
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (ok) {
    std::fprintf(stderr, "[bench] wrote %zu metrics to %s\n", metrics_.size(), path_.c_str());
  }
  return ok;
}

std::optional<std::string> ValidateBenchReport(const JsonValue& doc) {
  if (!doc.is_object()) {
    return "document is not a JSON object";
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return "missing numeric 'schema_version'";
  }
  if (version->as_int() != BenchReporter::kSchemaVersion) {
    return "schema_version " + std::to_string(version->as_int()) + " != expected " +
           std::to_string(BenchReporter::kSchemaVersion);
  }
  for (const char* key : {"bench", "title"}) {
    const JsonValue* v = doc.Find(key);
    if (v == nullptr || !v->is_string() || v->as_string().empty()) {
      return std::string("missing or empty string '") + key + "'";
    }
  }
  const JsonValue* run = doc.Find("run");
  if (run == nullptr || !run->is_object()) {
    return "missing object 'run'";
  }
  if (const JsonValue* git = run->Find("git"); git == nullptr || !git->is_string()) {
    return "run.git missing or not a string";
  }
  if (const JsonValue* t = run->Find("unix_time"); t == nullptr || !t->is_number()) {
    return "run.unix_time missing or not a number";
  }
  const JsonValue* scale = doc.Find("scale");
  if (scale == nullptr || !scale->is_object()) {
    return "missing object 'scale'";
  }
  for (const auto& [knob, value] : scale->as_object()) {
    if (!value.is_number()) {
      return "scale." + knob + " is not a number";
    }
  }
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return "missing array 'metrics'";
  }
  if (metrics->as_array().empty()) {
    return "'metrics' is empty: the harness emitted no machine-readable results";
  }
  for (size_t i = 0; i < metrics->as_array().size(); ++i) {
    const JsonValue& row = metrics->as_array()[i];
    const std::string at = "metrics[" + std::to_string(i) + "]";
    if (!row.is_object()) {
      return at + " is not an object";
    }
    const JsonValue* name = row.Find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      return at + ".name missing or empty";
    }
    const JsonValue* value = row.Find("value");
    if (value == nullptr || !value->is_number()) {
      return at + ".value missing or not a number (" + name->as_string() + ")";
    }
    const JsonValue* unit = row.Find("unit");
    if (unit == nullptr || !unit->is_string()) {
      return at + ".unit missing or not a string (" + name->as_string() + ")";
    }
  }
  // The registry snapshot is optional, but when present it must have the full shape —
  // including the histogram percentile summaries (p50/p90/p99/p999) the latency audit
  // reports through; a snapshot writer that drops them breaks the trajectory consumers.
  if (const JsonValue* reg = doc.Find("metrics_registry"); reg != nullptr) {
    if (!reg->is_object()) {
      return "'metrics_registry' is not an object";
    }
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const JsonValue* v = reg->Find(section);
      if (v == nullptr || !v->is_object()) {
        return std::string("metrics_registry.") + section + " missing or not an object";
      }
    }
    for (const auto& [name, summary] : reg->Find("histograms")->as_object()) {
      const std::string at = "metrics_registry.histograms." + name;
      if (!summary.is_object()) {
        return at + " is not an object";
      }
      for (const char* key :
           {"count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999"}) {
        const JsonValue* v = summary.Find(key);
        if (v == nullptr || !v->is_number()) {
          return at + "." + key + " missing or not a number";
        }
      }
      const JsonValue* buckets = summary.Find("buckets");
      if (buckets == nullptr || !buckets->is_array()) {
        return at + ".buckets missing or not an array";
      }
    }
  }
  return std::nullopt;
}

}  // namespace slim
