// Machine-readable benchmark output.
//
// Every figure/table harness prints paper-style text for humans; BenchReporter makes the
// same run emit BENCH_<name>.json next to it — metric name/value/unit rows, the scale
// knobs the run used, and git-describable run metadata — so the perf trajectory of this
// repo is a set of parseable artifacts rather than text to eyeball. The schema is
// validated by the bench_smoke ctest target through ValidateBenchReport(), which shares
// this file's writer, so writer and validator cannot drift.

#ifndef SRC_OBS_BENCH_REPORT_H_
#define SRC_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace slim {

class BenchReporter {
 public:
  // Bumped whenever a required key is added/renamed; the bench_smoke validator pins it, so
  // schema drift fails CI instead of silently producing unparseable trajectories.
  static constexpr int64_t kSchemaVersion = 1;

  // `name` identifies the harness (e.g. "user_study"); the report lands at
  // <dir>/BENCH_<name>.json, or in the cwd when `dir` is empty. `scale` is the run's base
  // "scale" block; harness-specific knobs are added with Knob().
  BenchReporter(std::string name, std::string title, const std::string& dir, JsonObject scale);
  // Writes the report if Write() was never called (best-effort; errors already warned).
  ~BenchReporter();
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  void Metric(std::string metric, double value, std::string unit);
  void Metric(std::string metric, int64_t value, std::string unit);
  // Adds/overrides a scale knob recorded under "scale".
  void Knob(std::string knob, int64_t value);
  // Attaches a full metrics-registry snapshot under the optional "metrics_registry" key.
  void AttachSnapshot(const MetricRegistry& registry);

  size_t metric_count() const { return metrics_.size(); }
  const std::string& path() const { return path_; }

  // Serializes and writes the report. Returns false (after warning) on I/O failure.
  bool Write();
  // The document that Write() serializes (exposed for tests).
  JsonValue Document() const;

 private:
  std::string name_;
  std::string title_;
  JsonObject scale_;
  JsonArray metrics_;
  std::optional<JsonValue> snapshot_;
  std::string path_;
  bool written_ = false;
};

// Validates one BENCH_*.json document against the required schema: returns an error
// message, or nullopt when the document conforms.
std::optional<std::string> ValidateBenchReport(const JsonValue& doc);

}  // namespace slim

#endif  // SRC_OBS_BENCH_REPORT_H_
