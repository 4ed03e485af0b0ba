// Unified metrics registry for the simulation runtime.
//
// The paper's methodology is "log every protocol event, answer every question by
// post-processing" (Section 3.1); this registry is the runtime half of that bargain. Every
// subsystem's counters live behind one naming convention — `subsystem.name`, lowercase,
// dot-scoped (e.g. `transport.nacks_sent`, `fabric.fault.datagrams_corrupted`) — and one
// Snapshot() call serializes them all to JSON.
//
// Hot-path cost is zero by construction: counters are plain int64_t cells that callers bump
// directly (`++stats_.nacks_sent` compiles to the same instruction it always did); the
// registry only holds *pointers* to those cells and reads them at snapshot time. Gauges are
// pull-mode callbacks, also evaluated only at snapshot time. Histograms bucket by
// power-of-two, so a Record() is a clz plus two adds. Nothing locks: every registered cell
// is written only from the thread that owns its subsystem (the simulation thread). Code
// that ever fans work out to other threads must accumulate into worker-local scratch and
// merge on the owning thread before the result reaches a registered cell, so snapshots
// never race with writes.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"

namespace slim {

// Power-of-two-bucketed histogram for latency (ns) and size (bytes) distributions.
// Bucket i counts values v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v == 1's
// lower half: exactly, values where bit_width(v) == i). Exact count/sum/min/max ride along
// so means are not quantized.
class ExpHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return max_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  // Estimated p-th percentile (p in (0, 1]): the bucket holding the p-th sample is found
  // exactly, then the position within it is linearly interpolated (and clamped by the
  // exact min/max), tightening the raw power-of-two quantization's 2x error bound to the
  // within-bucket interpolation error. Single-bucket distributions come back exact at the
  // edges.
  int64_t PercentileUpperBound(double p) const;

  const std::array<int64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Names must be dot-scoped, lowercase `[a-z0-9_.]` with at least one '.', so every metric
// reads as `subsystem.name` (deeper scoping like `fabric.fault.loss` is fine).
bool IsValidMetricName(std::string_view name);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registers a counter backed by an external cell (the legacy stats-struct fields). The
  // struct stays the owner — its accessors keep working unchanged — and the registry reads
  // through the pointer at snapshot time. Returns false (and registers nothing) on a
  // duplicate or invalid name; the first registration wins.
  bool BindCounter(std::string name, const int64_t* cell);

  // Registers a registry-owned counter and returns its cell for the caller to bump.
  // Returns nullptr on duplicate/invalid name.
  int64_t* Counter(std::string name);

  // Registers a pull-mode gauge; `read` is evaluated only at snapshot time.
  bool BindGauge(std::string name, std::function<double()> read);

  // Registers (or returns nullptr on duplicate/invalid name) a registry-owned histogram.
  ExpHistogram* Histogram(std::string name);

  bool Contains(std::string_view name) const;
  size_t size() const { return entries_.size(); }

  // Scalar read-back by name: counters return their exact value, gauges are evaluated.
  // nullopt for unknown names and histograms.
  std::optional<double> Value(std::string_view name) const;
  std::optional<int64_t> CounterValue(std::string_view name) const;

  // One JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}, each
  // section keyed by metric name in sorted order so snapshots diff cleanly.
  JsonValue Snapshot() const;
  std::string SnapshotJson(int indent = 2) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    const int64_t* cell = nullptr;            // counters
    std::function<double()> read;             // gauges
    std::unique_ptr<ExpHistogram> histogram;  // histograms
    std::unique_ptr<int64_t> owned_cell;      // registry-owned counters
  };

  bool Admit(const std::string& name, const char* kind_label);

  // std::map keeps snapshot order sorted by name with zero work at snapshot time.
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace slim

#endif  // SRC_OBS_METRICS_H_
