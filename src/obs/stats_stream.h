// Periodic MetricRegistry snapshots as a JSONL stream, on the simulated clock.
//
// The dashboard half of the observability layer: a harness that owns a registry arms a
// SnapshotStreamer and every `interval` of sim time one line
//
//   {"sample": N, "t_ns": <sim time>, "snapshot": {counters, gauges, histograms}}
//
// is appended to `path`. tools/slimtop tails that file (live, `-f`) or post-processes it,
// rendering per-sample deltas — latency percentiles, breach counts, txq depth, chaos
// counters — without the harness knowing anything about presentation. Harnesses arm one
// only when asked for a stream (bench/bench_util.h: SLIM_STATS_JSONL, one sample per
// sim-second), so default runs pay nothing.

#ifndef SRC_OBS_STATS_STREAM_H_
#define SRC_OBS_STATS_STREAM_H_

#include <cstdio>
#include <string>

#include "src/sim/simulator.h"

namespace slim {

class MetricRegistry;

class SnapshotStreamer {
 public:
  // Starts sampling: one line at each interval boundary while the simulation runs, plus a
  // final line from Stop()/the destructor so the end-of-run state is always captured.
  SnapshotStreamer(Simulator* sim, const MetricRegistry* registry, std::string path,
                   SimDuration interval);
  ~SnapshotStreamer();
  SnapshotStreamer(const SnapshotStreamer&) = delete;
  SnapshotStreamer& operator=(const SnapshotStreamer&) = delete;

  // Writes the final sample and stops; idempotent.
  void Stop();

  bool ok() const { return file_ != nullptr; }
  int64_t samples() const { return samples_; }
  const std::string& path() const { return path_; }

 private:
  void Arm();
  void WriteSample();

  Simulator* sim_;
  const MetricRegistry* registry_;
  std::string path_;
  SimDuration interval_;
  std::FILE* file_ = nullptr;
  EventId event_ = kInvalidEventId;
  int64_t samples_ = 0;
};

}  // namespace slim

#endif  // SRC_OBS_STATS_STREAM_H_
