// Shared helpers for the figure/table harnesses, and the one place that reads their
// environment. libslim reads none: every knob below is parsed here and passed into the
// library as an argument or option.
//
// Scale knobs keep the default run to seconds while a paper-scale run
// (SLIM_USERS=50 SLIM_MINUTES=10) reproduces the full study. A harness reads each of its
// knobs through ScaleKnob, so its report's "scale" block lists exactly those:
//
//   SLIM_USERS    users per application in bench_user_study      (default 12, paper 50)
//   SLIM_MINUTES  minutes per user session in bench_user_study   (default 5, paper 10)
//   SLIM_SECONDS  horizon of fig9, fig10, fig11 (default 60) and sec7 (default 20)
//
// and each harness's own (SLIM_SOAK_EVENTS, SLIM_CHURN_*, SLIM_DP_*, SLIM_KB_*, SLIM_MIG_*).
//
// Output paths, all off or in the cwd when unset:
//
//   SLIM_BENCH_DIR    directory for BENCH_<name>.json (HarnessReport)
//   SLIM_TRACE        sim-time Chrome trace file (ScopedTraceFile in each harness main)
//   SLIM_STATS_JSONL  registry snapshot stream for tools/slimtop (MaybeStreamStats)
//   SLIM_FLIGHT_DIR   latency-audit flight dumps (bench_chaos_soak)

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/obs/bench_report.h"
#include "src/obs/stats_stream.h"
#include "src/obs/trace.h"

namespace slim {

// Robust environment integer: parses with strtol, warns on stderr and falls back to
// `fallback` when the variable is unset, not a number, has trailing garbage, or is not
// positive (every SLIM_* scale knob is a count or a duration, so zero and negatives are
// configuration mistakes, not valid scales).
inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "[env] %s='%s' is not an integer; using default %d\n", name, value,
                 fallback);
    return fallback;
  }
  if (parsed <= 0 || parsed > INT32_MAX) {
    std::fprintf(stderr, "[env] %s=%ld is out of range (must be positive); using default %d\n",
                 name, parsed, fallback);
    return fallback;
  }
  return static_cast<int>(parsed);
}

// A path-valued knob, or "" when unset.
inline std::string EnvPath(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string() : std::string(value);
}

// The harness's BENCH_<name>.json, written into SLIM_BENCH_DIR. Its "scale" block starts
// empty; ScaleKnob adds each knob the harness reads.
inline BenchReporter HarnessReport(std::string name, std::string title) {
  return BenchReporter(std::move(name), std::move(title), EnvPath("SLIM_BENCH_DIR"), {});
}

// Reads scale knob `name` through EnvInt and records the value used in `report`'s "scale"
// block, so a baseline pins every knob that shapes its run and no other.
inline int ScaleKnob(BenchReporter* report, const char* name, int fallback) {
  const int value = EnvInt(name, fallback);
  report->Knob(name, value);
  return value;
}

// With SLIM_STATS_JSONL=<path>, streams `registry` to that file once per sim-second for
// `slimtop -f`; otherwise returns null and costs nothing.
inline std::unique_ptr<SnapshotStreamer> MaybeStreamStats(Simulator* sim,
                                                          const MetricRegistry* registry) {
  const std::string path = EnvPath("SLIM_STATS_JSONL");
  if (path.empty()) {
    return nullptr;
  }
  std::fprintf(stderr, "[stats] streaming registry snapshots to %s every sim-second\n",
               path.c_str());
  return std::make_unique<SnapshotStreamer>(sim, registry, path, kSecond);
}

inline void PrintHeader(const char* title, const char* paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_reference);
  std::printf("==============================================================\n");
}

}  // namespace slim

#endif  // BENCH_BENCH_UTIL_H_
