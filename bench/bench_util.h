// Shared helpers for the figure/table harnesses, and the one place that reads their
// environment. libslim reads none: every knob below is parsed here and passed into the
// library as an argument or option.
//
// Scale knobs keep the default run to seconds while a paper-scale run
// (SLIM_USERS=50 SLIM_MINUTES=10) reproduces the full study:
//
//   SLIM_USERS    simulated users per application      (default 12, paper 50)
//   SLIM_MINUTES  simulated minutes per user session   (default 5, paper 10)
//   SLIM_SECONDS  horizon for sharing experiments      (default 60)
//
// Output paths, all off or in the cwd when unset:
//
//   SLIM_BENCH_DIR    directory for BENCH_<name>.json (HarnessReport)
//   SLIM_TRACE        sim-time Chrome trace file (ScopedTraceFile in each harness main)
//   SLIM_STATS_JSONL  registry snapshot stream for tools/slimtop (MaybeStreamStats)
//   SLIM_FLIGHT_DIR   latency-audit flight dumps (bench_chaos_soak)
//
// Individual harnesses add their own scale knobs (SLIM_SOAK_EVENTS, ...) through EnvInt.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/bench_report.h"
#include "src/obs/stats_stream.h"
#include "src/obs/trace.h"
#include "src/workload/user_study.h"

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

inline int StudyUsers() { return EnvInt("SLIM_USERS", 12); }
inline SimDuration StudyDuration() {
  return Seconds(60L * EnvInt("SLIM_MINUTES", 5));
}

inline std::vector<UserSessionResult> RunStudyFor(AppKind kind) {
  std::fprintf(stderr, "[study] %s: %d users x %d min...\n", AppKindName(kind), StudyUsers(),
               EnvInt("SLIM_MINUTES", 5));
  return RunUserStudy(kind, StudyUsers(), StudyDuration(), 0xbe9c5 + static_cast<int>(kind));
}

// The harness's BENCH_<name>.json, written into SLIM_BENCH_DIR. Every report's "scale"
// block starts with the three standard knobs; harnesses add their own with Knob(). A
// harness whose horizon defaults to other than 60 s passes its default, so the report
// records the horizon it ran.
inline BenchReporter HarnessReport(std::string name, std::string title,
                                   int seconds_default = 60) {
  JsonObject scale;
  scale.emplace_back("SLIM_USERS", JsonValue(int64_t{EnvInt("SLIM_USERS", 12)}));
  scale.emplace_back("SLIM_MINUTES", JsonValue(int64_t{EnvInt("SLIM_MINUTES", 5)}));
  scale.emplace_back("SLIM_SECONDS",
                     JsonValue(int64_t{EnvInt("SLIM_SECONDS", seconds_default)}));
  return BenchReporter(std::move(name), std::move(title), EnvPath("SLIM_BENCH_DIR"),
                       std::move(scale));
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
