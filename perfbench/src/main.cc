// The repository benchmark: runs one workload for a host-time budget and prints every
// metric by name with its unit, then one JSON result line.
//
//   slim_perfbench --workload desktop|video|roaming --seed N --seconds S --trace 0|1
//                  [--scale F] [--trace-out PATH] [--commit ID]
//
// A run repeats identical rounds of the workload (same seed, fresh world each time)
// until the timed phases add up to --seconds of host time. With --trace 0 it reports the
// end-to-end metrics. With --trace 1 it alternates untraced and traced rounds, reports
// the per-layer metrics from the traced ones, and writes their spans to --trace-out as
// Chrome trace JSON. perfbench/README.md defines every metric.

#include <malloc.h>
#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/codec/kernels/kernels.h"

extern char** environ;

namespace perfbench {
namespace {

// A run never goes on past this much wall time, whatever --seconds says; the rest of
// the 180 s limit is left for building the world of the last round and reporting.
constexpr int64_t kWallCapNs = 120'000'000'000;
// setup_s is the median of at least kMinSetups set-ups; set-ups are repeated until they
// add up to kSetupBudgetNs (at most kMaxSetups), so the median is not a handful of
// samples.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
constexpr int64_t kSetupBudgetNs = 2'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--scale") {
      args->scale = std::strtod(value, &end);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && args->scale > 0;
}

// Library overrides that change what gets measured (encoder threads, kernel tier, the
// damage tracker) or switch on in-program observability. The benchmark clears them
// before the library reads any, and says which it cleared.
std::vector<std::string> ClearLibraryOverrides() {
  static const char* const kExact[] = {"SLIM_ENCODE_THREADS", "SLIM_KERNELS",
                                       "SLIM_DAMAGE_TRACKER", "SLIM_TRACE",
                                       "SLIM_STATS_JSONL",    "SLIM_SLO_MS"};
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    bool guarded = name.rfind("SLIM_FLIGHT_", 0) == 0;
    for (const char* exact : kExact) {
      guarded = guarded || name == exact;
    }
    if (guarded) {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
  return names;
}

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t s = 0;
  for (const int64_t x : v) {
    s += x;
  }
  return s;
}

// Everything a round reports that must repeat bit-for-bit for one seed.
std::string ExactFingerprint(const RoundResult& r) {
  std::string out;
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  };
  add(static_cast<double>(r.ops));
  add(static_cast<double>(r.ops_failed));
  add(static_cast<double>(r.ops_on_time));
  add(static_cast<double>(r.timed_sim));
  add(static_cast<double>(r.display_bytes));
  for (const double v : r.latency_ms) {
    add(v);
  }
  const LayerCounts& c = r.counts;
  for (const int64_t v : {c.events, c.commands, c.wire_bytes, c.raw_bytes, c.damaged_px,
                          c.encoded_px, c.datagrams, c.nacks, c.replays, c.txq_max_depth,
                          c.cscs_applied, c.cscs_hits, c.console_dropped, c.console_busy_ns,
                          c.migration_chunk_bytes, c.migration_rounds, c.migration_retries}) {
    add(static_cast<double>(v));
  }
  for (const auto& [name, v] : r.notes) {
    out += name;
    add(v);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  // A report of a run that failed a check still lists every metric, so that the result
  // line says correct=false: what a failed round left unmeasurable reads 0.
  explicit Report(bool run_failed) : run_failed_(run_failed) {}

  // Adds a metric to the JSON line and prints it; `detail` follows on the same line.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "") {
    if (!std::isfinite(value)) {
      value = 0;  // only a failed round divides by an empty phase
    }
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(), detail.c_str());
  }
  // A percentile metric: added only when kMinBeyond samples lie beyond it. `label` names
  // the percentile; `raw` is the unnormalized value, when there is one.
  void AddPercentile(const std::string& name, const std::vector<double>& samples, double p,
                     const std::string& unit, const std::string& label,
                     std::optional<double> raw = std::nullopt) {
    const std::optional<double> v = Percentile(samples, p);
    if (!v.has_value()) {
      std::printf("  %-34s %14s %-6s (%s of %zu: fewer than %zu samples beyond it)\n",
                  name.c_str(), "-", unit.c_str(), label.c_str(), samples.size(), kMinBeyond);
      if (run_failed_) {
        metrics_.push_back(Metric{name, 0, unit});
      } else {
        missing_ = true;
      }
      return;
    }
    char detail[160];
    if (raw.has_value()) {
      std::snprintf(detail, sizeof(detail), "(%s of %zu, raw %.6g)", label.c_str(),
                    samples.size(), *raw);
    } else {
      std::snprintf(detail, sizeof(detail), "(%s of %zu)", label.c_str(), samples.size());
    }
    Add(name, *v, unit, detail);
  }
  static void Note(const std::string& name, double value, const std::string& unit,
                   const std::string& detail = "") {
    std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(), detail.c_str());
  }

  std::string Json(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[96];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

  bool missing() const { return missing_; }

 private:
  bool run_failed_;
  std::vector<Metric> metrics_;
  bool missing_ = false;
};

double PerOp(int64_t count, int64_t ops) {
  return ops > 0 ? static_cast<double>(count) / static_cast<double>(ops) : 0.0;
}

// Host timings of the timed phases, each round's ops scaled by that round's probe. The raw
// values are kept for the diagnostics line.
struct HostTimes {
  std::vector<double> op_us;      // normalized
  std::vector<double> op_us_raw;
  double host_s = 0;  // normalized timed phase
  double host_s_raw = 0;
  double sim_s = 0;
};

HostTimes CollectHost(const std::vector<RoundResult>& rounds) {
  HostTimes h;
  for (const RoundResult& r : rounds) {
    const double scale = Probe::kNominalNs / r.probe_ns;
    for (const int64_t ns : r.op_ns) {
      h.op_us_raw.push_back(static_cast<double>(ns) * 1e-3);
      h.op_us.push_back(static_cast<double>(ns) * 1e-3 * scale);
    }
    const double s = static_cast<double>(Sum(r.op_ns)) * 1e-9;
    h.host_s_raw += s;
    h.host_s += s * scale;
    h.sim_s += slim::ToSeconds(r.timed_sim);
  }
  return h;
}

std::string PercentileName(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p * 100);
  return buf;
}

// `setups` pairs each set-up's host time with the probe time it is normalized by.
void ReportEndToEnd(const std::vector<RoundResult>& rounds,
                    const std::vector<std::pair<int64_t, double>>& setups, const Probe& probe,
                    double tail, Report* report) {
  const RoundResult& first = rounds.front();
  const HostTimes host = CollectHost(rounds);
  std::vector<double> setup_s;
  std::vector<double> setup_s_raw;
  for (const auto& [ns, probe_ns] : setups) {
    setup_s_raw.push_back(static_cast<double>(ns) * 1e-9);
    setup_s.push_back(setup_s_raw.back() * Probe::kNominalNs / probe_ns);
  }
  const double raw_setup = Median(setup_s_raw);
  const double raw_rate = host.sim_s / host.host_s_raw;
  const std::optional<double> raw_p50 = Percentile(host.op_us_raw, 0.5);
  const std::optional<double> raw_tail = Percentile(host.op_us_raw, tail);
  const std::string tail_name = PercentileName(tail);
  char detail[160];
  std::snprintf(detail, sizeof(detail), "(median of %zu set-ups, raw %.6g s)", setup_s.size(),
                raw_setup);
  report->Add("setup_s", Median(setup_s), "s", detail);
  std::snprintf(detail, sizeof(detail), "(%.6g sim s over %.6g host s, raw %.6g)", host.sim_s,
                host.host_s, raw_rate);
  report->Add("sim_s_per_host_s", host.sim_s / host.host_s, "s/s", detail);
  report->AddPercentile("op_host_us_p50", host.op_us, 0.5, "us", "p50", raw_p50);
  report->AddPercentile("op_host_us_tail", host.op_us, tail, "us", tail_name, raw_tail);
  report->Add("peak_rss_mb", PeakRssMb(), "MB", "(includes the probe's 32 MB)");
  report->Add("display_bytes_per_op",
              static_cast<double>(first.display_bytes) / static_cast<double>(first.ops), "B");
  report->AddPercentile("latency_sim_ms_p50", first.latency_ms, 0.5, "ms", "p50");
  report->AddPercentile("latency_sim_ms_tail", first.latency_ms, tail, "ms", tail_name);
  std::snprintf(detail, sizeof(detail), "(%" PRId64 " of %" PRId64 " ops over %.6g sim s)",
                first.ops_on_time, first.ops, slim::ToSeconds(first.timed_sim));
  report->Add("ops_on_time_per_sim_s",
              static_cast<double>(first.ops_on_time) / slim::ToSeconds(first.timed_sim), "1/s",
              detail);
  // Raw host values and the probe, for the steadiness report; not part of the result.
  std::printf("raw: {\"probe_ms\": %.17g, \"setup_s\": %.17g, \"sim_s_per_host_s\": %.17g, "
              "\"op_host_us_p50\": %.17g, \"op_host_us_tail\": %.17g}\n",
              probe.MedianNs() * 1e-6, raw_setup, raw_rate, raw_p50.value_or(0),
              raw_tail.value_or(0));
}

// Per-layer self time of the traced rounds, each round scaled by its own probe.
struct LayerTimes {
  std::array<double, static_cast<size_t>(Layer::kCount)> us{};
  double root_s_raw = 0;
};

// `traced` is empty only when the first, untraced round failed; the counts then come from
// that round and the timed metrics read 0.
void ReportPerLayer(const std::vector<RoundResult>& untraced,
                    const std::vector<RoundResult>& traced, const LayerTimes& layers,
                    const SpanRecorder& spans, Report* report) {
  const HostTimes t = CollectHost(traced);
  const HostTimes u = CollectHost(untraced);
  const auto ops = static_cast<double>(t.op_us.size());
  const auto us_per_op = [&](Layer layer) { return layers.us[static_cast<size_t>(layer)] / ops; };
  char detail[128];
  std::snprintf(detail, sizeof(detail), "(self time over %zu traced ops)", t.op_us.size());
  report->Add("apps.render_us_per_op", us_per_op(Layer::kApps), "us", detail);
  report->Add("server.flush_us_per_op", us_per_op(Layer::kServer), "us", detail);
  report->Add("sim.loop_self_us_per_op", us_per_op(Layer::kSim), "us", detail);
  const double traced_mean = t.host_s / ops;
  const double untraced_mean = u.host_s / static_cast<double>(u.op_us.size());
  std::snprintf(detail, sizeof(detail), "(%.6g vs %.6g us per op)", traced_mean * 1e6,
                untraced_mean * 1e6);
  report->Add("obs.trace_overhead_pct", (traced_mean / untraced_mean - 1.0) * 100.0, "%",
              detail);
  report->Add("obs.span_coverage_pct", layers.root_s_raw / t.host_s_raw * 100.0, "%",
              "(span time / traced timed phase)");

  const RoundResult& r = traced.empty() ? untraced.front() : traced.front();
  const LayerCounts& c = r.counts;
  const int64_t n = r.ops;
  report->Add("sim.events_per_op", PerOp(c.events, n), "count");
  report->Add("codec.commands_per_op", PerOp(c.commands, n), "count");
  report->Add("codec.wire_to_raw",
              c.raw_bytes > 0 ? static_cast<double>(c.wire_bytes) / c.raw_bytes : 0.0, "ratio");
  report->Add("codec.encoded_px_per_damaged_px",
              c.damaged_px > 0 ? static_cast<double>(c.encoded_px) / c.damaged_px : 0.0,
              "ratio", c.damaged_px > 0 ? "" : "(no handler flushes: encoder bypassed)");
  report->Add("net.datagrams_per_op", PerOp(c.datagrams, n), "count");
  report->Add("net.nacks_per_op", PerOp(c.nacks, n), "count");
  report->Add("net.replays_per_op", PerOp(c.replays, n), "count");
  report->Add("server.txq_max_depth", static_cast<double>(c.txq_max_depth), "count");
  report->Add("console.cscs_hit_ratio",
              c.cscs_applied > 0 ? static_cast<double>(c.cscs_hits) / c.cscs_applied : 0.0,
              "ratio");
  report->Add("console.commands_dropped", static_cast<double>(c.console_dropped), "count");
  report->Add("console.busy_sim_pct",
              static_cast<double>(c.console_busy_ns) /
                  (static_cast<double>(r.timed_sim) * static_cast<double>(c.consoles)) * 100.0,
              "%");
  report->Add("migration.chunk_bytes_per_move", PerOp(c.migration_chunk_bytes, n), "B");
  report->Add("migration.rounds_per_move", PerOp(c.migration_rounds, n), "count");
  report->Add("migration.retries_per_move", PerOp(c.migration_retries, n), "count");

  std::printf("per-layer, printed only (zero on workloads without the layer):\n");
  Report::Note("console.input_us_per_op", us_per_op(Layer::kConsoleInput), "us");
  Report::Note("bench.compare_us_per_op", us_per_op(Layer::kBench), "us");
  if (spans.dropped() > 0) {
    std::printf("  (the trace file keeps the first %zu spans; %" PRId64 " more were timed)\n",
                SpanRecorder::kMaxKeptSpans, spans.dropped());
  }
}

int Run(const Args& args) {
#if defined(__GLIBC__)
  // Rounds rebuild worlds of tens of MB. By default glibc hands such memory back to the
  // kernel when it is freed and every round page-faults it in again, so set-up time
  // measured the kernel's fault path (20-30 ms vs 13-14 ms for a video world, varying
  // between runs) more than libslim. Keep freed memory in the process, as the heap of a
  // long-running server is.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const std::vector<std::string> cleared = ClearLibraryOverrides();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, args.scale);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (desktop, video, roaming)\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%d trace=%d scale=%g\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0, args.scale);
  std::string cleared_list;
  for (const std::string& name : cleared) {
    cleared_list += (cleared_list.empty() ? "" : ",") + name;
  }
  std::printf("env: codec.kernels.tier=%s commit=%s nproc=%u cleared=[%s]\n",
              slim::KernelTierName(slim::Kernels().tier), args.commit.c_str(),
              std::thread::hardware_concurrency(), cleared_list.c_str());
  std::printf("inputs: %s\n", workload->Describe().c_str());
  std::fflush(stdout);

  Probe probe;
  probe.Run();
  SpanRecorder spans;
  LayerTimes layers;
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  // Each set-up's host time and the probe it is normalized by: a round's set-up by the
  // round's probe, a set-up-only pass by a probe run right before it. The passes come in
  // a burst after the rounds, and the host's speed in that burst is not the run's median.
  std::vector<std::pair<int64_t, double>> setups;
  const auto budget_ns = static_cast<double>(args.seconds) * 1e9;
  const int64_t wall_start = HostNs();
  double timed_ns = 0;
  for (;;) {
    const bool trace_round = args.trace && traced.size() < untraced.size();
    std::array<int64_t, static_cast<size_t>(Layer::kCount)> self_before{};
    for (size_t l = 0; l < self_before.size(); ++l) {
      self_before[l] = spans.self_ns(static_cast<Layer>(l));
    }
    const int64_t root_before = spans.root_ns();
    const size_t probes_before = probe.samples().size();
    spans.set_enabled(trace_round);
    RoundResult r = workload->Round(&probe, &spans, /*setup_only=*/false);
    spans.set_enabled(false);
    if (probe.samples().size() == probes_before) {
      probe.Run();  // a round shorter than the probe interval still gets its own probe
    }
    r.probe_ns = probe.MedianNs(probes_before);
    if (trace_round) {
      const double scale = Probe::kNominalNs / r.probe_ns;
      for (size_t l = 0; l < self_before.size(); ++l) {
        layers.us[l] +=
            static_cast<double>(spans.self_ns(static_cast<Layer>(l)) - self_before[l]) * 1e-3 *
            scale;
      }
      layers.root_s_raw += static_cast<double>(spans.root_ns() - root_before) * 1e-9;
    }
    setups.emplace_back(r.setup_ns, r.probe_ns);
    timed_ns += static_cast<double>(Sum(r.op_ns));
    const bool ok = r.ok;
    (trace_round ? traced : untraced).push_back(std::move(r));
    const size_t rounds = untraced.size() + traced.size();
    const bool have_rounds = !untraced.empty() && (!args.trace || !traced.empty());
    // Stop at the whole number of rounds nearest the budget, so a run whose rounds are
    // long measures about --seconds instead of up to a round more.
    const bool budget_met = timed_ns + 0.5 * timed_ns / static_cast<double>(rounds) > budget_ns;
    if (!ok || (have_rounds && (budget_met || HostNs() - wall_start >= kWallCapNs))) {
      break;
    }
  }
  int64_t setup_total_ns = 0;
  for (const auto& [ns, probe_ns] : setups) {
    setup_total_ns += ns;
  }
  while ((setups.size() < kMinSetups ||
          (setup_total_ns < kSetupBudgetNs && setups.size() < kMaxSetups)) &&
         HostNs() - wall_start < kWallCapNs) {
    probe.Run();
    const auto probe_ns = static_cast<double>(probe.samples().back());
    const int64_t ns = workload->Round(&probe, &spans, /*setup_only=*/true).setup_ns;
    setups.emplace_back(ns, probe_ns);
    setup_total_ns += ns;
  }

  // Correctness: every round passed its own checks and reproduced the first exactly.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  const std::string fingerprint = ExactFingerprint(untraced.front());
  for (const auto* set : {&untraced, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.ops;
      failed += r.ops_failed;
      if (!r.ok) {
        std::printf("check failed: %s\n", r.error.c_str());
        correct = false;
      }
      if (ExactFingerprint(r) != fingerprint) {
        std::printf("check failed: a round's exact results differ from the first round's\n");
        correct = false;
      }
    }
  }

  std::printf("rounds: %zu untraced, %zu traced; %zu set-ups; %.6g s timed, %.6g s wall\n",
              untraced.size(), traced.size(), setups.size(), timed_ns * 1e-9,
              static_cast<double>(HostNs() - wall_start) * 1e-9);
  std::printf("probe: %zu runs, median %.6g ms (nominal %.6g ms)\n", probe.samples().size(),
              probe.MedianNs() * 1e-6, Probe::kNominalNs * 1e-6);
  std::printf("ops: attempted=%" PRId64 " failed=%" PRId64 " (per round %" PRId64 ")\n",
              attempted, failed, untraced.front().ops);

  Report report(!correct);
  if (!args.trace) {
    std::printf("end-to-end (host times normalized by the probe; sim times exact):\n");
    ReportEndToEnd(untraced, setups, probe, workload->TailPercentile(), &report);
  } else {
    std::printf("per-layer (traced rounds, normalized by the probe; counts exact):\n");
    ReportPerLayer(untraced, traced, layers, spans, &report);
    if (!args.trace_out.empty()) {
      if (spans.WriteChromeTrace(args.trace_out)) {
        std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
                    args.trace_out.c_str());
      } else {
        std::printf("check failed: cannot write %s\n", args.trace_out.c_str());
        correct = false;
      }
    }
  }
  if (!untraced.front().notes.empty()) {
    std::printf("workload notes (exact):\n");
    for (const auto& [name, value] : untraced.front().notes) {
      Report::Note(name, value, "");
    }
  }
  if (report.missing()) {
    // A healthy run too small for a percentile the benchmark defines: no result line.
    std::printf("no result: too few samples for a reported percentile at this scale\n");
    return 3;
  }
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload desktop|video|roaming --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--trace-out PATH] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
