// Figure 11: sharing the interconnection fabric (Section 6.2).
//
// The paper's three-machine setup: a server whose switch link carries both the measured
// yardstick traffic (64 B up, 1200 B down, 150 ms think) and trace-driven background SLIM
// traffic toward a sink. Paper regimes: round-trip delay stays flat until the shared link
// approaches saturation; usable until ~30 ms RTT; tolerable counts of roughly 130-140
// Photoshop/Netscape users or 400-450 FrameMaker/PIM users — an order of magnitude beyond
// the processor's limits.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/loadgen/loadgen.h"
#include "src/util/table.h"

namespace slim {
namespace {

struct IfResult {
  double rtt_ms = 0;
  int64_t timeouts = 0;
  double offered_mbps = 0;
};

IfResult MeasureRtt(AppKind kind, int users, SimDuration horizon, uint64_t seed) {
  Simulator sim;
  Fabric fabric(&sim, {});  // 100 Mbps switched ethernet
  const NodeId server = fabric.AddNode();
  const NodeId sink = fabric.AddNode();
  const NodeId probe = fabric.AddNode();
  InstallEchoResponder(&fabric, server);
  Rng rng(seed);
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  gens.reserve(static_cast<size_t>(users));
  for (int i = 0; i < users; ++i) {
    gens.push_back(std::make_unique<TrafficGenerator>(
        &sim, &fabric, server, sink, SynthesizeProfile(kind, horizon, rng.Split()),
        rng.Split()));
    gens.back()->Start();
  }
  NetYardstick yardstick(&sim, &fabric, probe, server);
  yardstick.Start();
  sim.RunUntil(horizon);
  IfResult result;
  result.rtt_ms = yardstick.AverageRttMs();
  result.timeouts = yardstick.timeouts();
  int64_t offered = 0;
  for (const auto& g : gens) {
    offered += g->bytes_offered();
  }
  result.offered_mbps = static_cast<double>(offered) * 8.0 / ToSeconds(horizon) / 1e6;
  return result;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Figure 11 - Round-trip latency vs users sharing the IF",
              "Schmidt et al., SOSP'99, Figure 11");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig11_if_sharing",
                                       "Round-trip latency vs users sharing the IF");
  const SimDuration horizon = Seconds(ScaleKnob(&report, "SLIM_SECONDS", 60));

  struct Sweep {
    AppKind kind;
    std::vector<int> counts;
    const char* paper_knee;
  };
  const Sweep sweeps[] = {
      {AppKind::kPhotoshop, {25, 50, 75, 100, 125, 150, 175}, "130-140"},
      {AppKind::kNetscape, {25, 50, 75, 100, 125, 150, 175}, "130-140"},
      {AppKind::kFrameMaker, {100, 200, 300, 400, 500, 600}, "400-450"},
      {AppKind::kPim, {100, 200, 300, 400, 500, 600}, "400-450"},
  };
  for (const Sweep& sweep : sweeps) {
    TextTable table({"users", "offered Mbps", "avg RTT", "timeouts"});
    int knee = 0;
    for (const int users : sweep.counts) {
      const IfResult r =
          MeasureRtt(sweep.kind, users, horizon, 0x11f + static_cast<uint64_t>(users));
      if (knee == 0 && (r.rtt_ms >= 30.0 || r.timeouts > 5)) {
        knee = users;
      }
      table.AddRow({Format("%d", users), Format("%.1f", r.offered_mbps),
                    Format("%.2f ms", r.rtt_ms),
                    Format("%lld", static_cast<long long>(r.timeouts))});
      std::fprintf(stderr, "[fig11] %s %d users done\n", AppKindName(sweep.kind), users);
    }
    std::printf("\n%s (paper knee: %s users at ~30 ms RTT / packet loss)\n%s",
                AppKindName(sweep.kind), sweep.paper_knee, table.Render().c_str());
    if (knee > 0) {
      std::printf("RTT/loss knee near %d users.\n", knee);
    } else {
      std::printf("No knee inside the sweep.\n");
    }
    report.Metric(std::string(AppKindName(sweep.kind)) + ".knee_users",
                  static_cast<int64_t>(knee), "users");
  }
  return 0;
}
