// Figure 9: average latency added to the 30 ms yardstick burst as simulated active users
// share one CPU (Section 6.1).
//
// The yardstick consumes 30 ms of CPU then thinks for 150 ms; trace-driven load generators
// replay per-application resource profiles (CPU + memory). Paper regimes: added latency
// grows with user count; at the ~100 ms "noticeably poor" threshold the tolerable counts
// are roughly 10-12 Photoshop, 12-14 Netscape, 16-18 FrameMaker, or 34-36 PIM users —
// well past 100% nominal CPU demand, thanks to interactive priority decay.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/loadgen/loadgen.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 9 - Added yardstick latency vs active users (1 CPU)",
              "Schmidt et al., SOSP'99, Figure 9");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig9_cpu_sharing",
                                       "Added yardstick latency vs active users");
  const SimDuration horizon = Seconds(ScaleKnob(&report, "SLIM_SECONDS", 60));

  const int counts[] = {0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48};
  TextTable table({"users", "Photoshop", "Netscape", "FrameMaker", "PIM"});
  double knee[kAppKindCount] = {0, 0, 0, 0};
  for (const int users : counts) {
    std::vector<std::string> row{Format("%d", users)};
    for (int k = 0; k < kAppKindCount; ++k) {
      const double ms = CpuSharingAddedLatencyMs(static_cast<AppKind>(k), users, 1, horizon,
                                                 0x916 + users * 7 + k);
      if (knee[k] == 0 && ms >= 100.0) {
        knee[k] = users;
      }
      row.push_back(Format("%.1f ms", ms));
    }
    table.AddRow(row);
    std::fprintf(stderr, "[fig9] %d users done\n", users);
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nFirst user count with added latency >= 100 ms (paper knees: "
              "PS 10-12, NS 12-14, FM 16-18, PIM 34-36):\n");
  for (int k = 0; k < kAppKindCount; ++k) {
    std::printf("  %-11s %s\n", AppKindName(static_cast<AppKind>(k)),
                knee[k] > 0 ? Format("~%d users", static_cast<int>(knee[k])).c_str()
                            : "beyond sweep");
    report.Metric(std::string(AppKindName(static_cast<AppKind>(k))) + ".knee_users",
                  knee[k], "users");
  }
  return 0;
}
