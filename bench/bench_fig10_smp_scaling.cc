// Figure 10: SMP scaling of the processor-sharing experiment (Section 6.1).
//
// Netscape users on 1-8 CPUs, reported as added yardstick latency against users *per CPU*.
// Paper regimes: the system scales with no obvious contention effects — the per-CPU curves
// roughly coincide — and at low per-CPU load, configurations with more processors do
// slightly better because a waking burst is more likely to find a free CPU.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/loadgen/loadgen.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 10 - SMP scaling, Netscape users per CPU (1-8 CPUs)",
              "Schmidt et al., SOSP'99, Figure 10");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig10_smp_scaling", "SMP scaling, Netscape users per CPU");
  const SimDuration horizon = Seconds(ScaleKnob(&report, "SLIM_SECONDS", 60));

  const int cpu_configs[] = {1, 2, 4, 8};
  const int per_cpu_counts[] = {2, 4, 6, 8, 10, 12, 14};
  TextTable table({"users/CPU", "1 CPU", "2 CPUs", "4 CPUs", "8 CPUs"});
  double low_load[4] = {0, 0, 0, 0};
  for (const int per_cpu : per_cpu_counts) {
    std::vector<std::string> row{Format("%d", per_cpu)};
    for (size_t c = 0; c < 4; ++c) {
      const int cpus = cpu_configs[c];
      const double ms =
          CpuSharingAddedLatencyMs(AppKind::kNetscape, per_cpu * cpus, cpus, horizon,
                                   0xf16a + static_cast<uint64_t>(per_cpu) * 13 + c);
      if (per_cpu == 4) {
        low_load[c] = ms;
      }
      row.push_back(Format("%.1f ms", ms));
    }
    table.AddRow(row);
    std::fprintf(stderr, "[fig10] %d users/cpu done\n", per_cpu);
  }
  std::printf("%s", table.Render().c_str());
  for (size_t c = 0; c < 4; ++c) {
    report.Metric(Format("added_latency_4percpu_%dcpu", cpu_configs[c]), low_load[c], "ms");
  }
  std::printf("\nAt 4 users/CPU: 1 CPU -> %.1f ms vs 8 CPUs -> %.1f ms (paper: more CPUs "
              "slightly better at light load,\nbecause a waking burst more easily finds a "
              "free processor).\n",
              low_load[0], low_load[3]);
  return 0;
}
