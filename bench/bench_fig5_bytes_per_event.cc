// Figure 5: cumulative distributions of SLIM protocol data transmitted per input event.
//
// Paper regimes: a 50 KB update costs only 3.8 ms on a 100 Mbps IF; only ~25% of
// Photoshop/Netscape events need more than 10 KB and only ~5% more than 50 KB; for
// FrameMaker/PIM only ~17% of events need more than 1 KB and ~2% more than 10 KB.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/histogram.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 5 - CDF of SLIM protocol bytes per input event",
              "Schmidt et al., SOSP'99, Figure 5");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig5_bytes_per_event",
                                       "CDF of SLIM protocol bytes per input event");

  TextTable table({"Application", "median B", ">1KB (FM/PIM ~17%)", ">10KB (NS/PS ~25%)",
                   ">50KB (NS/PS ~5%)", "p95 tx delay @100Mbps"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 2e6, 64.0);
    for (const auto& session : RunStudyFor(kind)) {
      for (const auto& update : session.log.AttributeToEvents()) {
        cdf.Add(static_cast<double>(update.slim_bytes));
      }
    }
    const double p95_bytes = cdf.InverseCdf(0.95);
    table.AddRow({AppKindName(kind), Format("%.0f", cdf.InverseCdf(0.5)),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(1'000.0))),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(10'000.0))),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(50'000.0))),
                  Format("%.2f ms", ToMillis(TransmissionDelay(
                                        static_cast<int64_t>(p95_bytes), 100'000'000)))});
    const std::string app = AppKindName(kind);
    report.Metric(app + ".median_bytes", cdf.InverseCdf(0.5), "bytes");
    report.Metric(app + ".over_10kb", 100.0 * (1.0 - cdf.CdfAt(10'000.0)), "percent");
    report.Metric(app + ".p95_tx_delay",
                  ToMillis(TransmissionDelay(static_cast<int64_t>(p95_bytes), 100'000'000)),
                  "ms");
    std::printf("\n%s CDF (bytes -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
  std::printf("\nA 50KB update costs %.1f ms of transmission at 100 Mbps (paper: 3.8 ms).\n",
              ToMillis(TransmissionDelay(50'000, 100'000'000)));
  return 0;
}
