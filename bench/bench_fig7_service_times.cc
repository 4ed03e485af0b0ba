// Figure 7: cumulative distributions of display-update service times on the console.
//
// Service time runs from the arrival of an update's first command at the console to the
// completion of its last (queueing + Table 5 decode costs). Paper regimes: ~80% of updates
// complete within 50 ms (below the threshold of perception); only a small tail exceeds
// 100 ms, and those correspond to the largest display changes.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/histogram.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 7 - CDF of display update service times at the console",
              "Schmidt et al., SOSP'99, Figure 7");
  // SLIM_TRACE=out.json captures the full pipeline (input dispatch -> render/encode ->
  // transport -> console decode/present) as a Chrome trace across every study session.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig7_service_times",
                                       "CDF of display update service times at the console");

  TextTable table({"Application", "updates", "median", "<50ms (paper ~80%+)", ">100ms",
                   "p99"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 500.0, 0.1);  // ms, paper's 0.1 ms buckets
    for (const auto& session : RunStudyFor(kind)) {
      for (const double ms : UpdateServiceTimesMs(session.console_log)) {
        cdf.Add(ms);
      }
    }
    table.AddRow({AppKindName(kind), Format("%lld", static_cast<long long>(cdf.total_count())),
                  Format("%.2f ms", cdf.InverseCdf(0.5)),
                  Format("%.1f%%", 100.0 * cdf.CdfAt(50.0)),
                  Format("%.2f%%", 100.0 * (1.0 - cdf.CdfAt(100.0))),
                  Format("%.1f ms", cdf.InverseCdf(0.99))});
    const std::string app = AppKindName(kind);
    report.Metric(app + ".updates", cdf.total_count(), "count");
    report.Metric(app + ".median_service", cdf.InverseCdf(0.5), "ms");
    report.Metric(app + ".under_50ms", 100.0 * cdf.CdfAt(50.0), "percent");
    report.Metric(app + ".p99_service", cdf.InverseCdf(0.99), "ms");
    std::printf("\n%s CDF (ms -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
  return 0;
}
