// Figure 2: cumulative distributions of user input event frequency.
//
// Paper regimes: <1% of events above 28 Hz for every application; ~70% of events below
// 10 Hz; Netscape/Photoshop show a substantially larger share of events at least one second
// apart than FrameMaker/PIM. Input events are keystrokes and mouse clicks; the histogram
// bucket matches the paper's 0.005 events/sec.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/histogram.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 2 - CDF of user input event frequency",
              "Schmidt et al., SOSP'99, Figure 2");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig2_input_rates", "CDF of user input event frequency");

  TextTable table({"Application", "events", ">28Hz (paper <1%)", "<10Hz (paper ~70%)",
                   ">=1s apart (NS/PS >> FM/PIM)", "median Hz"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 40.0, 0.005);  // events/sec, paper's bucket width
    int64_t total = 0;
    int64_t slow = 0;
    for (const auto& session : RunStudyFor(kind)) {
      for (const double interval : session.log.InputIntervalsSeconds()) {
        if (interval <= 0) {
          continue;
        }
        cdf.Add(1.0 / interval);
        ++total;
        if (interval >= 1.0) {
          ++slow;
        }
      }
    }
    table.AddRow({AppKindName(kind), Format("%lld", static_cast<long long>(total)),
                  Format("%.2f%%", 100.0 * (1.0 - cdf.CdfAt(28.0))),
                  Format("%.1f%%", 100.0 * cdf.CdfAt(10.0)),
                  Format("%.1f%%", 100.0 * static_cast<double>(slow) /
                                       static_cast<double>(total)),
                  Format("%.2f", cdf.InverseCdf(0.5))});
    const std::string app = AppKindName(kind);
    report.Metric(app + ".events", total, "count");
    report.Metric(app + ".over_28hz", 100.0 * (1.0 - cdf.CdfAt(28.0)), "percent");
    report.Metric(app + ".under_10hz", 100.0 * cdf.CdfAt(10.0), "percent");
    report.Metric(app + ".median_rate", cdf.InverseCdf(0.5), "events/s");
    std::printf("\n%s CDF (events/sec -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
  return 0;
}
