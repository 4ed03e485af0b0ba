// Figure 3: cumulative distributions of pixels changed per user input event.
//
// Uses the paper's attribution heuristic (all pixel changes between two input events belong
// to the first). Paper regimes: nearly 50% of events for any application change fewer than
// 10 Kpixels; only ~20% of FrameMaker/PIM events exceed 10 Kpixels; only ~30% of
// Netscape/Photoshop events exceed 50 Kpixels.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/histogram.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 3 - CDF of pixels changed per input event",
              "Schmidt et al., SOSP'99, Figure 3");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig3_pixel_updates",
                                       "CDF of pixels changed per input event");

  TextTable table({"Application", "events", "median px", "<10Kpx (paper ~50%+)",
                   ">10Kpx", ">50Kpx (NS/PS ~30%)"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 1.4e6, 256.0);  // up to the 1.25 Mpixel display + margin
    for (const auto& session : RunStudyFor(kind)) {
      for (const auto& update : session.log.AttributeToEvents()) {
        cdf.Add(static_cast<double>(update.pixels));
      }
    }
    table.AddRow({AppKindName(kind), Format("%lld", static_cast<long long>(cdf.total_count())),
                  Format("%.0f", cdf.InverseCdf(0.5)),
                  Format("%.1f%%", 100.0 * cdf.CdfAt(10'000.0)),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(10'000.0))),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(50'000.0)))});
    const std::string app = AppKindName(kind);
    report.Metric(app + ".events", cdf.total_count(), "count");
    report.Metric(app + ".median_pixels", cdf.InverseCdf(0.5), "pixels");
    report.Metric(app + ".under_10kpx", 100.0 * cdf.CdfAt(10'000.0), "percent");
    report.Metric(app + ".over_50kpx", 100.0 * (1.0 - cdf.CdfAt(50'000.0)), "percent");
    std::printf("\n%s CDF (pixels -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
  return 0;
}
