// Figure 8: average network bandwidth under the X, SLIM, and raw-pixel protocols.
//
// Paper regimes: X and SLIM are competitive everywhere; X is slightly better on the
// text-oriented FrameMaker/PIM (whose absolute demand is so low it does not matter); SLIM
// beats X on the image-heavy Netscape/Photoshop, which demand an order of magnitude more
// bandwidth than the text applications; raw pixels cost ~2x SLIM for Photoshop and >=10x
// for the rest.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 8 - Average bandwidth: X vs SLIM vs raw pixels",
              "Schmidt et al., SOSP'99, Figure 8");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig8_avg_bandwidth",
                                       "Average bandwidth: X vs SLIM vs raw pixels");

  TextTable table({"Application", "X (Mbps)", "SLIM (Mbps)", "Raw pixels (Mbps)",
                   "X/SLIM", "Raw/SLIM"});
  double image_slim = 0;
  double text_slim = 0;
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    double x = 0;
    double slim = 0;
    double raw = 0;
    int n = 0;
    for (const auto& session : RunStudyFor(kind)) {
      x += session.log.AverageXBps();
      slim += session.log.AverageSlimBps();
      raw += session.log.AverageRawBps();
      ++n;
    }
    x /= n;
    slim /= n;
    raw /= n;
    if (kind == AppKind::kPhotoshop || kind == AppKind::kNetscape) {
      image_slim += slim / 2;
    } else {
      text_slim += slim / 2;
    }
    table.AddRow({AppKindName(kind), Format("%.3f", x / 1e6), Format("%.3f", slim / 1e6),
                  Format("%.3f", raw / 1e6), Format("%.2f", x / slim),
                  Format("%.1f", raw / slim)});
    const std::string app = AppKindName(kind);
    report.Metric(app + ".x_bandwidth", x / 1e6, "Mbps");
    report.Metric(app + ".slim_bandwidth", slim / 1e6, "Mbps");
    report.Metric(app + ".raw_bandwidth", raw / 1e6, "Mbps");
  }
  report.Metric("image_vs_text_slim", image_slim / text_slim, "ratio");
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nImage applications average %.1fx the SLIM bandwidth of text applications\n"
      "(paper: \"an order of magnitude more\").\n",
      image_slim / text_slim);
  return 0;
}
