// Figure 4: efficiency of SLIM protocol display commands.
//
// For each application, compares the uncompressed pixel volume (3 bytes per affected pixel)
// against the bytes actually sent, broken down by command type. Paper regimes: overall
// compression of roughly 2x for Photoshop and 10x or more for the other applications; FILL
// accounts for a large share of the uncompressed volume everywhere; CSCS is unused by the
// GUI applications.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/trace/protocol_log.h"
#include "src/util/table.h"

int main() {
  using namespace slim;
  PrintHeader("Figure 4 - Efficiency of SLIM protocol display commands",
              "Schmidt et al., SOSP'99, Figure 4");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig4_compression",
                                       "Efficiency of SLIM protocol display commands");

  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    ProtocolLog::TypeTotals totals[6] = {};
    for (const auto& session : RunStudyFor(kind)) {
      ProtocolLog::TypeTotals per[6];
      session.log.TotalsByType(per);
      for (int i = 0; i < 6; ++i) {
        totals[i].commands += per[i].commands;
        totals[i].wire_bytes += per[i].wire_bytes;
        totals[i].uncompressed_bytes += per[i].uncompressed_bytes;
      }
    }
    int64_t wire = 0;
    int64_t raw = 0;
    TextTable table({"Command", "count", "uncompressed MB", "SLIM MB", "reduction"});
    for (const CommandType type : {CommandType::kSet, CommandType::kBitmap,
                                   CommandType::kFill, CommandType::kCopy,
                                   CommandType::kCscs}) {
      const auto& t = totals[static_cast<size_t>(type)];
      wire += t.wire_bytes;
      raw += t.uncompressed_bytes;
      table.AddRow({CommandTypeName(type), Format("%lld", static_cast<long long>(t.commands)),
                    Format("%.2f", static_cast<double>(t.uncompressed_bytes) / 1e6),
                    Format("%.2f", static_cast<double>(t.wire_bytes) / 1e6),
                    t.wire_bytes > 0
                        ? Format("%.1fx", static_cast<double>(t.uncompressed_bytes) /
                                              static_cast<double>(t.wire_bytes))
                        : std::string("-")});
    }
    std::printf("\n%s (paper: ~2x for Photoshop, >=10x for the others)\n%s",
                AppKindName(kind), table.Render().c_str());
    std::printf("Total: %.2f MB raw -> %.2f MB SLIM  (factor %.1fx)\n",
                static_cast<double>(raw) / 1e6, static_cast<double>(wire) / 1e6,
                wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 0.0);
    const std::string app = AppKindName(kind);
    report.Metric(app + ".uncompressed_mb", static_cast<double>(raw) / 1e6, "MB");
    report.Metric(app + ".wire_mb", static_cast<double>(wire) / 1e6, "MB");
    report.Metric(app + ".compression",
                  wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 0.0,
                  "ratio");
  }
  return 0;
}
