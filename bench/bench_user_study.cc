// The user study behind Figures 2-8 (paper Sections 3.1 and 5).
//
// The paper logged one set of user sessions and post-processed it once per figure, and so
// does this harness: it runs the study once per application, then hands the same sessions
// to one function per figure, which prints that figure's tables and writes its metrics
// under a `figN.` prefix. Every session must also end with the console framebuffer equal to
// the server's (the core invariant); the harness exits nonzero, naming the application and
// session, when one does not.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/fabric.h"
#include "src/trace/protocol_log.h"
#include "src/util/histogram.h"
#include "src/util/table.h"
#include "src/workload/user_study.h"

namespace slim {
namespace {

// Each application's sessions, indexed by AppKind.
using Study = std::array<std::vector<UserSessionResult>, kAppKindCount>;

Study RunStudy(BenchReporter* report) {
  const int users = ScaleKnob(report, "SLIM_USERS", 12);
  const int minutes = ScaleKnob(report, "SLIM_MINUTES", 5);
  Study study;
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    std::fprintf(stderr, "[study] %s: %d users x %d min...\n", AppKindName(kind), users,
                 minutes);
    study[k] = RunUserStudy(kind, users, Seconds(60L * minutes), 0xbe9c5 + k);
  }
  return study;
}

bool FramebuffersMatch(const Study& study) {
  bool all_match = true;
  for (int k = 0; k < kAppKindCount; ++k) {
    for (size_t u = 0; u < study[k].size(); ++u) {
      if (!study[k][u].framebuffers_match) {
        std::fprintf(stderr, "[study] %s session %zu: console framebuffer differs from the "
                     "server's\n", AppKindName(static_cast<AppKind>(k)), u);
        all_match = false;
      }
    }
  }
  return all_match;
}

// Figure 2: cumulative distributions of user input event frequency.
//
// Paper regimes: <1% of events above 28 Hz for every application; ~70% of events below
// 10 Hz; Netscape/Photoshop show a substantially larger share of events at least one second
// apart than FrameMaker/PIM. Input events are keystrokes and mouse clicks; the histogram
// bucket matches the paper's 0.005 events/sec.
void Fig2InputRates(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 2 - CDF of user input event frequency",
              "Schmidt et al., SOSP'99, Figure 2");
  TextTable table({"Application", "events", ">28Hz (paper <1%)", "<10Hz (paper ~70%)",
                   ">=1s apart (NS/PS >> FM/PIM)", "median Hz"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 40.0, 0.005);  // events/sec, paper's bucket width
    int64_t total = 0;
    int64_t slow = 0;
    for (const auto& session : study[k]) {
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
    const std::string app = std::string("fig2.") + AppKindName(kind);
    report->Metric(app + ".events", total, "count");
    report->Metric(app + ".over_28hz", 100.0 * (1.0 - cdf.CdfAt(28.0)), "percent");
    report->Metric(app + ".under_10hz", 100.0 * cdf.CdfAt(10.0), "percent");
    report->Metric(app + ".median_rate", cdf.InverseCdf(0.5), "events/s");
    std::printf("\n%s CDF (events/sec -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
}

// Figure 3: cumulative distributions of pixels changed per user input event.
//
// Uses the paper's attribution heuristic (all pixel changes between two input events belong
// to the first). Paper regimes: nearly 50% of events for any application change fewer than
// 10 Kpixels; only ~20% of FrameMaker/PIM events exceed 10 Kpixels; only ~30% of
// Netscape/Photoshop events exceed 50 Kpixels.
void Fig3PixelUpdates(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 3 - CDF of pixels changed per input event",
              "Schmidt et al., SOSP'99, Figure 3");
  TextTable table({"Application", "events", "median px", "<10Kpx (paper ~50%+)",
                   ">10Kpx", ">50Kpx (NS/PS ~30%)"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 1.4e6, 256.0);  // up to the 1.25 Mpixel display + margin
    for (const auto& session : study[k]) {
      for (const auto& update : session.log.AttributeToEvents()) {
        cdf.Add(static_cast<double>(update.pixels));
      }
    }
    table.AddRow({AppKindName(kind), Format("%lld", static_cast<long long>(cdf.total_count())),
                  Format("%.0f", cdf.InverseCdf(0.5)),
                  Format("%.1f%%", 100.0 * cdf.CdfAt(10'000.0)),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(10'000.0))),
                  Format("%.1f%%", 100.0 * (1.0 - cdf.CdfAt(50'000.0)))});
    const std::string app = std::string("fig3.") + AppKindName(kind);
    report->Metric(app + ".events", cdf.total_count(), "count");
    report->Metric(app + ".median_pixels", cdf.InverseCdf(0.5), "pixels");
    report->Metric(app + ".under_10kpx", 100.0 * cdf.CdfAt(10'000.0), "percent");
    report->Metric(app + ".over_50kpx", 100.0 * (1.0 - cdf.CdfAt(50'000.0)), "percent");
    std::printf("\n%s CDF (pixels -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
}

// Figure 4: efficiency of SLIM protocol display commands.
//
// For each application, compares the uncompressed pixel volume (3 bytes per affected pixel)
// against the bytes actually sent, broken down by command type. Paper regimes: overall
// compression of roughly 2x for Photoshop and 10x or more for the other applications; FILL
// accounts for a large share of the uncompressed volume everywhere; CSCS is unused by the
// GUI applications.
void Fig4Compression(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 4 - Efficiency of SLIM protocol display commands",
              "Schmidt et al., SOSP'99, Figure 4");
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    ProtocolLog::TypeTotals totals[6] = {};
    for (const auto& session : study[k]) {
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
    const std::string app = std::string("fig4.") + AppKindName(kind);
    report->Metric(app + ".uncompressed_mb", static_cast<double>(raw) / 1e6, "MB");
    report->Metric(app + ".wire_mb", static_cast<double>(wire) / 1e6, "MB");
    report->Metric(app + ".compression",
                   wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 0.0,
                   "ratio");
  }
}

// Figure 5: cumulative distributions of SLIM protocol data transmitted per input event.
//
// Paper regimes: a 50 KB update costs only 3.8 ms on a 100 Mbps IF; only ~25% of
// Photoshop/Netscape events need more than 10 KB and only ~5% more than 50 KB; for
// FrameMaker/PIM only ~17% of events need more than 1 KB and ~2% more than 10 KB.
void Fig5BytesPerEvent(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 5 - CDF of SLIM protocol bytes per input event",
              "Schmidt et al., SOSP'99, Figure 5");
  TextTable table({"Application", "median B", ">1KB (FM/PIM ~17%)", ">10KB (NS/PS ~25%)",
                   ">50KB (NS/PS ~5%)", "p95 tx delay @100Mbps"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 2e6, 64.0);
    for (const auto& session : study[k]) {
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
    const std::string app = std::string("fig5.") + AppKindName(kind);
    report->Metric(app + ".median_bytes", cdf.InverseCdf(0.5), "bytes");
    report->Metric(app + ".over_10kb", 100.0 * (1.0 - cdf.CdfAt(10'000.0)), "percent");
    report->Metric(app + ".p95_tx_delay",
                   ToMillis(TransmissionDelay(static_cast<int64_t>(p95_bytes), 100'000'000)),
                   "ms");
    std::printf("\n%s CDF (bytes -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
  std::printf("\nA 50KB update costs %.1f ms of transmission at 100 Mbps (paper: 3.8 ms).\n",
              ToMillis(TransmissionDelay(50'000, 100'000'000)));
}

struct Packet {
  SimTime at = 0;
  int64_t bytes = 0;
};

std::vector<Packet> PacketizeLog(const ProtocolLog& log) {
  std::vector<Packet> packets;
  for (const LogEntry& entry : log.entries()) {
    if (entry.kind != LogKind::kDisplay) {
      continue;
    }
    int64_t remaining = entry.wire_bytes;
    while (remaining > 0) {
      const int64_t chunk = std::min<int64_t>(remaining, kMtuBytes);
      packets.push_back({entry.time, chunk + kDatagramOverheadBytes});
      remaining -= chunk;
    }
  }
  return packets;
}

// Token-bucket shaper, 50 ms averaging windows: window k (starting at k*50ms) releases
// bps*50ms bytes; a packet completes in the first window with spare capacity at or after
// its arrival. Returns per-packet delays (completion - arrival).
std::vector<SimDuration> QueueDelays(const std::vector<Packet>& packets, int64_t bps) {
  constexpr SimDuration kWindow = Milliseconds(50);
  const int64_t window_bytes = std::max<int64_t>(1, bps / 8 * 50 / 1000);
  std::vector<SimDuration> delays;
  delays.reserve(packets.size());
  int64_t window_index = 0;
  int64_t window_used = 0;
  for (const Packet& p : packets) {
    const int64_t arrival_window = p.at / kWindow;
    if (arrival_window > window_index) {
      window_index = arrival_window;
      window_used = 0;
    }
    int64_t remaining = p.bytes;
    while (remaining > 0) {
      const int64_t take = std::min(remaining, window_bytes - window_used);
      remaining -= take;
      window_used += take;
      if (window_used >= window_bytes && remaining > 0) {
        ++window_index;
        window_used = 0;
      }
    }
    // The packet's last byte leaves part-way through window_index.
    const SimTime done =
        window_index * kWindow +
        static_cast<SimDuration>(static_cast<double>(window_used) /
                                 static_cast<double>(window_bytes) *
                                 static_cast<double>(kWindow));
    delays.push_back(std::max<SimDuration>(0, done - p.at));
  }
  return delays;
}

// The `fraction` percentile of sorted added delays (ms) as the paper's 0.01 ms-bucket CDF
// reads it, by Histogram::InverseCdf's rule: the upper edge of the bucket that holds the
// ceil(fraction * n)-th delay, with delays past 60 s in the top bucket.
double AddedDelayPercentile(const std::vector<double>& sorted_ms, double fraction) {
  constexpr double kTopMs = 60'000.0;
  constexpr double kBucketMs = 0.01;
  if (sorted_ms.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(sorted_ms.size())));
  const double ms = std::clamp(sorted_ms[rank - 1], 0.0, kTopMs);
  const auto buckets = static_cast<size_t>(std::ceil(kTopMs / kBucketMs));
  const size_t bucket = std::min(static_cast<size_t>(ms / kBucketMs), buckets - 1);
  return static_cast<double>(bucket + 1) * kBucketMs;
}

// Figure 6: added packet delays when Netscape protocol traces captured at 100 Mbps are
// retransmitted over lower-bandwidth links (Section 5.4).
//
// Paper regimes: at 10 Mbps added delays stay below 5 ms; at 1-2 Mbps they approach 50 ms
// (noticeable but acceptable); at 56-128 Kbps they blow past 100 ms (unusably slow). The
// method matches the paper, including its footnote that "bandwidth is averaged over 50 ms
// intervals": each user's packet train is shaped by a token bucket that releases
// bandwidth*50ms bytes per window, so a burst that fits one window passes undelayed and
// anything larger spills into later windows. Each user session (a home connection) is
// shaped independently.
void Fig6BandwidthScaling(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 6 - Added packet delays at reduced link bandwidth (Netscape)",
              "Schmidt et al., SOSP'99, Figure 6 / Section 5.4");
  // The Netscape traces were captured at 100 Mbps; each user's connection is shaped
  // independently (the home-connection scenario the paper simulates).
  std::vector<std::vector<Packet>> per_user;
  size_t total_packets = 0;
  for (const auto& session : study[static_cast<int>(AppKind::kNetscape)]) {
    per_user.push_back(PacketizeLog(session.log));
    total_packets += per_user.back().size();
  }
  std::vector<std::vector<SimDuration>> base;
  base.reserve(per_user.size());
  for (const auto& packets : per_user) {
    base.push_back(QueueDelays(packets, 100'000'000));
  }

  TextTable table({"Bandwidth", "p50 added", "p90 added", "p99 added", ">50ms", ">100ms",
                   "verdict (paper)"});
  struct Level {
    const char* name;
    const char* slug;  // for BENCH json metric names
    int64_t bps;
    const char* verdict;
  };
  const Level levels[] = {
      {"10 Mbps", "10mbps", 10'000'000, "indistinguishable (<5ms)"},
      {"2 Mbps", "2mbps", 2'000'000, "good, occasional hiccups"},
      {"1 Mbps", "1mbps", 1'000'000, "acceptable (~50ms)"},
      {"128 Kbps", "128kbps", 128'000, "unacceptable (>100ms)"},
      {"56 Kbps", "56kbps", 56'000, "painful"},
  };
  for (const Level& level : levels) {
    std::vector<double> added;  // ms
    int64_t over_50 = 0;
    int64_t over_100 = 0;
    int64_t pace_delayed = 0;  // packets the shaper actually held, as in txq.pace_delayed
    int64_t n = 0;
    for (size_t u = 0; u < per_user.size(); ++u) {
      const std::vector<SimDuration> delays = QueueDelays(per_user[u], level.bps);
      for (size_t i = 0; i < delays.size(); ++i) {
        const double added_ms = ToMillis(delays[i] - base[u][i]);
        added.push_back(added_ms);
        over_50 += added_ms > 50.0 ? 1 : 0;
        over_100 += added_ms > 100.0 ? 1 : 0;
        pace_delayed += added_ms > 0.0 ? 1 : 0;
        ++n;
      }
    }
    std::sort(added.begin(), added.end());
    const auto pct = [&](int64_t count) {
      return Format("%.1f%%", 100.0 * static_cast<double>(count) / static_cast<double>(n));
    };
    const double p50 = AddedDelayPercentile(added, 0.50);
    const double p99 = AddedDelayPercentile(added, 0.99);
    table.AddRow({level.name, Format("%.2f ms", p50),
                  Format("%.2f ms", AddedDelayPercentile(added, 0.90)),
                  Format("%.2f ms", p99), pct(over_50), pct(over_100), level.verdict});
    const std::string slug = std::string("fig6.") + level.slug;
    report->Metric(slug + ".p50_added", p50, "ms");
    report->Metric(slug + ".p99_added", p99, "ms");
    report->Metric(slug + ".over_100ms",
                   100.0 * static_cast<double>(over_100) / static_cast<double>(n), "percent");
    report->Metric(slug + ".pace_delayed", pace_delayed, "count");
  }
  std::printf("Replayed %zu packets from the captured Netscape traces.\n\n%s",
              total_packets, table.Render().c_str());
}

// Figure 7: cumulative distributions of display-update service times on the console.
//
// Service time runs from the arrival of an update's first command at the console to the
// completion of its last (queueing + Table 5 decode costs). Paper regimes: ~80% of updates
// complete within 50 ms (below the threshold of perception); only a small tail exceeds
// 100 ms, and those correspond to the largest display changes.
void Fig7ServiceTimes(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 7 - CDF of display update service times at the console",
              "Schmidt et al., SOSP'99, Figure 7");
  TextTable table({"Application", "updates", "median", "<50ms (paper ~80%+)", ">100ms",
                   "p99"});
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    Histogram cdf(0.0, 500.0, 0.1);  // ms, paper's 0.1 ms buckets
    for (const auto& session : study[k]) {
      for (const double ms : UpdateServiceTimesMs(session.console_log)) {
        cdf.Add(ms);
      }
    }
    table.AddRow({AppKindName(kind), Format("%lld", static_cast<long long>(cdf.total_count())),
                  Format("%.2f ms", cdf.InverseCdf(0.5)),
                  Format("%.1f%%", 100.0 * cdf.CdfAt(50.0)),
                  Format("%.2f%%", 100.0 * (1.0 - cdf.CdfAt(100.0))),
                  Format("%.1f ms", cdf.InverseCdf(0.99))});
    const std::string app = std::string("fig7.") + AppKindName(kind);
    report->Metric(app + ".updates", cdf.total_count(), "count");
    report->Metric(app + ".median_service", cdf.InverseCdf(0.5), "ms");
    report->Metric(app + ".under_50ms", 100.0 * cdf.CdfAt(50.0), "percent");
    report->Metric(app + ".p99_service", cdf.InverseCdf(0.99), "ms");
    std::printf("\n%s CDF (ms -> cumulative fraction):\n%s", AppKindName(kind),
                cdf.CdfSeries(24).c_str());
  }
  std::printf("\n%s", table.Render().c_str());
}

// Figure 8: average network bandwidth under the X, SLIM, and raw-pixel protocols.
//
// Paper regimes: X and SLIM are competitive everywhere; X is slightly better on the
// text-oriented FrameMaker/PIM (whose absolute demand is so low it does not matter); SLIM
// beats X on the image-heavy Netscape/Photoshop, which demand an order of magnitude more
// bandwidth than the text applications; raw pixels cost ~2x SLIM for Photoshop and >=10x
// for the rest.
void Fig8AvgBandwidth(const Study& study, BenchReporter* report) {
  PrintHeader("Figure 8 - Average bandwidth: X vs SLIM vs raw pixels",
              "Schmidt et al., SOSP'99, Figure 8");
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
    for (const auto& session : study[k]) {
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
    const std::string app = std::string("fig8.") + AppKindName(kind);
    report->Metric(app + ".x_bandwidth", x / 1e6, "Mbps");
    report->Metric(app + ".slim_bandwidth", slim / 1e6, "Mbps");
    report->Metric(app + ".raw_bandwidth", raw / 1e6, "Mbps");
  }
  report->Metric("fig8.image_vs_text_slim", image_slim / text_slim, "ratio");
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nImage applications average %.1fx the SLIM bandwidth of text applications\n"
      "(paper: \"an order of magnitude more\").\n",
      image_slim / text_slim);
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  // SLIM_TRACE=out.json captures the full pipeline (input dispatch -> render/encode ->
  // transport -> console decode/present) as a Chrome trace across every study session.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("user_study", "User study behind Figures 2-8");
  const Study study = RunStudy(&report);
  Fig2InputRates(study, &report);
  Fig3PixelUpdates(study, &report);
  Fig4Compression(study, &report);
  Fig5BytesPerEvent(study, &report);
  Fig6BandwidthScaling(study, &report);
  Fig7ServiceTimes(study, &report);
  Fig8AvgBandwidth(study, &report);
  return FramebuffersMatch(study) ? 0 : 1;
}
