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

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/fabric.h"
#include "src/util/histogram.h"
#include "src/util/table.h"

namespace slim {
namespace {

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

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Figure 6 - Added packet delays at reduced link bandwidth (Netscape)",
              "Schmidt et al., SOSP'99, Figure 6 / Section 5.4");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("fig6_bandwidth_scaling",
                                       "Added packet delays at reduced link bandwidth");

  // Capture Netscape traces at 100 Mbps; each user's connection is shaped independently
  // (the home-connection scenario the paper simulates).
  std::vector<std::vector<Packet>> per_user;
  size_t total_packets = 0;
  for (const auto& session : RunStudyFor(AppKind::kNetscape)) {
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
    Histogram cdf(0.0, 60'000.0, 0.01);  // added delay in ms, paper's 0.01 ms buckets
    int64_t over_50 = 0;
    int64_t over_100 = 0;
    int64_t pace_delayed = 0;  // packets the shaper actually held, as in txq.pace_delayed
    int64_t n = 0;
    for (size_t u = 0; u < per_user.size(); ++u) {
      const std::vector<SimDuration> delays = QueueDelays(per_user[u], level.bps);
      for (size_t i = 0; i < delays.size(); ++i) {
        const double added_ms = ToMillis(delays[i] - base[u][i]);
        cdf.Add(added_ms);
        over_50 += added_ms > 50.0 ? 1 : 0;
        over_100 += added_ms > 100.0 ? 1 : 0;
        pace_delayed += added_ms > 0.0 ? 1 : 0;
        ++n;
      }
    }
    const auto pct = [&](int64_t count) {
      return Format("%.1f%%", 100.0 * static_cast<double>(count) / static_cast<double>(n));
    };
    table.AddRow({level.name, Format("%.2f ms", cdf.InverseCdf(0.50)),
                  Format("%.2f ms", cdf.InverseCdf(0.90)),
                  Format("%.2f ms", cdf.InverseCdf(0.99)), pct(over_50), pct(over_100),
                  level.verdict});
    const std::string slug = level.slug;
    report.Metric(slug + ".p50_added", cdf.InverseCdf(0.50), "ms");
    report.Metric(slug + ".p99_added", cdf.InverseCdf(0.99), "ms");
    report.Metric(slug + ".over_100ms",
                  100.0 * static_cast<double>(over_100) / static_cast<double>(n), "percent");
    report.Metric(slug + ".pace_delayed", pace_delayed, "count");
  }
  std::printf("Replayed %zu packets from the captured Netscape traces.\n\n%s",
              total_packets, table.Render().c_str());
  return 0;
}
