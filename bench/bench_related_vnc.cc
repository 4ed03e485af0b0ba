// Related-work comparison (paper Section 8.3): SLIM's server-push vs a VNC-style
// client-pull display, on identical drawing activity over the same 100 Mbps fabric.
//
// Paper claims reproduced: client-pull adds update latency even on a low-latency,
// high-bandwidth network (the paper calls VNC "fairly sluggish"), and it loads the server
// with per-request delta computation over the whole framebuffer, growing with poll rate
// whether or not anything changed.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/vnc/vnc.h"

namespace slim {
namespace {

// Draws a small text update every 120 ms and measures how long until the remote copy shows
// it; returns (avg latency ms, server cpu seconds of delta scanning, KB sent).
struct RemoteResult {
  double avg_latency_ms = 0;
  double diff_cpu_s = 0;
  int64_t kb_sent = 0;
};

RemoteResult MeasureSlim() {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();
  session.FillRect(session.framebuffer().bounds(), UiBackground());
  session.Flush();
  sim.Run();

  const Font& font = DefaultFont();
  RunningStats latency;
  SimTime drawn_at = 0;
  console.set_apply_callback([&](const ServiceRecord& rec) {
    if (rec.type == CommandType::kBitmap) {
      latency.Add(ToMillis(rec.completion - drawn_at));
    }
  });
  for (int i = 0; i < 100; ++i) {
    sim.RunUntil(sim.now() + Milliseconds(120));
    drawn_at = sim.now();
    const char c = static_cast<char>('a' + i % 26);
    session.DrawGlyphs(40 + (i % 60) * font.char_width(), 200,
                       font.Shape(std::string_view(&c, 1)), kBlack, UiBackground());
    session.Flush();
    sim.Run();
  }
  RemoteResult result;
  result.avg_latency_ms = latency.mean();
  result.diff_cpu_s = 0.0;  // push model: the driver knows the damage, no scanning
  result.kb_sent = session.bytes_sent() / 1024;
  return result;
}

RemoteResult MeasureVnc(SimDuration poll) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);  // no console: VNC replaces it
  session.FillRect(session.framebuffer().bounds(), UiBackground());
  session.Flush();  // logged but untransmitted

  VncOptions options;
  options.poll_interval = poll;
  VncViewerSystem vnc(&sim, &fabric, &session, options);
  vnc.Start();
  sim.RunUntil(Seconds(1));

  const Font& font = DefaultFont();
  RunningStats latency;
  for (int i = 0; i < 100; ++i) {
    sim.RunUntil(sim.now() + Milliseconds(120));
    const SimTime drawn_at = sim.now();
    const char c = static_cast<char>('a' + i % 26);
    session.DrawGlyphs(40 + (i % 60) * font.char_width(), 200,
                       font.Shape(std::string_view(&c, 1)), kBlack, UiBackground());
    session.Flush();
    // Wait until the viewer's copy includes the change.
    while (!vnc.InSync() && sim.now() < drawn_at + Seconds(1)) {
      if (!sim.Step()) {
        break;
      }
    }
    latency.Add(ToMillis(sim.now() - drawn_at));
  }
  vnc.Stop();
  RemoteResult result;
  result.avg_latency_ms = latency.mean();
  result.diff_cpu_s = ToSeconds(vnc.diff_cpu_time());
  result.kb_sent = vnc.bytes_sent() / 1024;
  return result;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Related work - SLIM server-push vs VNC-style client-pull",
              "Schmidt et al., SOSP'99, Section 8.3");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("related_vnc", "SLIM server-push vs VNC-style client-pull");
  TextTable table({"system", "keystroke->pixels", "server delta CPU (12s run)", "KB sent"});
  const RemoteResult slim_result = MeasureSlim();
  table.AddRow({"SLIM (push at damage time)", Format("%.2f ms", slim_result.avg_latency_ms),
                "none", Format("%lld", static_cast<long long>(slim_result.kb_sent))});
  report.Metric("slim.latency", slim_result.avg_latency_ms, "ms");
  report.Metric("slim.kb_sent", slim_result.kb_sent, "KB");
  for (const auto& [name, slug, poll] :
       {std::tuple{"VNC-style pull, 20 ms poll", "vnc_20ms", Milliseconds(20)},
        std::tuple{"VNC-style pull, 50 ms poll", "vnc_50ms", Milliseconds(50)},
        std::tuple{"VNC-style pull, 100 ms poll", "vnc_100ms", Milliseconds(100)}}) {
    const RemoteResult r = MeasureVnc(poll);
    table.AddRow({name, Format("%.2f ms", r.avg_latency_ms), Format("%.2f s", r.diff_cpu_s),
                  Format("%lld", static_cast<long long>(r.kb_sent))});
    const std::string base = slug;
    report.Metric(base + ".latency", r.avg_latency_ms, "ms");
    report.Metric(base + ".diff_cpu", r.diff_cpu_s, "s");
    report.Metric(base + ".kb_sent", r.kb_sent, "KB");
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nThe pull model pays half a poll interval on average before the server even\n"
              "learns it should send, plus a full-framebuffer delta scan per request - the\n"
              "paper's explanation for VNC feeling sluggish on the same fast network.\n");
  return 0;
}
