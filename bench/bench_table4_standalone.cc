// Table 4: stand-alone benchmarks for the Sun Ray 1.
//
//   1. Response time over a 100 Mbps switched IF (paper: 550 us; Emacs echo: 3.83 ms).
//      A minimal echo application accepts a keystroke at the console, the server renders
//      one character, and we time keystroke-to-pixels-on-display.
//   2. x11perf / Xmark93 figure of merit with and without display data sent on the IF
//      (paper: 3.834 with transmission vs 7.505 without). We run a weighted suite of
//      drawing requests through the display server and charge the Server CPU model; the
//      no-wire configuration is normalized to the paper's 7.505 so the with-wire score
//      exposes the cost of protocol transmission under the same scale.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace slim {
namespace {

// One keystroke -> app processing -> one glyph on screen. Returns total latency.
SimDuration EchoResponseTime(SimDuration app_processing) {
  Simulator sim;
  Fabric fabric(&sim, {});
  ServerOptions server_options;
  server_options.model_cpu_delay = true;
  SlimServer server(&sim, &fabric, server_options);
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();

  const Font& font = DefaultFont();
  int column = 0;
  session.set_input_handler([&](const Message& msg) {
    if (const auto* key = std::get_if<KeyEventMsg>(&msg.body)) {
      if (!key->pressed) {
        return;
      }
      // The application consumes its processing time, then renders the echoed character.
      sim.Schedule(app_processing, [&session, &font, &column, key]() {
        const char c = static_cast<char>('a' + key->keycode % 26);
        const auto glyphs = font.Shape(std::string_view(&c, 1));
        session.DrawGlyphs(40 + column * font.char_width(), 40, glyphs, kBlack, kWhite);
        session.Flush();
        ++column;
      });
    }
  });
  session.FillRect(Rect{0, 0, 400, 100}, kWhite);
  session.Flush();
  sim.Run();

  // Measure 20 keystrokes and average.
  RunningStats stats;
  SimTime key_sent = 0;
  console.set_apply_callback([&](const ServiceRecord& rec) {
    if (rec.type == CommandType::kBitmap) {
      stats.Add(static_cast<double>(rec.completion - key_sent));
    }
  });
  for (int i = 0; i < 20; ++i) {
    sim.Schedule(Milliseconds(20), [&console, &server, &session, &key_sent, &sim, i]() {
      key_sent = sim.now();
      console.SendKey(server.node(), session.id(), static_cast<uint32_t>(i), true);
    });
    sim.Run();
  }
  return static_cast<SimDuration>(stats.mean());
}

struct XperfResult {
  int64_t ops = 0;
  SimDuration cpu = 0;
};

// A weighted x11perf-like request suite (rectangles, text, scrolls, blits, images).
XperfResult RunXperfSuite(bool transmit) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  if (transmit) {
    console.InsertCard(server.node(), card);
    sim.Run();
  }
  const Font& font = DefaultFont();
  Rng rng(1999);
  XperfResult result;
  auto flush = [&]() {
    session.Flush();
    if (transmit) {
      sim.Run();
    }
  };
  // Weights loosely follow Xmark93's emphasis on small 2-D ops with some image traffic.
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 40; ++i) {  // small fills
      session.FillRect(Rect{i * 8, round % 64, 60, 20}, MakePixel(20, 40, 60));
      ++result.ops;
    }
    for (int i = 0; i < 30; ++i) {  // text runs
      const auto glyphs = font.Shape(MakeTextLine(&rng, 24));
      session.DrawGlyphs(10, 100 + (i % 20) * font.line_height(), glyphs, kBlack, kWhite);
      ++result.ops;
    }
    for (int i = 0; i < 10; ++i) {  // scrolls
      session.CopyArea(0, 120, Rect{0, 100, 600, 300});
      ++result.ops;
    }
    for (int i = 0; i < 8; ++i) {  // 100x100 image blits
      session.PutImage(Rect{500, 400, 100, 100}, MakePhotoBlock(&rng, 100, 100));
      ++result.ops;
    }
    flush();
  }
  result.cpu = session.render_time() + session.encode_time() +
               (transmit ? session.wire_time() : 0);
  return result;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Table 4 - Stand-alone benchmarks for the SLIM console",
              "Schmidt et al., SOSP'99, Table 4");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("table4_standalone",
                                       "Stand-alone benchmarks for the SLIM console");

  const SimDuration echo = EchoResponseTime(Microseconds(430));
  const SimDuration emacs = EchoResponseTime(Microseconds(3300) + Microseconds(430));

  const XperfResult with_wire = RunXperfSuite(/*transmit=*/true);
  const XperfResult no_wire = RunXperfSuite(/*transmit=*/false);
  const double ops_per_cpu_second_wire =
      static_cast<double>(with_wire.ops) / ToSeconds(with_wire.cpu);
  const double ops_per_cpu_second_nowire =
      static_cast<double>(no_wire.ops) / ToSeconds(no_wire.cpu);
  // Normalize the no-transmission configuration to the paper's 7.505 Xmarks.
  const double scale = 7.505 / ops_per_cpu_second_nowire;

  TextTable table({"Benchmark", "Paper", "Measured"});
  table.AddRow({"Response time over 100Mbps switched IF", "550 us",
                Format("%.0f us", ToMicros(echo))});
  table.AddRow({"Response time, Emacs echo", "3.83 ms", Format("%.2f ms", ToMillis(emacs))});
  table.AddRow({"x11perf/Xmark93 (display data on IF)", "3.834",
                Format("%.3f", ops_per_cpu_second_wire * scale)});
  table.AddRow({"x11perf/Xmark93 (no display data sent)", "7.505",
                Format("%.3f", ops_per_cpu_second_nowire * scale)});
  std::printf("%s", table.Render().c_str());
  std::printf("\nNetwork transmission costs the server %.1f%% of its graphics throughput\n",
              (1.0 - ops_per_cpu_second_wire / ops_per_cpu_second_nowire) * 100.0);
  report.Metric("echo_response", ToMicros(echo), "us");
  report.Metric("emacs_echo_response", ToMillis(emacs), "ms");
  report.Metric("xmark_with_wire", ops_per_cpu_second_wire * scale, "xmarks");
  report.Metric("xmark_no_wire", ops_per_cpu_second_nowire * scale, "xmarks");
  return 0;
}
