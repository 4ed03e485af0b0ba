// Ablation: how much each encoder heuristic and design choice contributes (DESIGN.md §5).
//
//   1. Command-selection heuristics: disable FILL / BITMAP detection and re-measure the
//      compression of a realistic screen (Figure 4's result depends on them).
//   2. Band height / chunk width: the damage-analysis granularity trade-off.
//   3. CSCS depth: bandwidth vs decode cost for a video frame.
//   4. Transport: NACK recovery on a lossy link vs no recovery.
//   5. Console bandwidth allocator: paper's ascending+fair-share vs naive equal split.
//   6. Section 5.4 future work: command batching + header compression on a modem link.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/codec/encoder.h"
#include "src/console/bandwidth.h"
#include "src/console/cost_model.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace slim {
namespace {

// A realistic mixed screen: UI chrome, text panes, photos.
Framebuffer MakeMixedScreen() {
  Framebuffer fb(1024, 768, UiBackground());
  Rng rng(42);
  fb.Fill(Rect{0, 0, 1024, 32}, UiPanel());
  const Font& font = DefaultFont();
  for (int line = 0; line < 24; ++line) {
    const std::string text = MakeTextLine(&rng, 70);
    int32_t x = 24;
    for (const char c : text) {
      const GlyphBitmap& glyph = font.Glyph(c);
      fb.ExpandBitmap(Rect{x, 64 + line * font.line_height(), glyph.width, glyph.height},
                      glyph.bits, UiText(), kWhite);
      x += glyph.width;
    }
  }
  fb.SetPixels(Rect{640, 80, 320, 240}, MakePhotoBlock(&rng, 320, 240));
  fb.SetPixels(Rect{640, 360, 280, 200}, MakeArtBlock(&rng, 280, 200));
  return fb;
}

void EncoderHeuristicAblation(BenchReporter* report) {
  std::printf("\n1) Encoder command-selection heuristics (1024x768 mixed screen)\n");
  const Framebuffer screen = MakeMixedScreen();
  TextTable table({"configuration", "commands", "KB on wire", "compression"});
  struct Config {
    const char* name;
    const char* slug;
    bool fill;
    bool bitmap;
  };
  for (const Config& config : {Config{"full encoder", "full", true, true},
                               Config{"no BITMAP detection", "no_bitmap", true, false},
                               Config{"no FILL detection", "no_fill", false, true},
                               Config{"SET only (raw pixels)", "set_only", false, false}}) {
    EncoderOptions options;
    options.enable_fill = config.fill;
    options.enable_bitmap = config.bitmap;
    Encoder encoder(options);
    std::vector<DisplayCommand> cmds;
    encoder.EncodeRect(screen, screen.bounds(), &cmds);
    int64_t wire = 0;
    for (const auto& cmd : cmds) {
      wire += static_cast<int64_t>(WireSize(cmd));
    }
    const int64_t raw = screen.bounds().area() * 3;
    table.AddRow({config.name, Format("%zu", cmds.size()),
                  Format("%lld", static_cast<long long>(wire / 1024)),
                  Format("%.1fx", static_cast<double>(raw) / static_cast<double>(wire))});
    report->Metric(std::string("encoder.") + config.slug + ".compression",
                   static_cast<double>(raw) / static_cast<double>(wire), "ratio");
  }
  std::printf("%s", table.Render().c_str());
}

void GranularityAblation() {
  std::printf("\n2) Damage-analysis granularity (band height x chunk width)\n");
  const Framebuffer screen = MakeMixedScreen();
  TextTable table({"band x chunk", "commands", "KB on wire"});
  for (const int32_t band : {8, 32, 128}) {
    for (const int32_t chunk : {32, 64, 256}) {
      EncoderOptions options;
      options.band_height = band;
      options.chunk_width = chunk;
      Encoder encoder(options);
      std::vector<DisplayCommand> cmds;
      encoder.EncodeRect(screen, screen.bounds(), &cmds);
      int64_t wire = 0;
      for (const auto& cmd : cmds) {
        wire += static_cast<int64_t>(WireSize(cmd));
      }
      table.AddRow({Format("%dx%d", band, chunk), Format("%zu", cmds.size()),
                    Format("%lld", static_cast<long long>(wire / 1024))});
    }
  }
  std::printf("%s", table.Render().c_str());
}

void CscsDepthAblation() {
  std::printf("\n3) CSCS depth: bandwidth vs console decode time (320x240 frame)\n");
  const ConsoleCostModel model;
  TextTable table({"depth", "KB/frame", "Mbps @24fps", "cold decode", "warm decode"});
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    CscsCommand cmd;
    cmd.src_w = 320;
    cmd.src_h = 240;
    cmd.dst = Rect{0, 0, 320, 240};
    cmd.depth = depth;
    cmd.payload.assign(CscsPayloadBytes(320, 240, depth), 0);
    const auto bytes = static_cast<int64_t>(cmd.payload.size());
    table.AddRow({Format("%d bpp", BitsPerPixel(depth)),
                  Format("%lld", static_cast<long long>(bytes / 1024)),
                  Format("%.1f", bytes * 8.0 * 24 / 1e6),
                  Format("%.1f ms", ToMillis(model.CostOf(DisplayCommand(cmd)))),
                  Format("%.1f ms", ToMillis(model.StreamingCscsCost(cmd)))});
  }
  std::printf("%s", table.Render().c_str());
}

void NackAblation(BenchReporter* report) {
  std::printf("\n4) Transport recovery on a 5%%-loss link (per direction)\n");
  TextTable table({"configuration", "delivered / 400", "replays"});
  for (const bool nack : {true, false}) {
    Simulator sim;
    FabricOptions options;
    options.link.loss_probability = 0.05;
    Fabric fabric(&sim, options);
    SlimEndpoint a(&fabric, fabric.AddNode());
    EndpointOptions receiver_options;
    receiver_options.enable_nack = nack;
    SlimEndpoint b(&fabric, fabric.AddNode(), receiver_options);
    int received = 0;
    b.set_handler([&](const Message&, NodeId) { ++received; });
    std::function<void(int)> send_next = [&](int i) {
      if (i >= 400) {
        return;
      }
      a.Send(b.node(), 1, PingMsg{static_cast<uint64_t>(i)});
      sim.Schedule(Milliseconds(2), [&, i] { send_next(i + 1); });
    };
    send_next(0);
    sim.Run();
    table.AddRow({nack ? "NACK + idempotent replay" : "no recovery",
                  Format("%d", received),
                  Format("%lld", static_cast<long long>(a.stats().replays_sent))});
    report->Metric(nack ? "transport.nack.delivered" : "transport.no_recovery.delivered",
                   int64_t{received}, "messages");
  }
  std::printf("%s", table.Render().c_str());
}

void AllocatorAblation() {
  std::printf("\n5) Console bandwidth allocation: paper policy vs naive equal split\n");
  // One interactive window (2 Mbps) plus two greedy video streams (60 Mbps each).
  const std::vector<BandwidthRequest> requests{{1, 2'000'000}, {2, 60'000'000},
                                               {3, 60'000'000}};
  const auto paper = AllocateBandwidth(requests, 100'000'000);
  TextTable table({"flow", "requested", "paper policy", "naive equal split"});
  for (size_t i = 0; i < requests.size(); ++i) {
    int64_t paper_grant = 0;
    for (const auto& g : paper) {
      if (g.flow_id == requests[i].flow_id) {
        paper_grant = g.bits_per_second;
      }
    }
    table.AddRow({Format("%llu", static_cast<unsigned long long>(requests[i].flow_id)),
                  Format("%.1f Mbps", requests[i].bits_per_second / 1e6),
                  Format("%.1f Mbps", paper_grant / 1e6),
                  Format("%.1f Mbps", 100.0 / 3.0)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("The paper's policy satisfies the interactive window in full; the naive split\n"
              "wastes %.1f Mbps on it while starving the streams no further.\n",
              100.0 / 3.0 - 2.0);
}

void BatchingAblation(BenchReporter* report) {
  std::printf("\n6) Section 5.4 future work: batching + header compression on a 56 Kbps link\n");
  // A typing-echo workload: 4 glyph updates per second for 30 s over a modem-speed link.
  TextTable table({"configuration", "bytes on wire", "avg delivery delay"});
  for (const bool batching : {false, true}) {
    Simulator sim;
    FabricOptions options;
    options.link.bits_per_second = 56'000;
    Fabric fabric(&sim, options);
    EndpointOptions endpoint_options;
    endpoint_options.enable_batching = batching;
    endpoint_options.batch_delay = Milliseconds(20);
    SlimEndpoint server(&fabric, fabric.AddNode(), endpoint_options);
    SlimEndpoint console(&fabric, fabric.AddNode());
    RunningStats delay;
    SimTime sent_at = 0;
    console.set_handler([&](const Message&, NodeId) {
      delay.Add(ToMillis(sim.now() - sent_at));
    });
    for (int i = 0; i < 120; ++i) {
      sim.RunUntil(sim.now() + Milliseconds(250));
      sent_at = sim.now();
      // A keystroke echo: cursor fill + glyph bitmap.
      server.Send(console.node(), 1, FillCommand{Rect{i % 64 * 8, 100, 2, 13}, kBlack});
      BitmapCommand glyph;
      glyph.dst = Rect{i % 64 * 8, 100, 8, 13};
      glyph.bits.assign(13, 0x5a);
      server.Send(console.node(), 1, glyph);
    }
    sim.Run();
    table.AddRow({batching ? "batching + compressed headers" : "one datagram per command",
                  Format("%lld", static_cast<long long>(
                                     fabric.uplink_stats(server.node()).bytes_sent)),
                  Format("%.1f ms", delay.mean())});
    report->Metric(batching ? "modem.batched.wire_bytes" : "modem.unbatched.wire_bytes",
                   fabric.uplink_stats(server.node()).bytes_sent, "bytes");
  }
  std::printf("%s", table.Render().c_str());
  std::printf("The paper predicted these optimizations \"could have a dramatic effect\" on\n"
              "low-bandwidth links; the framing overhead is nearly halved.\n");
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Ablations - encoder heuristics, granularity, CSCS depth, transport, allocator",
              "DESIGN.md section 5 (design-choice index)");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport(
      "ablation_encoder", "Encoder heuristics, granularity, CSCS depth, transport, allocator");
  EncoderHeuristicAblation(&report);
  GranularityAblation();
  CscsDepthAblation();
  NackAblation(&report);
  AllocatorAblation();
  BatchingAblation(&report);
  return 0;
}
