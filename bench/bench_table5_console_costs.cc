// Table 5: Sun Ray 1 protocol processing costs.
//
// Reproduces the paper's methodology: stream each command type at several sizes, observe the
// console's service times, and recover a per-command startup cost plus an incremental cost
// per pixel by linear regression. Also demonstrates the saturation behaviour the paper used
// to find the sustainable rate: past the decode capacity the console's command memory fills
// and it drops commands.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace slim {
namespace {

DisplayCommand MakeCommandOfSize(CommandType type, CscsDepth depth, int32_t w, int32_t h,
                                 int32_t x, int32_t y) {
  switch (type) {
    case CommandType::kSet: {
      SetCommand cmd;
      cmd.dst = Rect{x, y, w, h};
      cmd.rgb.assign(static_cast<size_t>(w) * h * 3, 0x55);
      return cmd;
    }
    case CommandType::kBitmap: {
      BitmapCommand cmd;
      cmd.dst = Rect{x, y, w, h};
      cmd.bits.assign(((static_cast<size_t>(w) + 7) / 8) * h, 0xa5);
      return cmd;
    }
    case CommandType::kFill:
      return FillCommand{Rect{x, y, w, h}, kWhite};
    case CommandType::kCopy:
      return CopyCommand{0, 0, Rect{x, y, w, h}};
    case CommandType::kCscs: {
      CscsCommand cmd;
      cmd.src_w = w;
      cmd.src_h = h;
      cmd.dst = Rect{x, y, w, h};
      cmd.depth = depth;
      cmd.payload.assign(CscsPayloadBytes(w, h, depth), 0x3c);
      return cmd;
    }
  }
  return FillCommand{};
}

struct FitRow {
  LinearFit fit;
};

// Measures average decode time at each size and regresses time = startup + per_pixel * px.
LinearFit MeasureCommand(CommandType type, CscsDepth depth) {
  std::vector<double> pixels;
  std::vector<double> nanos;
  for (const int32_t edge : {16, 32, 64, 96, 128, 192, 256}) {
    Simulator sim;
    FabricOptions fast;
    fast.link.bits_per_second = 10'000'000'000;  // measurement feed, not the bottleneck
    Fabric fabric(&sim, fast);
    Console console(&sim, &fabric, {});
    SlimEndpoint server(&fabric, fabric.AddNode());
    constexpr int kRepeats = 24;
    for (int i = 0; i < kRepeats; ++i) {
      // Vary the destination so CSCS never hits the warm streaming path: Table 5
      // characterizes the cold, per-command cost.
      const int32_t x = (i * 37) % 512;
      const int32_t y = (i * 53) % 512;
      server.Send(console.node(), 1, std::visit([](auto b) { return MessageBody(b); },
                                                MakeCommandOfSize(type, depth, edge, edge, x,
                                                                  y)));
      sim.Run();  // one at a time: pure service time, no queueing
    }
    RunningStats stats;
    for (const ServiceRecord& rec : console.service_log()) {
      stats.Add(static_cast<double>(rec.completion - rec.start));
    }
    pixels.push_back(static_cast<double>(edge) * edge);
    nanos.push_back(stats.mean());
  }
  return FitLine(pixels, nanos);
}

void DemonstrateSaturation() {
  // Offer SET commands at increasing rates; report sustained rate and drops.
  std::printf("\nSaturation probe (SET 128x128): offered vs sustained rate\n");
  TextTable table({"offered cmds/s", "applied cmds/s", "dropped %"});
  for (const int offered : {100, 200, 300, 400}) {
    Simulator sim;
    FabricOptions fast;
    fast.link.bits_per_second = 1'000'000'000;
    Fabric fabric(&sim, fast);
    ConsoleOptions options;
    options.record_service_log = false;
    Console console(&sim, &fabric, options);
    SlimEndpoint server(&fabric, fabric.AddNode());
    const SimDuration gap = kSecond / offered;
    const int total = offered * 2;  // two simulated seconds
    std::function<void(int)> send_next = [&](int i) {
      if (i >= total) {
        return;
      }
      server.Send(console.node(), 1,
                  std::visit([](auto b) { return MessageBody(b); },
                             MakeCommandOfSize(CommandType::kSet, CscsDepth::k16, 128, 128,
                                               (i * 61) % 512, (i * 17) % 512)));
      sim.Schedule(gap, [&, i] { send_next(i + 1); });
    };
    send_next(0);
    sim.Run();
    const double seconds = ToSeconds(sim.now());
    table.AddRow({Format("%d", offered),
                  Format("%.0f", console.commands_applied() / seconds),
                  Format("%.1f", 100.0 * console.commands_dropped() / total)});
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Table 5 - SLIM console protocol processing costs",
              "Schmidt et al., SOSP'99, Table 5");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("table5_console_costs",
                                       "SLIM console protocol processing costs");

  struct Row {
    const char* name;
    const char* slug;
    CommandType type;
    CscsDepth depth;
    double paper_startup;
    double paper_per_pixel;
  };
  const Row rows[] = {
      {"SET", "set", CommandType::kSet, CscsDepth::k16, 5000, 270},
      {"BITMAP", "bitmap", CommandType::kBitmap, CscsDepth::k16, 11080, 22},
      {"FILL", "fill", CommandType::kFill, CscsDepth::k16, 5000, 2},
      {"COPY", "copy", CommandType::kCopy, CscsDepth::k16, 5000, 10},
      {"CSCS (16 bpp)", "cscs16", CommandType::kCscs, CscsDepth::k16, 24000, 205},
      {"CSCS (12 bpp)", "cscs12", CommandType::kCscs, CscsDepth::k12, 24000, 193},
      {"CSCS (8 bpp)", "cscs8", CommandType::kCscs, CscsDepth::k8, 24000, 178},
      {"CSCS (5 bpp)", "cscs5", CommandType::kCscs, CscsDepth::k5, 24000, 150},
  };
  TextTable table({"Command", "Startup (paper)", "Startup (meas.)", "ns/px (paper)",
                   "ns/px (meas.)", "R^2"});
  for (const Row& row : rows) {
    const LinearFit fit = MeasureCommand(row.type, row.depth);
    table.AddRow({row.name, Format("%.0f ns", row.paper_startup),
                  Format("%.0f ns", fit.intercept), Format("%.0f", row.paper_per_pixel),
                  Format("%.1f", fit.slope), Format("%.4f", fit.r_squared)});
    const std::string base = row.slug;
    report.Metric(base + ".startup", fit.intercept, "ns");
    report.Metric(base + ".per_pixel", fit.slope, "ns/px");
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nMeasured startup includes the %d ns per-message dispatch overhead the\n"
              "regression cannot separate from the command startup.\n",
              static_cast<int>(ConsoleCostModel{}.dispatch_overhead));
  DemonstrateSaturation();
  return 0;
}
