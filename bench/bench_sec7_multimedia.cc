// Section 7: multimedia applications on SLIM.
//
//   7.1 MPEG-II player: 720x480 via CSCS at 6 bpp. Paper: ~20 Hz, ~40 Mbps, server-bound;
//       full 30 Hz rate achievable by sending every other line and scaling at the console,
//       halving bandwidth.
//   7.2 Live NTSC video: 640x240 JPEG fields scaled to 640x480. Paper: 16-20 Hz
//       (19-23 Mbps), decode-bound; four parallel 320x240 players reach 25-28 Hz each
//       (59-66 Mbps aggregate), console-bound.
//   7.3 Quake: frames rendered by the engine in 8-bit indexed color, translated through the
//       palette->YUV lookup layer, sent as 5 bpp CSCS. Paper: 18-21 Hz at 640x480
//       (22-26 Mbps), 28-34 Hz at 480x360, four parallel 320x240 instances at 37-40 Hz
//       (46-50 Mbps), translation-bound.
//
// In all cases the console's decode pipeline and the 100 Mbps IF are simulated for real;
// server-side decode/translation costs come from VideoCpuModel.
//
// The final table is the contended desktop (Section 7's allocator closing the loop): a
// saturating video stream next to an interactive application on a console whose
// allocatable bandwidth cannot carry the video's offered rate, run unconstrained, with
// grants enforced naively, and with grants enforced plus backpressure adaptation.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/benchmark_apps.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/quake/raycaster.h"
#include "src/server/slim_server.h"
#include "src/util/histogram.h"
#include "src/util/table.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"

namespace slim {
namespace {

struct MediaRun {
  double fps = 0;       // frames DISPLAYED per player (applied at the console)
  double mbps = 0;
  int64_t console_drops = 0;
  double console_busy = 0;  // decode pipeline utilization
};

struct Rig {
  explicit Rig(ServerOptions server_options = {}, ConsoleOptions console_options = {})
      : fabric(&sim, {}),
        server(&sim, &fabric, server_options),
        console(&sim, &fabric, console_options) {
    console.set_apply_callback([this](const ServiceRecord& rec) {
      if (rec.type == CommandType::kCscs) {
        ++cscs_displayed;
        cscs_bytes += static_cast<int64_t>(rec.wire_bytes);
      }
    });
  }

  ServerSession& NewSession() {
    const uint64_t card = server.auth().IssueCard(++user);
    ServerSession& session = server.CreateSession(card);
    console.InsertCard(server.node(), card);
    sim.Run();
    return session;
  }

  Simulator sim;
  Fabric fabric;
  SlimServer server;
  Console console;
  uint32_t user = 0;
  int64_t cscs_displayed = 0;
  int64_t cscs_bytes = 0;
};

MediaRun Finish(Rig& rig, const std::vector<std::unique_ptr<MediaPipeline>>& pipelines,
                SimDuration horizon) {
  // Pipelines stop themselves after `horizon`; drain everything.
  rig.sim.Run();
  MediaRun out;
  (void)pipelines;
  // The display rate (and bandwidth) is what the console actually applied, not what the
  // server offered: when the console is the bottleneck, excess frames drop in its queue.
  out.fps = static_cast<double>(rig.cscs_displayed) /
            static_cast<double>(pipelines.size()) / ToSeconds(horizon);
  out.mbps = static_cast<double>(rig.cscs_bytes) * 8.0 / ToSeconds(horizon) / 1e6;
  out.console_drops = rig.console.commands_dropped();
  out.console_busy = static_cast<double>(rig.console.busy_time()) /
                     static_cast<double>(horizon);
  return out;
}

// 7.1: stored MPEG-II clip playback.
MediaRun RunMpeg(bool half_lines, SimDuration horizon) {
  Rig rig;
  ServerSession& session = rig.NewSession();
  auto source = std::make_shared<SyntheticVideoSource>(720, half_lines ? 240 : 480, 71);
  MediaPipelineOptions options;
  options.target_fps = 30.0;  // the clip's native rate
  options.depth = CscsDepth::k6;
  options.dst = Rect{40, 40, 720, 480};  // console upscales in half-line mode
  options.run_for = horizon;
  std::vector<std::unique_ptr<MediaPipeline>> pipelines;
  pipelines.push_back(std::make_unique<MediaPipeline>(
      &rig.sim, &session, options, [source, half_lines](int index, SimDuration* cost) {
        // Decode always processes the full frame; only conversion/transmit shrink.
        const int64_t full = 720 * 480;
        const int64_t sent = half_lines ? full / 2 : full;
        *cost = VideoCpuModel::MpegFrameCost(full, sent);
        return half_lines ? source->Field(index, false) : source->Frame(index);
      }));
  pipelines.back()->Start();
  return Finish(rig, pipelines, horizon);
}

// 7.2: live NTSC video (n parallel players, each on its own CPU). Parallel players are
// windows on one desktop: a console shows one session, so they share it.
MediaRun RunNtsc(int players, int32_t w, int32_t field_h, int32_t dst_h,
                 SimDuration horizon) {
  Rig rig;
  // The session attaches first (NewSession drains the simulator), then every player starts
  // so the parallel instances genuinely overlap in simulated time.
  ServerSession& session = rig.NewSession();
  std::vector<std::unique_ptr<MediaPipeline>> pipelines;
  for (int p = 0; p < players; ++p) {
    auto source = std::make_shared<SyntheticVideoSource>(w, field_h * 2, 720 + p);
    MediaPipelineOptions options;
    options.target_fps = 30.0;
    options.depth = CscsDepth::k8;
    options.dst = Rect{20 + (p % 2) * (w + 10), 20 + (p / 2) * (dst_h + 10), w, dst_h};
    options.run_for = horizon;
    pipelines.push_back(std::make_unique<MediaPipeline>(
        &rig.sim, &session, options,
        [source, p](int index, SimDuration* cost) {
          *cost = VideoCpuModel::JpegFieldCost(static_cast<int64_t>(source->width()) *
                                               (source->height() / 2));
          return source->Field(index, (index + p) % 2 == 1);
        }));
    pipelines.back()->Start();
  }
  return Finish(rig, pipelines, horizon);
}

// 7.3: Quake through the YUV translation layer (n parallel instances on one desktop).
MediaRun RunQuake(int instances, int32_t w, int32_t h, SimDuration horizon) {
  Rig rig;
  ServerSession& session = rig.NewSession();
  std::vector<std::unique_ptr<MediaPipeline>> pipelines;
  for (int i = 0; i < instances; ++i) {
    auto engine = std::make_shared<RaycastEngine>(w, h, 0x9a4e + i);
    auto translation = std::make_shared<YuvTranslationLayer>(engine->palette());
    MediaPipelineOptions options;
    options.target_fps = 60.0;  // the game runs as fast as it can
    options.depth = CscsDepth::k5;
    options.dst = Rect{10 + (i % 2) * (w + 10), 10 + (i / 2) * (h + 10), w, h};
    options.run_for = horizon;
    pipelines.push_back(std::make_unique<MediaPipeline>(
        &rig.sim, &session, options,
        [engine, translation, w, h](int index, SimDuration* cost) {
          const Camera camera = engine->DemoCamera(index);
          const auto frame = engine->RenderFrame(camera);
          const int64_t pixels = static_cast<int64_t>(w) * h;
          // Engine render cost scales with resolution and scene complexity; translation is
          // the paper's dominant cost (~30 ms/frame at 640x480), and the frame must also be
          // copied out of the engine's private buffer before translation.
          const double complexity = engine->SceneComplexity(camera);
          const auto engine_cost = static_cast<SimDuration>(
              40.0 * complexity * static_cast<double>(pixels));
          const auto copy_cost =
              static_cast<SimDuration>(25.0 * static_cast<double>(pixels));
          *cost = engine_cost + copy_cost + VideoCpuModel::QuakeTranslateCost(pixels);
          return translation->Translate(frame, w, h);
        }));
    pipelines.back()->Start();
  }
  return Finish(rig, pipelines, horizon);
}

// Contended desktop: one session runs a 640x480 video stream offering ~74 Mbps next to a
// keystroke-driven interactive app, on a console that can only allocate 25 Mbps. The
// ascending allocator grants the interactive flow its modest 2 Mbps first and the video
// flow the ~23 Mbps that remain, so the stream must lose frames, not the keystrokes.
struct ContendedRun {
  double key_p50_ms = 0;     // keystroke -> echoed pixels on the display
  double key_p99_ms = 0;
  double video_fps = 0;      // frames displayed within the horizon (stale arrivals do not count)
  int64_t video_dropped = 0;
  int64_t coalesced = 0;
  int64_t txq_max_depth = 0;
};

ContendedRun RunContended(bool pacing, bool adapt, SimDuration horizon) {
  ServerOptions server_options;
  server_options.pacing.enabled = pacing;
  server_options.pacing.adapt = adapt;
  ConsoleOptions console_options;
  console_options.allocatable_bps = 25'000'000;
  Rig rig(server_options, console_options);
  ServerSession& session = rig.NewSession();
  auto app = MakeApplication(AppKind::kPim, &session, 0x7e11);
  app->BindInput();
  app->Start();
  rig.sim.Run();

  // Per-keystroke latency: send time to the display completion of the first echoed
  // (non-CSCS) command. One keystroke is outstanding at a time, so the correlation is by
  // order; video frames ride the CSCS path and never collide with it.
  Histogram latency(0.0, 10'000.0, 0.1);  // ms
  SimTime key_sent = 0;
  bool key_pending = false;
  SimTime video_deadline = 0;  // set once the stream starts; 0 admits everything
  rig.console.set_apply_callback([&](const ServiceRecord& rec) {
    if (rec.type == CommandType::kCscs) {
      if (video_deadline == 0 || rec.completion <= video_deadline) {
        ++rig.cscs_displayed;
      }
      return;
    }
    if (key_pending && rec.completion >= key_sent) {
      latency.Add(ToMillis(rec.completion - key_sent));
      key_pending = false;
    }
  });

  auto source = std::make_shared<SyntheticVideoSource>(640, 480, 77);
  MediaPipelineOptions options;
  options.target_fps = 30.0;
  options.depth = CscsDepth::k8;  // 640x480 @8bpp @30fps -> ~74 Mbps offered
  options.dst = Rect{600, 40, 640, 480};
  options.run_for = horizon;
  auto pipeline = std::make_unique<MediaPipeline>(
      &rig.sim, &session, options, [source](int index, SimDuration* cost) {
        // The wire is the story here, not the decoder: a nominal production cost keeps the
        // stream CPU-unconstrained so every lost frame is the allocator's doing.
        *cost = Milliseconds(5);
        return source->Frame(index);
      });
  pipeline->Start();
  video_deadline = rig.sim.now() + horizon;

  // A keystroke every 100 ms against the video stream, PIM-style echo.
  const SimTime end = rig.sim.now() + horizon;
  uint32_t keycode = 0;
  while (rig.sim.now() < end) {
    key_sent = rig.sim.now();
    key_pending = true;
    rig.console.SendKey(rig.server.node(), session.id(), 'a' + (keycode++ % 26), true);
    rig.sim.RunUntil(rig.sim.now() + Milliseconds(100));
  }
  rig.sim.Run();  // drain the paced backlog (the naive configuration has plenty)

  ContendedRun out;
  out.key_p50_ms = latency.InverseCdf(0.5);
  out.key_p99_ms = latency.InverseCdf(0.99);
  out.video_fps = static_cast<double>(rig.cscs_displayed) / ToSeconds(horizon);
  out.video_dropped = rig.server.pacing_stats().video_dropped;
  out.coalesced = rig.server.pacing_stats().coalesced_flushes;
  out.txq_max_depth = rig.server.tx_queue().max_depth();
  return out;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  PrintHeader("Section 7 - Multimedia applications",
              "Schmidt et al., SOSP'99, Sections 7.1-7.3");
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("sec7_multimedia", "Multimedia applications on SLIM");
  const SimDuration horizon = Seconds(ScaleKnob(&report, "SLIM_SECONDS", 20));

  TextTable table({"Experiment", "paper fps", "fps", "paper Mbps", "Mbps", "console busy",
                   "drops"});
  // The paper calls both 4-way rows console-bound; a row that leaves the console idle
  // reproduces something else.
  bool console_bound = true;
  auto add = [&](const char* name, const char* slug, const char* paper_fps,
                 const char* paper_mbps, const MediaRun& run, bool paper_console_bound = false) {
    if (paper_console_bound && run.console_busy < 0.9) {
      std::fprintf(stderr, "[sec7] %s: console %.0f%% busy, expected console-bound (>=90%%)\n",
                   slug, run.console_busy * 100.0);
      console_bound = false;
    }
    table.AddRow({name, paper_fps, Format("%.1f", run.fps), paper_mbps,
                  Format("%.1f", run.mbps), Format("%.0f%%", run.console_busy * 100.0),
                  Format("%lld", static_cast<long long>(run.console_drops))});
    const std::string base = slug;
    report.Metric(base + ".fps", run.fps, "fps");
    report.Metric(base + ".bandwidth", run.mbps, "Mbps");
    report.Metric(base + ".console_busy", run.console_busy * 100.0, "percent");
  };
  std::fprintf(stderr, "[sec7] mpeg...\n");
  add("MPEG-II 720x480 @6bpp", "mpeg_full", "20", "~40", RunMpeg(false, horizon));
  add("MPEG-II half-line + console scale", "mpeg_half", "~30", "~20",
      RunMpeg(true, horizon));
  std::fprintf(stderr, "[sec7] ntsc...\n");
  add("NTSC 640x240->480 @8bpp", "ntsc_single", "16-20", "19-23",
      RunNtsc(1, 640, 240, 480, horizon));
  add("NTSC 4x 320x240 players", "ntsc_quad", "25-28", "59-66 agg",
      RunNtsc(4, 320, 240, 240, horizon), /*paper_console_bound=*/true);
  std::fprintf(stderr, "[sec7] quake...\n");
  add("Quake 640x480 @5bpp", "quake_640", "18-21", "22-26", RunQuake(1, 640, 480, horizon));
  add("Quake 480x360", "quake_480", "28-34", "20-24", RunQuake(1, 480, 360, horizon));
  add("Quake 4x 320x240", "quake_quad", "37-40", "46-50 agg",
      RunQuake(4, 320, 240, horizon), /*paper_console_bound=*/true);
  std::printf("%s", table.Render().c_str());
  std::printf("\nNotes: fps is per player/instance; Mbps is summed across parallel "
              "instances.\nServer CPU (decode/translation) is the bottleneck for the single "
              "streams; the console's\ndecode pipeline becomes the limit only for the "
              "4-way parallel cases, as in the paper.\nConsole busy includes draining "
              "its queue after the horizon, so a console-bound row can\nread above "
              "100%%.\n");

  std::fprintf(stderr, "[sec7] contended desktop...\n");
  TextTable contended({"Configuration", "key p50", "key p99", "video fps", "vid dropped",
                       "coalesced", "txq max depth"});
  struct ContendedMode {
    const char* name;
    const char* slug;
    bool pacing;
    bool adapt;
  };
  const ContendedMode modes[] = {
      {"unconstrained (pacing off)", "contended_off", false, false},
      {"grants enforced, naive", "contended_naive", true, false},
      {"grants enforced + adaptation", "contended_adaptive", true, true},
  };
  for (const ContendedMode& mode : modes) {
    const ContendedRun run = RunContended(mode.pacing, mode.adapt, horizon);
    contended.AddRow({mode.name, Format("%.1f ms", run.key_p50_ms),
                      Format("%.1f ms", run.key_p99_ms), Format("%.1f", run.video_fps),
                      Format("%lld", static_cast<long long>(run.video_dropped)),
                      Format("%lld", static_cast<long long>(run.coalesced)),
                      Format("%lld", static_cast<long long>(run.txq_max_depth))});
    const std::string base = mode.slug;
    report.Metric(base + ".key_p50", run.key_p50_ms, "ms");
    report.Metric(base + ".key_p99", run.key_p99_ms, "ms");
    report.Metric(base + ".video_fps", run.video_fps, "fps");
    report.Metric(base + ".video_dropped", run.video_dropped, "count");
    report.Metric(base + ".coalesced_flushes", run.coalesced, "count");
    report.Metric(base + ".txq_max_depth", run.txq_max_depth, "count");
  }
  std::printf("\nContended desktop: 640x480 @8bpp video (~74 Mbps offered) + keystroke "
              "echo on a 25 Mbps\nconsole. Naive enforcement paces correctly but queues "
              "every stale frame; adaptation drops\nnewest-wins, keeps the transmit queue "
              "bounded, and leaves keystroke latency at its\nunconstrained level.\n%s",
              contended.Render().c_str());
  return console_bound ? 0 : 1;
}
