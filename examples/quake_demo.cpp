// Quake on SLIM: the Section 7.3 pipeline end to end, with an ASCII peek at the frames.
//
// The raycasting engine renders 8-bit indexed frames, the translation layer turns the
// palette into YUV via table lookup, and the frames stream to a simulated console as 5 bpp
// CSCS commands. One decoded console frame is dumped as ASCII art so you can see that real
// pixels made the trip.
//
//   ./build/examples/quake_demo

#include <cstdio>

#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/quake/raycaster.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"

namespace {

// Luma-ramp ASCII dump of a framebuffer region, downsampled to 76x24.
void DumpAscii(const slim::Framebuffer& fb, const slim::Rect& r) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  for (int32_t row = 0; row < 24; ++row) {
    for (int32_t col = 0; col < 76; ++col) {
      const int32_t x = r.x + col * r.w / 76;
      const int32_t y = r.y + row * r.h / 24;
      const slim::Pixel p = fb.GetPixel(x, y);
      const int luma =
          (2 * slim::PixelR(p) + 5 * slim::PixelG(p) + slim::PixelB(p)) / 8;
      std::putchar(kRamp[luma * (sizeof(kRamp) - 2) / 255]);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main() {
  using namespace slim;
  Simulator sim;
  Fabric fabric(&sim, FabricOptions{});
  SlimServer server(&sim, &fabric, ServerOptions{});
  Console console(&sim, &fabric, ConsoleOptions{});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();

  constexpr int32_t kW = 480;
  constexpr int32_t kH = 360;
  RaycastEngine engine(kW, kH);
  YuvTranslationLayer translation(engine.palette());

  MediaPipelineOptions options;
  options.target_fps = 60.0;  // the game runs as fast as the server allows
  options.depth = CscsDepth::k5;
  options.dst = Rect{80, 60, kW, kH};
  options.run_for = Seconds(10);
  MediaPipeline pipeline(&sim, &session, options, [&](int index, SimDuration* cost) {
    const Camera camera = engine.DemoCamera(index);
    const auto frame = engine.RenderFrame(camera);
    const int64_t pixels = static_cast<int64_t>(kW) * kH;
    *cost = static_cast<SimDuration>((40.0 * engine.SceneComplexity(camera) + 25.0) *
                                     static_cast<double>(pixels)) +
            VideoCpuModel::QuakeTranslateCost(pixels);
    return translation.Translate(frame, kW, kH);
  });
  pipeline.Start();
  sim.Run();

  std::printf("Quake at %dx%d over SLIM (5 bpp CSCS): %.1f fps, %.1f Mbps, %d frames sent, "
              "%d dropped to pace the server\n\n",
              kW, kH, pipeline.AchievedFps(), pipeline.AverageMbps(), pipeline.frames_sent(),
              pipeline.frames_dropped());
  std::printf("Last frame as decoded by the console:\n");
  DumpAscii(console.framebuffer(), options.dst);
  const bool match =
      session.framebuffer().ContentHash() == console.framebuffer().ContentHash();
  std::printf("\nConsole pixels match server truth: %s\n", match ? "yes" : "NO (bug!)");
  return match ? 0 : 1;
}
