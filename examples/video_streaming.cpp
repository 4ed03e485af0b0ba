// Video streaming: the Section 7 media path, including the console bandwidth allocator.
//
// A video player sends synthetic 720x480 frames to a console through the CSCS command at
// several bit depths while an interactive session shares the same console; the player asks
// the console for bandwidth the way the paper's video library did, and the allocator's
// grants are printed alongside the achieved frame rates.
//
//   ./build/examples/video_streaming

#include <cstdio>

#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"

int main() {
  using namespace slim;

  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k8, CscsDepth::k6}) {
    Simulator sim;
    Fabric fabric(&sim, FabricOptions{});
    SlimServer server(&sim, &fabric, ServerOptions{});
    Console console(&sim, &fabric, ConsoleOptions{});
    const uint64_t card = server.auth().IssueCard(1);
    ServerSession& session = server.CreateSession(card);
    console.InsertCard(server.node(), card);
    sim.Run();

    // The video library requests console bandwidth for its stream (Section 7's allocator):
    // estimate from frame size x target rate, exactly "based on past needs".
    const int64_t per_frame =
        static_cast<int64_t>(CscsPayloadBytes(720, 480, depth));
    const int64_t want_bps = per_frame * 8 * 30;
    server.endpoint().Send(console.node(), session.id(), BandwidthRequestMsg{1, want_bps});
    // The interactive desktop keeps a small allocation of its own.
    server.endpoint().Send(console.node(), session.id(),
                           BandwidthRequestMsg{2, 4'000'000});
    sim.Run();

    SyntheticVideoSource source(720, 480, 0x71de0);
    MediaPipelineOptions options;
    options.target_fps = 30.0;
    options.depth = depth;
    options.dst = Rect{40, 40, 720, 480};
    options.run_for = Seconds(10);
    MediaPipeline pipeline(&sim, &session, options, [&](int index, SimDuration* cost) {
      *cost = VideoCpuModel::MpegFrameCost(720 * 480, 720 * 480);
      return source.Frame(index);
    });
    pipeline.Start();
    sim.Run();

    std::printf("CSCS %2d bpp: granted %5.1f Mbps to the stream, %4.1f Mbps to the desktop; "
                "displayed %.1f fps at %.1f Mbps, console busy %.0f%%, match=%s\n",
                BitsPerPixel(depth), console.allocator().GrantFor(1) / 1e6,
                console.allocator().GrantFor(2) / 1e6, pipeline.AchievedFps(),
                pipeline.AverageMbps(),
                100.0 * static_cast<double>(console.busy_time()) / ToSeconds(Seconds(10)) /
                    1e9,
                session.framebuffer().ContentHash() == console.framebuffer().ContentHash()
                    ? "yes"
                    : "NO");
  }
  std::printf("\nLower depths trade chroma fidelity for bandwidth; the server decode cost\n"
              "(not the console or the 100 Mbps fabric) bounds the frame rate, as in the\n"
              "paper's Section 7.1.\n");
  return 0;
}
