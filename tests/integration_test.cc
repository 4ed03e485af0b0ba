// System-level integration tests: multiple users on one server, lossy fabric end-to-end,
// audio, bandwidth negotiation under contention, and full-session determinism.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/benchmark_apps.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"
#include "src/workload/user_model.h"

namespace slim {
namespace {

TEST(IntegrationTest, FourUsersShareOneServer) {
  // One server, four consoles, four different applications, interleaved input. Every
  // console must track its own session exactly; sessions must not bleed into each other.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  std::vector<std::unique_ptr<Console>> consoles;
  std::vector<ServerSession*> sessions;
  std::vector<std::unique_ptr<Application>> apps;
  for (int u = 0; u < 4; ++u) {
    consoles.push_back(std::make_unique<Console>(&sim, &fabric, ConsoleOptions{}));
    const uint64_t card = server.auth().IssueCard(static_cast<uint32_t>(u + 1));
    sessions.push_back(&server.CreateSession(card));
    apps.push_back(MakeApplication(static_cast<AppKind>(u), sessions.back(),
                                   0xabc + static_cast<uint64_t>(u)));
    apps.back()->BindInput();
    consoles.back()->InsertCard(server.node(), card);
    sim.Run();
    apps.back()->Start();
    sim.Run();
  }
  Rng rng(0xd1ce);
  for (int i = 0; i < 200; ++i) {
    const int u = static_cast<int>(rng.NextBelow(4));
    if (rng.NextBool(0.7)) {
      consoles[u]->SendKey(server.node(), sessions[u]->id(),
                           static_cast<uint32_t>(rng.NextBelow(997)), true);
    } else {
      consoles[u]->SendMouse(server.node(), sessions[u]->id(),
                             static_cast<int32_t>(rng.NextBelow(1280)),
                             static_cast<int32_t>(rng.NextBelow(1024)), 1, false);
    }
    sim.Run();
  }
  for (int u = 0; u < 4; ++u) {
    EXPECT_EQ(sessions[u]->framebuffer().ContentHash(),
              consoles[u]->framebuffer().ContentHash())
        << "user " << u;
    EXPECT_GT(sessions[u]->log().input_events(), 0) << "user " << u;
  }
  // Sessions diverged from each other (no cross-talk produced identical screens).
  EXPECT_NE(sessions[0]->framebuffer().ContentHash(),
            sessions[1]->framebuffer().ContentHash());
}

TEST(IntegrationTest, LossyFabricConvergesViaReplay) {
  // 2% loss per hop. NACK replay must keep the console converging; after the traffic goes
  // quiet and a final full repaint flushes through a clean recovery window, screens match.
  Simulator sim;
  FabricOptions options;
  options.link.loss_probability = 0.02;
  Fabric fabric(&sim, options);
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  auto app = MakeApplication(AppKind::kPim, &session, 5);
  app->BindInput();
  console.InsertCard(server.node(), card);
  sim.Run();
  app->Start();
  sim.Run();
  Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    console.SendKey(server.node(), session.id(), static_cast<uint32_t>(rng.NextBelow(997)),
                    true);
    sim.RunUntil(sim.now() + Milliseconds(30));
  }
  sim.Run();
  // Heal any residual holes (lost input events don't matter; lost display commands might):
  // the session repaints and keepalive traffic gives NACK recovery windows to finish. The
  // forced variant discards the damage tracker's shadow — after loss the console has
  // diverged from it, and a refined repaint would transmit nothing.
  for (int i = 0; i < 5; ++i) {
    session.ForceRepaintAll();
    session.Flush();
    sim.Run();
  }
  EXPECT_EQ(session.framebuffer().ContentHash(), console.framebuffer().ContentHash());
  EXPECT_GT(console.endpoint().stats().nacks_sent +
                server.endpoint().stats().replays_sent,
            0)
      << "the lossy run should actually have exercised recovery";
}

TEST(IntegrationTest, AudioReachesConsole) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();
  // One second of 8 kHz uLaw audio in 20 ms packets.
  std::vector<uint8_t> chunk(160, 0x7f);
  for (int i = 0; i < 50; ++i) {
    session.SendAudio(8000, chunk);
  }
  sim.Run();
  EXPECT_EQ(console.audio_bytes(), 50 * 160);
}

TEST(IntegrationTest, VideoAndInteractiveSessionCoexist) {
  // A video stream and an interactive app share one console; both must stay pixel-exact
  // and the interactive updates must not starve (bounded decode latency).
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t video_card = server.auth().IssueCard(1);
  ServerSession& video_session = server.CreateSession(video_card);
  console.InsertCard(server.node(), video_card);
  sim.Run();

  SyntheticVideoSource source(320, 240, 9);
  MediaPipelineOptions options;
  options.target_fps = 24.0;
  options.depth = CscsDepth::k8;
  options.dst = Rect{600, 100, 320, 240};
  options.run_for = Seconds(5);
  MediaPipeline pipeline(&sim, &video_session, options, [&](int index, SimDuration* cost) {
    *cost = Milliseconds(10);
    return source.Frame(index);
  });
  pipeline.Start();

  // Interactive typing into the same session while video plays.
  const Font& font = DefaultFont();
  SimDuration worst_service = 0;
  console.set_apply_callback([&](const ServiceRecord& rec) {
    if (rec.type == CommandType::kBitmap) {
      worst_service = std::max(worst_service, rec.completion - rec.arrival);
    }
  });
  for (int i = 0; i < 40; ++i) {
    sim.RunUntil(sim.now() + Milliseconds(100));
    const char c = static_cast<char>('a' + i % 26);
    video_session.DrawGlyphs(40 + (i % 30) * font.char_width(), 700,
                             font.Shape(std::string_view(&c, 1)), kWhite, kBlack);
    video_session.Flush();
  }
  sim.Run();
  EXPECT_EQ(video_session.framebuffer().ContentHash(), console.framebuffer().ContentHash());
  EXPECT_GT(pipeline.frames_sent(), 100);
  // Interactive text behind a 24 fps video stream must still decode promptly.
  EXPECT_LT(worst_service, Milliseconds(50));
}

TEST(IntegrationTest, WholeSessionIsDeterministic) {
  auto run_hash = [] {
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimServer server(&sim, &fabric, {});
    Console console(&sim, &fabric, {});
    const uint64_t card = server.auth().IssueCard(3);
    ServerSession& session = server.CreateSession(card);
    auto app = MakeApplication(AppKind::kNetscape, &session, 777);
    app->BindInput();
    console.InsertCard(server.node(), card);
    sim.Run();
    app->Start();
    sim.Run();
    UserModel user(AppKind::kNetscape, Rng(88));
    for (int i = 0; i < 60; ++i) {
      const auto event = user.Next();
      sim.Schedule(event.delay, [&] {
        if (event.is_key) {
          console.SendKey(server.node(), session.id(), event.keycode, true);
        } else {
          console.SendMouse(server.node(), session.id(), 500, 400, 1, false);
        }
      });
      sim.Run();
    }
    return console.framebuffer().ContentHash() ^ (sim.now() * 0x9e3779b97f4a7c15ull);
  };
  EXPECT_EQ(run_hash(), run_hash());
}

}  // namespace
}  // namespace slim
