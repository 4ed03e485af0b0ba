// Tests for the video sources, media pipeline, raycast engine and YUV translation layer.

#include <gtest/gtest.h>

#include <set>

#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/quake/raycaster.h"
#include "src/server/slim_server.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"
#include "tests/cscs_reference.h"

namespace slim {
namespace {

TEST(VideoSourceTest, FramesAreDeterministicAndMoving) {
  SyntheticVideoSource source(64, 48, 42);
  const YuvImage a0 = source.Frame(0);
  const YuvImage a0_again = source.Frame(0);
  const YuvImage a5 = source.Frame(5);
  int same = 0;
  int diff = 0;
  for (int32_t y = 0; y < 48; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      same += a0.At(x, y) == a0_again.At(x, y) ? 1 : 0;
      diff += a0.At(x, y) == a5.At(x, y) ? 0 : 1;
    }
  }
  EXPECT_EQ(same, 64 * 48) << "same frame index must reproduce exactly";
  EXPECT_GT(diff, 64 * 48 / 2) << "distant frames must differ (motion)";
}

TEST(VideoSourceTest, FieldsAreHalfHeightAndInterlaced) {
  SyntheticVideoSource source(64, 48, 7);
  const YuvImage even = source.Field(3, false);
  const YuvImage odd = source.Field(3, true);
  EXPECT_EQ(even.height(), 24);
  EXPECT_EQ(odd.height(), 24);
  const YuvImage full = source.Frame(3);
  EXPECT_EQ(even.At(10, 5), full.At(10, 10));
  EXPECT_EQ(odd.At(10, 5), full.At(10, 11));
}

// Frames and both fields must equal the per-pixel reference exactly: the MPEG and NTSC
// sizes, an odd size, and a 1-line source (whose odd field repeats line 0).
TEST(VideoSourceTest, FramesAndFieldsMatchReferenceBitForBit) {
  for (const auto& [w, h] : {std::pair{720, 480}, std::pair{640, 480}, std::pair{33, 7},
                            std::pair{9, 1}}) {
    const uint64_t seed = 71 + static_cast<uint64_t>(w);
    const SyntheticVideoSource source(w, h, seed);
    for (const int index : {0, 7, 151}) {
      SCOPED_TRACE(testing::Message() << w << "x" << h << " frame " << index);
      EXPECT_TRUE(reference::SamePlanes(source.Frame(index),
                                        reference::SyntheticFrame(w, h, seed, index)));
      for (const bool odd : {false, true}) {
        EXPECT_TRUE(reference::SamePlanes(source.Field(index, odd),
                                          reference::SyntheticField(w, h, seed, index, odd)))
            << (odd ? "odd" : "even") << " field";
      }
    }
  }
  const SyntheticVideoSource line(9, 1, 5);
  EXPECT_TRUE(reference::SamePlanes(line.Field(3, true), line.Frame(3)));
  EXPECT_TRUE(reference::SamePlanes(line.Field(3, false), line.Frame(3)));
}

TEST(VideoCpuModelTest, CostsScaleWithWork) {
  const VideoCpuModel model;
  EXPECT_GT(model.MpegFrameCost(720 * 480, 720 * 480), model.MpegFrameCost(720 * 480, 720 * 240));
  EXPECT_GT(model.JpegFieldCost(640 * 240), model.JpegFieldCost(320 * 240));
  EXPECT_GT(model.SendCost(100000), model.SendCost(1000));
  // Calibration sanity: one full MPEG frame costs ~45 ms, capping the server at ~20 Hz.
  const SimDuration frame = model.MpegFrameCost(720 * 480, 720 * 480) +
                            model.SendCost(720 * 480 * 6 / 8);
  EXPECT_GT(frame, Milliseconds(40));
  EXPECT_LT(frame, Milliseconds(55));
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : fabric_(&sim_, {}),
        server_(&sim_, &fabric_, ServerOptions{}),
        console_(&sim_, &fabric_, ConsoleOptions{}) {
    const uint64_t card = server_.auth().IssueCard(1);
    session_ = &server_.CreateSession(card);
    console_.InsertCard(server_.node(), card);
    sim_.Run();
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_;
  Console console_;
  ServerSession* session_ = nullptr;
};

TEST_F(PipelineFixture, UnconstrainedPipelineHitsTargetFps) {
  SyntheticVideoSource source(160, 120, 3);
  MediaPipelineOptions options;
  options.target_fps = 24.0;
  options.depth = CscsDepth::k12;
  options.dst = Rect{0, 0, 160, 120};
  options.run_for = Seconds(5);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(2);  // trivially cheap production
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.RunUntil(Seconds(5));
  EXPECT_NEAR(pipeline.AchievedFps(), 24.0, 1.0);
  EXPECT_EQ(pipeline.frames_dropped(), 0);
}

TEST_F(PipelineFixture, CpuBoundPipelineDegradesToProductionRate) {
  SyntheticVideoSource source(160, 120, 3);
  MediaPipelineOptions options;
  options.target_fps = 30.0;
  options.depth = CscsDepth::k12;
  options.dst = Rect{0, 0, 160, 120};
  options.run_for = Seconds(5);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(50);  // ~20 Hz server ceiling
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.RunUntil(Seconds(5));
  // Production-limited: ~1/(50 ms + send cost), NOT quantized down to a 33 ms tick grid.
  EXPECT_NEAR(pipeline.AchievedFps(), 19.3, 1.0);
  EXPECT_GT(pipeline.frames_dropped(), 0);
}

TEST_F(PipelineFixture, FramesReachConsolePixelExact) {
  SyntheticVideoSource source(80, 60, 9);
  MediaPipelineOptions options;
  options.target_fps = 10.0;
  options.depth = CscsDepth::k16;
  options.dst = Rect{20, 20, 80, 60};
  options.run_for = Seconds(1);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(1);
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.Run();
  EXPECT_GT(pipeline.frames_sent(), 5);
  EXPECT_EQ(session_->framebuffer().ContentHash(), console_.framebuffer().ContentHash());
  EXPECT_GT(console_.cscs_stream_hits(), 0) << "steady stream must hit the warm path";
}

TEST(RaycastTest, FrameHasFloorCeilingAndWalls) {
  RaycastEngine engine(160, 120);
  const Camera cam = engine.DemoCamera(0);
  EXPECT_FALSE(engine.IsWall(cam.x, cam.y)) << "demo path must stay out of walls";
  const auto frame = engine.RenderFrame(cam);
  ASSERT_EQ(frame.size(), 160u * 120u);
  std::set<uint8_t> indices(frame.begin(), frame.end());
  EXPECT_GT(indices.size(), 10u) << "scene should use many palette entries";
  // Ceiling base colors occupy palette entries 0..7, floor 8..15.
  EXPECT_LT(frame[0], 8) << "top-left pixel should be ceiling";
  EXPECT_GE(frame[160 * 119], 8);
  EXPECT_LT(frame[160 * 119], 16);
}

TEST(RaycastTest, DeterministicAcrossInstances) {
  RaycastEngine a(64, 48, 99);
  RaycastEngine b(64, 48, 99);
  EXPECT_EQ(a.RenderFrame(a.DemoCamera(10)), b.RenderFrame(b.DemoCamera(10)));
  EXPECT_EQ(a.palette(), b.palette());
}

TEST(RaycastTest, CameraMotionChangesFrame) {
  RaycastEngine engine(64, 48);
  const auto f0 = engine.RenderFrame(engine.DemoCamera(0));
  const auto f30 = engine.RenderFrame(engine.DemoCamera(30));
  EXPECT_NE(f0, f30);
}

TEST(RaycastTest, DemoPathStaysClearForThousandsOfFrames) {
  RaycastEngine engine(32, 24);
  for (int frame = 0; frame < 3000; frame += 7) {
    const Camera cam = engine.DemoCamera(frame);
    ASSERT_FALSE(engine.IsWall(cam.x, cam.y)) << "frame " << frame;
  }
}

TEST(RaycastTest, SceneComplexityBounded) {
  RaycastEngine engine(64, 48);
  for (int frame = 0; frame < 500; frame += 11) {
    const double c = engine.SceneComplexity(engine.DemoCamera(frame));
    EXPECT_GE(c, 0.5);
    EXPECT_LE(c, 1.5);
  }
}

TEST(TranslationTest, LutMatchesDirectConversion) {
  RaycastEngine engine(32, 24);
  const YuvTranslationLayer translation(engine.palette());
  const auto frame = engine.RenderFrame(engine.DemoCamera(5));
  const YuvImage yuv = translation.Translate(frame, 32, 24);
  for (int32_t y = 0; y < 24; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      const Yuv expected = RgbToYuv(engine.palette()[frame[static_cast<size_t>(y) * 32 + x]]);
      EXPECT_EQ(yuv.At(x, y), expected);
    }
  }
}

TEST(TranslationTest, FiveBitPayloadSizeMatchesPaper) {
  // 640x480 at 5 bpp = 192,000 bytes per frame; at 20 Hz that is ~30 Mbps, the regime the
  // paper reports for Quake (22-26 Mbps at 18-21 Hz).
  EXPECT_EQ(CscsPayloadBytes(640, 480, CscsDepth::k5), 192000u);
}

}  // namespace
}  // namespace slim
