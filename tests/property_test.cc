// Cross-cutting property sweeps (TEST_P): the encoder round-trip must hold under every
// option combination, message serialization under every command type and size, and the
// end-to-end pixel-exactness under transport stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/apps/content.h"
#include "src/codec/decoder.h"
#include "src/codec/encoder.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "tests/cscs_reference.h"

namespace slim {
namespace {

// ---------------------------------------------------------------------------
// Encoder round-trip across the whole option space.
// ---------------------------------------------------------------------------

using EncoderParams = std::tuple<bool, bool, int, int>;  // fill, bitmap, band, chunk

class EncoderOptionSweep : public ::testing::TestWithParam<EncoderParams> {};

TEST_P(EncoderOptionSweep, RoundTripHoldsForEveryConfiguration) {
  const auto [fill, bitmap, band, chunk] = GetParam();
  EncoderOptions options;
  options.enable_fill = fill;
  options.enable_bitmap = bitmap;
  options.band_height = band;
  options.chunk_width = chunk;
  Encoder encoder(options);

  Rng rng(static_cast<uint64_t>(band) * 131 + chunk + (fill ? 7 : 0) + (bitmap ? 13 : 0));
  Framebuffer before(137, 93);  // deliberately not tile/band aligned
  before.Fill(Rect{0, 0, 137, 50}, MakePixel(20, 30, 40));
  Framebuffer after = before;
  Region damage;
  for (int i = 0; i < 6; ++i) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(120)),
                 static_cast<int32_t>(rng.NextBelow(80)),
                 3 + static_cast<int32_t>(rng.NextBelow(30)),
                 3 + static_cast<int32_t>(rng.NextBelow(25))};
    switch (rng.NextBelow(3)) {
      case 0:
        after.Fill(r, static_cast<Pixel>(rng.NextU64() & 0xffffff));
        break;
      case 1:
        for (int32_t y = r.y; y < r.bottom(); ++y) {
          for (int32_t x = r.x; x < r.right(); ++x) {
            after.PutPixel(x, y, ((x + y) & 1) ? kWhite : kBlack);
          }
        }
        break;
      default:
        after.SetPixels(r, MakePhotoBlock(&rng, r.w, r.h));
        break;
    }
    damage.Add(Intersect(r, after.bounds()));
  }
  Framebuffer replica = before;
  for (const auto& cmd : encoder.EncodeDamage(after, damage)) {
    ASSERT_TRUE(ValidateCommand(cmd));
    ASSERT_TRUE(ApplyCommand(cmd, &replica));
  }
  EXPECT_EQ(replica.ContentHash(), after.ContentHash());
}

INSTANTIATE_TEST_SUITE_P(
    OptionSpace, EncoderOptionSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Values(8, 32, 128),
                       ::testing::Values(16, 64, 512)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "fill" : "nofill") +
             (std::get<1>(info.param) ? "_bitmap" : "_nobitmap") + "_band" +
             std::to_string(std::get<2>(info.param)) + "_chunk" +
             std::to_string(std::get<3>(info.param));
    });

// ---------------------------------------------------------------------------
// Region normalization: overlapping Adds must reach the encoder de-overlapped, and the
// encoder must never emit two commands touching the same pixel (double-encoding shared
// pixels would inflate the wire_bytes/pixels stats behind Figures 4 and 5).
// ---------------------------------------------------------------------------

class RegionOverlapSweep : public ::testing::TestWithParam<int> {};

TEST_P(RegionOverlapSweep, AddKeepsRectsDisjointAndAreaExact) {
  Rng rng(7000 + static_cast<uint64_t>(GetParam()));
  constexpr int32_t kEdge = 96;
  Region region;
  std::vector<bool> covered(kEdge * kEdge, false);
  for (int i = 0; i < 25; ++i) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(kEdge)),
                 static_cast<int32_t>(rng.NextBelow(kEdge)),
                 1 + static_cast<int32_t>(rng.NextBelow(40)),
                 1 + static_cast<int32_t>(rng.NextBelow(40))};
    const Rect clipped = Intersect(r, Rect{0, 0, kEdge, kEdge});
    region.Add(clipped);  // adds overlap heavily across iterations
    for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
      for (int32_t x = clipped.x; x < clipped.right(); ++x) {
        covered[static_cast<size_t>(y) * kEdge + x] = true;
      }
    }
  }
  // Invariant: pairwise disjoint, none empty.
  const auto& rects = region.rects();
  for (size_t a = 0; a < rects.size(); ++a) {
    EXPECT_FALSE(rects[a].empty());
    for (size_t b = a + 1; b < rects.size(); ++b) {
      EXPECT_FALSE(rects[a].Intersects(rects[b]))
          << rects[a].ToString() << " overlaps " << rects[b].ToString();
    }
  }
  // Exactness: area() equals the brute-force pixel count, and membership agrees.
  const int64_t expected_area = std::count(covered.begin(), covered.end(), true);
  EXPECT_EQ(region.area(), expected_area);
  for (int32_t y = 0; y < kEdge; ++y) {
    for (int32_t x = 0; x < kEdge; ++x) {
      ASSERT_EQ(region.Contains(Point{x, y}), !!covered[static_cast<size_t>(y) * kEdge + x])
          << "(" << x << "," << y << ")";
    }
  }
}

TEST_P(RegionOverlapSweep, EncoderNeverEmitsOverlappingCommands) {
  Rng rng(8000 + static_cast<uint64_t>(GetParam()));
  Framebuffer fb(128, 96);
  fb.SetPixels(fb.bounds(), MakePhotoBlock(&rng, 128, 96));
  Region damage;
  for (int i = 0; i < 12; ++i) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(110)),
                 static_cast<int32_t>(rng.NextBelow(80)),
                 2 + static_cast<int32_t>(rng.NextBelow(50)),
                 2 + static_cast<int32_t>(rng.NextBelow(40))};
    damage.Add(Intersect(r, fb.bounds()));
  }
  Encoder encoder;
  const auto cmds = encoder.EncodeDamage(fb, damage);
  int64_t encoded_pixels = 0;
  for (size_t a = 0; a < cmds.size(); ++a) {
    encoded_pixels += AffectedPixels(cmds[a]);
    for (size_t b = a + 1; b < cmds.size(); ++b) {
      EXPECT_FALSE(DestinationOf(cmds[a]).Intersects(DestinationOf(cmds[b])))
          << DestinationOf(cmds[a]).ToString() << " overlaps "
          << DestinationOf(cmds[b]).ToString();
    }
  }
  // No pixel double-encoded and none skipped: encoded pixels == damage area exactly.
  EXPECT_EQ(encoded_pixels, damage.area());
}

INSTANTIATE_TEST_SUITE_P(RandomizedOverlaps, RegionOverlapSweep, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Serialized command round-trip across sizes (fragmentation boundaries included).
// ---------------------------------------------------------------------------

class SetSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SetSizeSweep, SerializeParseFragmentBoundaries) {
  const int32_t edge = GetParam();
  SetCommand cmd;
  cmd.dst = Rect{1, 2, edge, edge};
  Rng rng(static_cast<uint64_t>(edge));
  cmd.rgb.resize(static_cast<size_t>(edge) * edge * 3);
  for (auto& b : cmd.rgb) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  const Message msg{9, 77, cmd};
  const auto bytes = SerializeMessage(msg);
  EXPECT_EQ(bytes.size(), MessageWireSize(msg));
  const auto back = ParseMessage(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<SetCommand>(back->body), cmd);
}

// 22 is just under one MTU of payload; 23 just over; 163 spans many fragments.
INSTANTIATE_TEST_SUITE_P(Sizes, SetSizeSweep, ::testing::Values(1, 4, 22, 23, 64, 163));

// ---------------------------------------------------------------------------
// End-to-end pixel exactness under per-link loss, with final repaint healing.
// ---------------------------------------------------------------------------

class LossSweep : public ::testing::TestWithParam<int> {};  // loss in tenths of a percent

TEST_P(LossSweep, TransportStressNeverCorruptsOnlyDelays) {
  Simulator sim;
  FabricOptions options;
  options.link.loss_probability = GetParam() / 1000.0;
  options.link.reorder_jitter = Microseconds(200);
  Fabric fabric(&sim, options);
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();
  Rng rng(static_cast<uint64_t>(GetParam()) + 5);
  for (int i = 0; i < 60; ++i) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(1200)),
                 static_cast<int32_t>(rng.NextBelow(960)),
                 4 + static_cast<int32_t>(rng.NextBelow(60)),
                 4 + static_cast<int32_t>(rng.NextBelow(60))};
    if (rng.NextBool(0.5)) {
      session.FillRect(r, static_cast<Pixel>(rng.NextU64() & 0xffffff));
    } else {
      session.PutImage(r, MakePhotoBlock(&rng, r.w, r.h));
    }
    session.Flush();
    sim.RunUntil(sim.now() + Milliseconds(20));
  }
  sim.Run();
  // Quiesce with repaints so NACK recovery windows close any holes. Forced: after loss the
  // console has diverged from the damage tracker's shadow, so a refined repaint would
  // wrongly transmit nothing.
  for (int i = 0; i < 4; ++i) {
    session.ForceRepaintAll();
    session.Flush();
    sim.Run();
  }
  EXPECT_EQ(session.framebuffer().ContentHash(), console.framebuffer().ContentHash())
      << "loss " << GetParam() / 10.0 << "%";
  EXPECT_EQ(console.commands_rejected(), 0);
}

INSTANTIATE_TEST_SUITE_P(LossLevels, LossSweep, ::testing::Values(0, 5, 20, 50),
                         [](const auto& info) {
                           return "loss_" + std::to_string(info.param) + "permille";
                         });

// ---------------------------------------------------------------------------
// CSCS quality: round-trip error bound per depth on photographic content.
// ---------------------------------------------------------------------------

class CscsDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(CscsDepthSweep, LumaErrorBoundedByQuantizationStep) {
  const auto depth = static_cast<CscsDepth>(GetParam());
  Rng rng(3);
  const auto rgb = MakePhotoBlock(&rng, 48, 48);
  const YuvImage image = YuvImage::FromPixels(rgb, 48, 48);
  const YuvImage back =
      reference::UnpackCscsPayload(PackCscsPayload(image, depth), 48, 48, depth);
  // Luma quantization keeps the top y_bits bits: max error is one expanded step.
  const int y_bits = depth == CscsDepth::k16 || depth == CscsDepth::k12 ? 8
                     : depth == CscsDepth::k8                           ? 6
                                                                        : 4;
  const int max_err = y_bits >= 8 ? 0 : (256 >> y_bits);
  for (int32_t y = 0; y < 48; ++y) {
    for (int32_t x = 0; x < 48; ++x) {
      EXPECT_LE(std::abs(back.At(x, y).y - image.At(x, y).y), max_err);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, CscsDepthSweep,
                         ::testing::Values(static_cast<int>(CscsDepth::k16),
                                           static_cast<int>(CscsDepth::k12),
                                           static_cast<int>(CscsDepth::k8),
                                           static_cast<int>(CscsDepth::k6),
                                           static_cast<int>(CscsDepth::k5)));

}  // namespace
}  // namespace slim
