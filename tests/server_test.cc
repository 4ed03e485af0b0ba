// Tests for the SLIM server: drawing API semantics, damage encoding order, hotdesking
// (session mobility), authentication, and the device manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/codec/decoder.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/cpu_model.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace slim {
namespace {

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : fabric_(&sim_, {}),
        server_(&sim_, &fabric_, ServerOptions{}),
        console_(&sim_, &fabric_, ConsoleOptions{}) {}

  // Creates a session attached to the console and synced.
  ServerSession& AttachedSession() {
    const uint64_t card = server_.auth().IssueCard(1);
    ServerSession& session = server_.CreateSession(card);
    console_.InsertCard(server_.node(), card);
    sim_.Run();
    EXPECT_TRUE(session.attached());
    return session;
  }

  void Sync() { sim_.Run(); }

  bool Matches(const ServerSession& session) {
    return session.framebuffer().ContentHash() == console_.framebuffer().ContentHash();
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_;
  Console console_;
};

TEST_F(ServerFixture, AttachRepaintsWholeScreen) {
  ServerSession& session = AttachedSession();
  EXPECT_TRUE(Matches(session));
  EXPECT_GT(console_.commands_applied(), 0);
}

TEST_F(ServerFixture, FillPassesThroughAsFillCommand) {
  ServerSession& session = AttachedSession();
  console_.ClearServiceLog();
  session.FillRect(Rect{10, 10, 100, 50}, MakePixel(200, 10, 10));
  session.Flush();
  Sync();
  ASSERT_EQ(console_.service_log().size(), 1u);
  EXPECT_EQ(console_.service_log()[0].type, CommandType::kFill);
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, TextBecomesBitmapCommands) {
  ServerSession& session = AttachedSession();
  session.FillRect(Rect{0, 0, 400, 60}, kWhite);
  session.Flush();
  Sync();
  console_.ClearServiceLog();
  const Font& font = DefaultFont();
  const auto glyphs = font.Shape("hello slim world");
  session.DrawGlyphs(20, 20, glyphs, kBlack, kWhite);
  session.Flush();
  Sync();
  bool saw_bitmap = false;
  for (const auto& rec : console_.service_log()) {
    EXPECT_NE(rec.type, CommandType::kSet) << "text must not ship as literal pixels";
    saw_bitmap |= rec.type == CommandType::kBitmap;
  }
  EXPECT_TRUE(saw_bitmap);
  EXPECT_TRUE(Matches(session));
}

// DrawGlyphs lays each run of equal-height glyphs into one string bitmap. Against drawing
// glyph by glyph with ExpandBitmap: the same pixels, the same damage rect and the same
// render cost, for random glyphs of 1 to 12 pixels (padding bits set at random), two
// heights mixed in one string, zero-width glyphs, and strings hanging off the frame's left
// or right edge.
TEST(DrawGlyphsTest, MatchesPerGlyphExpansion) {
  Simulator sim;
  Fabric fabric(&sim, {});
  ServerOptions options;
  options.session_width = 96;
  options.session_height = 40;
  SlimServer server(&sim, &fabric, options);
  Rng rng(1313);
  const auto between = [&rng](int32_t lo, int32_t hi) {
    return static_cast<int32_t>(rng.NextInRange(lo, hi));
  };
  for (int trial = 0; trial < 300; ++trial) {
    ServerSession& session =
        server.CreateSession(server.auth().IssueCard(static_cast<uint32_t>(trial + 1)));
    ASSERT_TRUE(session.pending_damage().empty());
    std::vector<GlyphBitmap> font(static_cast<size_t>(between(1, 24)));
    const int32_t heights[2] = {between(1, 13), between(1, 13)};
    for (GlyphBitmap& glyph : font) {
      glyph.width = rng.NextBool(0.05) ? 0 : between(1, 12);
      glyph.height = heights[rng.NextBool(0.2) ? 1 : 0];
      glyph.bits.resize((static_cast<size_t>(glyph.width) + 7) / 8 *
                        static_cast<size_t>(glyph.height));
      for (uint8_t& b : glyph.bits) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
    }
    std::vector<const GlyphBitmap*> text;
    for (size_t i = 0; i < font.size(); ++i) {
      text.push_back(&font[i]);
    }
    const int32_t x = between(-100, options.session_width);
    const int32_t y = between(-12, options.session_height);
    const Pixel fg = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    const Pixel bg = static_cast<Pixel>(rng.NextU64() & 0xffffff);

    Framebuffer expected = session.framebuffer();
    Rect dirty{};
    int32_t pen_x = x;
    for (const GlyphBitmap* glyph : text) {
      const Rect dst{pen_x, y, glyph->width, glyph->height};
      expected.ExpandBitmap(dst, glyph->bits, fg, bg);
      dirty = BoundingUnion(dirty, Intersect(dst, expected.bounds()));
      pen_x += glyph->width;
    }
    const SimDuration render0 = session.render_time();
    session.DrawGlyphs(x, y, text, fg, bg);
    ASSERT_TRUE(std::ranges::equal(session.framebuffer().data(), expected.data()))
        << "trial " << trial << " at (" << x << "," << y << ")";
    ASSERT_EQ(session.pending_damage().bounds(), dirty) << "trial " << trial;
    ASSERT_EQ(session.pending_damage().area(), dirty.area()) << "trial " << trial;
    ASSERT_EQ(session.render_time() - render0,
              ServerCpuModel::RenderCost(dirty.area(), static_cast<int>(text.size())));
  }
}

TEST_F(ServerFixture, ImageBecomesSetCommands) {
  ServerSession& session = AttachedSession();
  console_.ClearServiceLog();
  Rng rng(3);
  session.PutImage(Rect{50, 50, 128, 96}, MakePhotoBlock(&rng, 128, 96));
  session.Flush();
  Sync();
  int64_t set_pixels = 0;
  for (const auto& rec : console_.service_log()) {
    if (rec.type == CommandType::kSet) {
      set_pixels += rec.pixels;
    }
  }
  EXPECT_GT(set_pixels, 128 * 96 * 9 / 10);
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, CopyAreaShipsAsCopyAndStaysConsistent) {
  ServerSession& session = AttachedSession();
  Rng rng(5);
  session.PutImage(Rect{0, 0, 200, 100}, MakePhotoBlock(&rng, 200, 100));
  session.Flush();
  Sync();
  console_.ClearServiceLog();
  session.CopyArea(0, 0, Rect{300, 300, 200, 100});
  session.Flush();
  Sync();
  bool saw_copy = false;
  for (const auto& rec : console_.service_log()) {
    saw_copy |= rec.type == CommandType::kCopy;
  }
  EXPECT_TRUE(saw_copy);
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, CopyOfUnflushedDamageEncodesDamageFirst) {
  // Draw, then immediately copy the drawn area without an intervening Flush: the encoder
  // must ship the damage before the COPY or the console would copy stale pixels.
  ServerSession& session = AttachedSession();
  Rng rng(7);
  session.PutImage(Rect{0, 0, 64, 64}, MakePhotoBlock(&rng, 64, 64));
  session.CopyArea(0, 0, Rect{100, 100, 64, 64});
  session.Flush();
  Sync();
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, InterleavedFillAndImageKeepCommandOrder) {
  ServerSession& session = AttachedSession();
  Rng rng(9);
  session.PutImage(Rect{20, 20, 80, 80}, MakePhotoBlock(&rng, 80, 80));
  session.FillRect(Rect{40, 40, 30, 30}, MakePixel(1, 2, 3));  // over part of the image
  session.PutImage(Rect{60, 60, 50, 50}, MakePhotoBlock(&rng, 50, 50));
  session.Flush();
  Sync();
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, VideoFrameShipsAsCscs) {
  ServerSession& session = AttachedSession();
  console_.ClearServiceLog();
  YuvImage frame(64, 48);
  for (int32_t y = 0; y < 48; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      frame.Set(x, y, Yuv{static_cast<uint8_t>(x * 4), 128, 128});
    }
  }
  session.SendVideoFrame(frame, Rect{100, 100, 128, 96}, CscsDepth::k12);
  Sync();
  ASSERT_FALSE(console_.service_log().empty());
  EXPECT_EQ(console_.service_log().back().type, CommandType::kCscs);
  EXPECT_TRUE(Matches(session)) << "server truth must mirror the console's decoded frame";
}

TEST_F(ServerFixture, VideoFrameClippedBelowSourceSizeIsDropped) {
  ServerSession& session = AttachedSession();
  YuvImage frame(64, 48);
  for (int32_t y = 0; y < 48; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      frame.Set(x, y, Yuv{static_cast<uint8_t>(x * 4), 90, 170});
    }
  }
  // The screen edge leaves 20 of the 64 columns: the console cannot shrink a frame, so the
  // server must not mirror one either.
  const int32_t width = session.framebuffer().width();
  session.SendVideoFrame(frame, Rect{width - 20, 100, 64, 48}, CscsDepth::k12);
  Sync();
  EXPECT_EQ(console_.commands_rejected(), 0);
  EXPECT_TRUE(Matches(session));
}

TEST_F(ServerFixture, HotdeskingMovesSessionBetweenConsoles) {
  ServerSession& session = AttachedSession();
  Rng rng(11);
  session.PutImage(Rect{10, 10, 100, 100}, MakePhotoBlock(&rng, 100, 100));
  session.Flush();
  Sync();
  ASSERT_TRUE(Matches(session));

  // The user pulls the card and walks to another console.
  Console second(&sim_, &fabric_, ConsoleOptions{});
  console_.RemoveCard(server_.node(), server_.auth().IssueCard(1));
  second.InsertCard(server_.node(), server_.auth().IssueCard(1));
  sim_.Run();
  EXPECT_EQ(session.console(), second.node());
  // The second console shows the exact screen state that was left behind.
  EXPECT_EQ(session.framebuffer().ContentHash(), second.framebuffer().ContentHash());
}

// --- The lazily mirrored video frame ---------------------------------------------------
//
// The session decodes a transmitted CSCS frame into its framebuffer only when something
// reads or writes that framebuffer. Each case sends a frame, then one operation that
// touches the frame's pixels, and checks two things: the server mirrors the console, and
// the console shows `expected_`, which is the frame decoded by the console's own
// ApplyCommand with the operation applied on top.
class LazyMirrorFixture : public ServerFixture {
 protected:
  static constexpr Rect kDst{100, 100, 128, 96};

  // A 64x48 gradient (scaled 2x into kDst); `tint` makes frames differ from each other.
  static YuvImage Frame(int tint) {
    YuvImage frame(64, 48);
    for (int32_t y = 0; y < 48; ++y) {
      for (int32_t x = 0; x < 64; ++x) {
        frame.Set(x, y,
                  Yuv{static_cast<uint8_t>(x * 3 + tint), static_cast<uint8_t>(90 + y),
                      static_cast<uint8_t>(170 - tint)});
      }
    }
    return frame;
  }

  ServerSession& Attached() {
    ServerSession& session = AttachedSession();
    expected_ = console_.framebuffer();
    return session;
  }

  // Sends `frame` to `dst` and applies the same CSCS command to expected_.
  void SendFrame(ServerSession& session, const YuvImage& frame, const Rect& dst) {
    session.SendVideoFrame(frame, dst, CscsDepth::k12);
    CscsCommand cmd;
    cmd.src_w = frame.width();
    cmd.src_h = frame.height();
    cmd.dst = dst;
    cmd.depth = CscsDepth::k12;
    cmd.payload = PackCscsPayload(frame, CscsDepth::k12);
    ASSERT_TRUE(ApplyCommand(DisplayCommand(std::move(cmd)), &expected_));
  }

  void ExpectConsoleShowsExpected(ServerSession& session) {
    session.Flush();
    Sync();
    EXPECT_EQ(console_.framebuffer().ContentHash(), expected_.ContentHash());
    EXPECT_TRUE(Matches(session));
  }

  Framebuffer expected_{1, 1};
};

TEST_F(LazyMirrorFixture, FillOverPartOfAFrame) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  const Rect fill{140, 120, 200, 40};
  session.FillRect(fill, MakePixel(200, 10, 10));
  expected_.Fill(fill, MakePixel(200, 10, 10));
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, GlyphsOverPartOfAFrame) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  const auto glyphs = DefaultFont().Shape("over the video");
  session.DrawGlyphs(120, 130, glyphs, kBlack, kWhite);
  int32_t pen_x = 120;
  for (const GlyphBitmap* glyph : glyphs) {
    expected_.ExpandBitmap(Rect{pen_x, 130, glyph->width, glyph->height}, glyph->bits, kBlack,
                           kWhite);
    pen_x += glyph->width;
  }
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, ImageOverPartOfAFrame) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  Rng rng(17);
  const Rect image{150, 150, 100, 80};
  const std::vector<Pixel> pixels = MakePhotoBlock(&rng, image.w, image.h);
  session.PutImage(image, pixels);
  expected_.SetPixels(image, pixels);
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, CopyReadingFromAFrame) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  const Rect copy{400, 300, kDst.w, kDst.h};
  session.CopyArea(kDst.x, kDst.y, copy);
  expected_.CopyRect(kDst.x, kDst.y, copy);
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, OverlappingFrameAtAnotherDst) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  SendFrame(session, Frame(40), Rect{150, 130, 128, 96});
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, RunOfFramesAtOneDst) {
  ServerSession& session = Attached();
  for (int i = 0; i < 5; ++i) {
    SendFrame(session, Frame(i * 20), kDst);
  }
  ExpectConsoleShowsExpected(session);
}

TEST_F(LazyMirrorFixture, ReattachAtASecondConsoleShowsTheFrame) {
  ServerSession& session = Attached();
  SendFrame(session, Frame(0), kDst);
  Sync();
  Console second(&sim_, &fabric_, ConsoleOptions{});
  console_.RemoveCard(server_.node(), server_.auth().IssueCard(1));
  second.InsertCard(server_.node(), server_.auth().IssueCard(1));
  sim_.Run();
  ASSERT_EQ(session.console(), second.node());
  EXPECT_EQ(second.framebuffer().ContentHash(), expected_.ContentHash());
  EXPECT_EQ(session.framebuffer().ContentHash(), second.framebuffer().ContentHash());
}

TEST_F(ServerFixture, UnknownCardIsRejected) {
  console_.InsertCard(server_.node(), 0xdeadbeef);  // never issued
  sim_.Run();
  EXPECT_EQ(server_.session_count(), 0u);
  EXPECT_GT(server_.auth().rejected(), 0);
}

TEST_F(ServerFixture, InputRoutesToSessionHandler) {
  ServerSession& session = AttachedSession();
  int keys = 0;
  int clicks = 0;
  session.set_input_handler([&](const Message& msg) {
    if (std::holds_alternative<KeyEventMsg>(msg.body)) {
      ++keys;
    } else if (std::holds_alternative<MouseEventMsg>(msg.body)) {
      ++clicks;
    }
  });
  console_.SendKey(server_.node(), session.id(), 65, true);
  console_.SendMouse(server_.node(), session.id(), 5, 5, 1, false);
  sim_.Run();
  EXPECT_EQ(keys, 1);
  EXPECT_EQ(clicks, 1);
  EXPECT_EQ(session.log().input_events(), 2);
}

TEST_F(ServerFixture, EncodeOverheadIsSmallFractionOfRenderTime) {
  // Section 5.5: protocol encoding adds ~1.7% to the X-server's execution time.
  ServerSession& session = AttachedSession();
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    session.PutImage(Rect{i * 10, i * 10, 200, 150}, MakePhotoBlock(&rng, 200, 150));
    session.Flush();
  }
  Sync();
  const double ratio = static_cast<double>(session.encode_time()) /
                       static_cast<double>(session.render_time() + session.wire_time());
  EXPECT_LT(ratio, 0.25);
  EXPECT_GT(ratio, 0.0);
}

TEST(AuthTest, IssuedCardsVerify) {
  AuthenticationManager auth(42);
  const uint64_t card = auth.IssueCard(7);
  EXPECT_TRUE(auth.Verify(card));
  EXPECT_FALSE(auth.Verify(card + 1));
  EXPECT_EQ(auth.accepted(), 1);
  EXPECT_EQ(auth.rejected(), 1);
}

TEST(AuthTest, DifferentUsersGetDifferentCards) {
  AuthenticationManager auth(42);
  EXPECT_NE(auth.IssueCard(1), auth.IssueCard(2));
}

TEST(DeviceManagerTest, TracksAttachDetach) {
  RemoteDeviceManager devices;
  devices.DeviceAttached(3, 0x01);  // keyboard at console 3
  devices.DeviceAttached(3, 0x02);  // mouse
  devices.DeviceAttached(5, 0x08);  // mass storage elsewhere
  EXPECT_EQ(devices.DevicesAt(3), 2);
  EXPECT_EQ(devices.total_devices(), 3);
  devices.DeviceDetached(3, 0x01);
  EXPECT_EQ(devices.DevicesAt(3), 1);
  devices.DeviceDetached(3, 0x99);  // unknown: no-op
  EXPECT_EQ(devices.total_devices(), 2);
}

}  // namespace
}  // namespace slim
