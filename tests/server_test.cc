// Tests for the SLIM server: drawing API semantics, damage encoding order, hotdesking
// (session mobility), authentication, and the device manager.

#include <gtest/gtest.h>

#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
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
