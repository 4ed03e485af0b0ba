// Server-farm tests (DESIGN.md §9): checkpoint round-trip exactness, hostile-blob
// rejection, cross-server hotdesk migration (clean, idle, drawn-on mid-transfer, and
// under chaos loss), and warm-standby crash failover.
//
// The properties pinned here:
//   - checkpoint -> restore is bit-identical on the framebuffer and the accounting
//     counters (property-tested over randomized sessions); console soft state is not
//     checkpointed, because the destination's attach repaints in full;
//   - an idle hotdesk ships one round, and a session drawn on during pre-copy ships a
//     final round carrying the new pixels;
//   - a cross-server hotdesk under 10% fabric loss converges with exactly one owning
//     server and zero stale card mappings;
//   - a killed server's session comes back from the warm standby with the pre-crash
//     pixels on screen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/protocol/messages.h"
#include "src/server/checkpoint.h"
#include "src/server/migration.h"
#include "src/server/session.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace slim {
namespace {

ServerOptions SmallSession() {
  ServerOptions options;
  options.session_width = 160;
  options.session_height = 120;
  return options;
}

// Console geometry must match the small sessions, or whole-framebuffer hashes can never
// agree.
ConsoleOptions SmallConsole() {
  ConsoleOptions options;
  options.width = 160;
  options.height = 120;
  return options;
}

uint64_t BlankHash(const Console& console) {
  return Framebuffer(console.framebuffer().width(), console.framebuffer().height())
      .ContentHash();
}

// --- Checkpoint blob round-trip ----------------------------------------------------------

SessionCheckpoint SyntheticCheckpoint() {
  SessionCheckpoint ckpt;
  ckpt.origin_session = 7;
  ckpt.card_id = 0xDEADBEEFCAFEull;
  ckpt.width = 8;
  ckpt.height = 3;
  ckpt.fb_pixels.resize(24);
  for (size_t i = 0; i < ckpt.fb_pixels.size(); ++i) {
    ckpt.fb_pixels[i] = static_cast<Pixel>(0x010203 * i);
  }
  ckpt.video_deferred = 3;
  ckpt.video_dropped = 1;
  ckpt.coalesced_flushes = 9;
  ckpt.commands_sent = 1234;
  ckpt.bytes_sent = 567890;
  ckpt.render_time = Milliseconds(12);
  ckpt.encode_time = Milliseconds(34);
  ckpt.wire_time = Milliseconds(56);
  for (int t = 1; t <= 5; ++t) {
    ckpt.encode_stats[t] = {t * 10, t * 100, t * 1000, t * 10000};
  }
  return ckpt;
}

TEST(CheckpointTest, EncodeDecodeRoundTripIsExact) {
  const SessionCheckpoint ckpt = SyntheticCheckpoint();
  const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);
}

TEST(CheckpointTest, BlobBytesArePinned) {
  // A 3x2 frame of distinct pixels plus the synthetic counters, captured from the
  // per-pixel U32 encoder: the bulk pixel copy must keep every pixel a little-endian u32.
  SessionCheckpoint ckpt = SyntheticCheckpoint();
  ckpt.width = 3;
  ckpt.height = 2;
  ckpt.fb_pixels = {0x00112233u, 0x44556677u, 0x8899aabbu,
                    0xccddeeffu, 0x01234567u, 0x89abcdefu};
  const char* const kPinned =
      "4b434c53020000000c0100000000000007000000fecaefbeadde000003000000"
      "020000003322110077665544bbaa9988ffeeddcc67452301efcdab8903000000"
      "0000000001000000000000000900000000000000d20400000000000052aa0800"
      "00000000001bb7000000000080cc060200000000007e5603000000000a000000"
      "000000006400000000000000e803000000000000102700000000000014000000"
      "00000000c800000000000000d007000000000000204e0000000000001e000000"
      "000000002c01000000000000b80b000000000000307500000000000028000000"
      "000000009001000000000000a00f000000000000409c00000000000032000000"
      "00000000f401000000000000881300000000000050c3000000000000";
  const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  std::string hex;
  for (const uint8_t byte : blob) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  EXPECT_EQ(hex, kPinned);
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);
}

TEST(CheckpointTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> blob = EncodeCheckpoint(SyntheticCheckpoint());
  // Every prefix of the blob must decode to nullopt — never crash, never half-parse. The
  // outer length header catches most cuts; the internal consistency checks catch the rest.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(DecodeCheckpoint(std::span(blob.data(), len)).has_value())
        << "truncation at byte " << len << " parsed";
  }
  // Trailing garbage is equally fatal: a blob is exact or it is nothing.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DecodeCheckpoint(padded).has_value());
}

TEST(CheckpointTest, VersionAndMagicMismatchesAreRejected) {
  const SessionCheckpoint ckpt = SyntheticCheckpoint();
  std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  ASSERT_TRUE(DecodeCheckpoint(blob).has_value());
  std::vector<uint8_t> bad_version = blob;
  bad_version[4] = static_cast<uint8_t>(kCheckpointVersion + 1);
  EXPECT_FALSE(DecodeCheckpoint(bad_version).has_value());
  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeCheckpoint(bad_magic).has_value());
}

TEST(CheckpointTest, RandomByteFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> blob = EncodeCheckpoint(SyntheticCheckpoint());
  Rng rng(97);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = blob;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    // Either the mutation hit don't-care bytes (decodes to something) or it is rejected;
    // both are fine — what is not fine is a crash or a SLIM_CHECK abort.
    (void)DecodeCheckpoint(mutated);
  }
}

// --- Capture/restore on live sessions ----------------------------------------------------

class CheckpointSessionFixture : public ::testing::Test {
 protected:
  CheckpointSessionFixture()
      : fabric_(&sim_, {}),
        server_a_(&sim_, &fabric_, SmallSession()),
        server_b_(&sim_, &fabric_, SmallSession()),
        console_(&sim_, &fabric_, SmallConsole()) {}

  // Attach at server A and scribble `rounds` of randomized content so the framebuffer and
  // the counters both hold non-trivial state.
  ServerSession& PopulatedSession(Rng* rng, int rounds) {
    card_ = server_a_.auth().IssueCard(1);
    ServerSession& session = server_a_.CreateSession(card_);
    console_.InsertCard(server_a_.node(), card_);
    sim_.RunFor(Milliseconds(200));
    EXPECT_TRUE(session.attached());
    for (int i = 0; i < rounds; ++i) {
      const int32_t x = static_cast<int32_t>(rng->NextBelow(120));
      const int32_t y = static_cast<int32_t>(rng->NextBelow(90));
      if (rng->NextBool(0.5)) {
        session.PutImage(Rect{x, y, 32, 24}, MakePhotoBlock(rng, 32, 24));
      } else {
        session.FillRect(Rect{x, y, 40, 30},
                         MakePixel(static_cast<uint8_t>(rng->NextBelow(255)), 80, 40));
      }
      session.Flush();
      sim_.RunFor(Milliseconds(50));
    }
    return session;
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_a_;
  SlimServer server_b_;
  Console console_;
  uint64_t card_ = 0;
};

TEST_F(CheckpointSessionFixture, RandomizedSessionsRoundTripBitIdentical) {
  Rng rng(4242);
  ServerSession& session = PopulatedSession(&rng, 12);

  SessionCheckpoint ckpt;
  session.CaptureCheckpoint(&ckpt);
  ckpt.card_id = card_;
  EXPECT_EQ(ckpt.fb_pixels.size(), static_cast<size_t>(160 * 120));

  // Wire round trip is exact.
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(EncodeCheckpoint(ckpt));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);

  // Restoring on another server reproduces the framebuffer and counters bit-identically:
  // a second capture from the restored session differs only in its identity fields.
  std::unique_ptr<ServerSession> restored = server_b_.BuildStagedSession(*decoded);
  SessionCheckpoint recaptured;
  restored->CaptureCheckpoint(&recaptured);
  EXPECT_EQ(recaptured.fb_pixels, ckpt.fb_pixels);
  EXPECT_EQ(recaptured.commands_sent, ckpt.commands_sent);
  EXPECT_EQ(recaptured.bytes_sent, ckpt.bytes_sent);
  for (int t = 1; t <= 5; ++t) {
    EXPECT_EQ(recaptured.encode_stats[t], ckpt.encode_stats[t]);
  }
  EXPECT_EQ(restored->framebuffer().ContentHash(), session.framebuffer().ContentHash());
}

TEST_F(CheckpointSessionFixture, CaptureRightAfterAVideoFrameHoldsTheFrame) {
  // A transmitted frame is decoded into the session's framebuffer lazily; a capture must
  // decode it first, or the checkpoint would miss what the console shows.
  Rng rng(77);
  ServerSession& session = PopulatedSession(&rng, 2);
  YuvImage frame(32, 24);
  for (int32_t y = 0; y < 24; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      frame.Set(x, y, Yuv{static_cast<uint8_t>(x * 7), static_cast<uint8_t>(60 + y), 200});
    }
  }
  session.SendVideoFrame(frame, Rect{40, 30, 64, 48}, CscsDepth::k12);
  SessionCheckpoint ckpt;
  session.CaptureCheckpoint(&ckpt);
  sim_.RunFor(Milliseconds(200));
  EXPECT_TRUE(std::ranges::equal(ckpt.fb_pixels, console_.framebuffer().data()));
}

TEST(CheckpointPropertyTest, PropertyManySeedsManyShapes) {
  // The property, over a spread of seeds and drawing mixes: capture -> encode -> decode ->
  // restore -> recapture reproduces every non-identity field exactly. Each seed gets its
  // own sim+fabric world (a torn-down server must not leave armed probes behind).
  for (uint64_t seed : {1ull, 17ull, 99ull, 1234ull}) {
    Rng rng(seed);
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimServer src(&sim, &fabric, SmallSession());
    SlimServer dst(&sim, &fabric, SmallSession());
    Console console(&sim, &fabric, SmallConsole());
    const uint64_t card = src.auth().IssueCard(1);
    ServerSession& session = src.CreateSession(card);
    console.InsertCard(src.node(), card);
    sim.RunFor(Milliseconds(200));
    ASSERT_TRUE(session.attached()) << "seed " << seed;
    const int rounds = 3 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < rounds; ++i) {
      const int32_t x = static_cast<int32_t>(rng.NextBelow(150));
      const int32_t y = static_cast<int32_t>(rng.NextBelow(110));
      session.PutImage(Rect{x, y, 1 + static_cast<int32_t>(rng.NextBelow(64)),
                            1 + static_cast<int32_t>(rng.NextBelow(48))},
                       MakePhotoBlock(&rng, 64, 48));
      session.Flush();
      sim.RunFor(Milliseconds(20));
    }
    SessionCheckpoint ckpt;
    session.CaptureCheckpoint(&ckpt);
    const std::optional<SessionCheckpoint> decoded =
        DecodeCheckpoint(EncodeCheckpoint(ckpt));
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    ASSERT_EQ(*decoded, ckpt) << "seed " << seed;
    SessionCheckpoint recaptured;
    dst.BuildStagedSession(*decoded)->CaptureCheckpoint(&recaptured);
    recaptured.origin_session = ckpt.origin_session;  // the restoring server's own id
    EXPECT_EQ(recaptured, ckpt) << "seed " << seed;
  }
}

// --- Cross-server hotdesk migration ------------------------------------------------------

class MigrationFixture : public ::testing::Test {
 protected:
  MigrationFixture()
      : fabric_(&sim_, {}),
        server_a_(&sim_, &fabric_, SmallSession()),
        server_b_(&sim_, &fabric_, SmallSession()),
        console_a_(&sim_, &fabric_, SmallConsole()),
        console_b_(&sim_, &fabric_, SmallConsole()) {
    manager_a_ = &server_a_.EnableMigration(pool_, MigrationOptions{});
    manager_b_ = &server_b_.EnableMigration(pool_, MigrationOptions{});
    card_ = pool_.IssueCard(1);
  }

  // Attach the card at console A / server A and draw recognizable content.
  uint64_t StartSessionAtA() {
    console_a_.InsertCard(server_a_.node(), card_);
    sim_.RunFor(Milliseconds(300));
    ServerSession* session = server_a_.SessionForCard(card_);
    EXPECT_NE(session, nullptr);
    Rng rng(7);
    session->PutImage(Rect{8, 8, 96, 72}, MakePhotoBlock(&rng, 96, 72));
    session->FillRect(Rect{120, 80, 30, 30}, MakePixel(200, 40, 40));
    session->Flush();
    sim_.RunFor(Milliseconds(300));
    EXPECT_EQ(session->framebuffer().ContentHash(), console_a_.framebuffer().ContentHash());
    EXPECT_EQ(pool_.owner(card_), &server_a_);
    return session->framebuffer().ContentHash();
  }

  Simulator sim_;
  Fabric fabric_;
  ServerPool pool_;
  SlimServer server_a_;
  SlimServer server_b_;
  MigrationManager* manager_a_ = nullptr;
  MigrationManager* manager_b_ = nullptr;
  Console console_a_;
  Console console_b_;
  uint64_t card_ = 0;
};

TEST_F(MigrationFixture, CleanHotdeskAcrossServersMovesTheSessionExactly) {
  const uint64_t content_hash = StartSessionAtA();

  // The card surfaces at a console homed on server B: B pulls the session from A.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));

  // Exactly one owner, zero stale card mappings.
  ServerSession* moved = server_b_.SessionForCard(card_);
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->attached());
  EXPECT_EQ(moved->console(), console_b_.node());
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_a_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_a_.session_count(), 0u);
  EXPECT_EQ(server_a_.card_count(), 0u);
  EXPECT_EQ(server_b_.card_count(), 1u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());

  // The pixels made the trip bit-exactly and reached the new console.
  EXPECT_EQ(moved->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), content_hash);
  // The old console was released (blanked), not left frozen on a ghost desktop.
  EXPECT_GE(console_a_.releases_applied(), 1);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));

  // Protocol accounting: one commit on the source, one install on the destination, a
  // measured blackout on the destination's attach.
  EXPECT_EQ(manager_a_->stats().started, 1);
  EXPECT_EQ(manager_a_->stats().committed, 1);
  EXPECT_EQ(manager_b_->stats().installs, 1);
  EXPECT_EQ(manager_b_->stats().pulls_requested, 1);
  EXPECT_GT(manager_b_->stats().blackout_last_ns, 0);
  EXPECT_GT(manager_a_->checkpoint_stats().captures, 0);
  EXPECT_GT(manager_b_->checkpoint_stats().restores, 0);
}

TEST_F(MigrationFixture, IdleHotdeskShipsOneRound) {
  const uint64_t content_hash = StartSessionAtA();
  ServerSession* session = server_a_.SessionForCard(card_);
  ASSERT_NE(session, nullptr);
  SessionCheckpoint ckpt;
  session->CaptureCheckpoint(&ckpt);
  ckpt.card_id = card_;
  const size_t blob_bytes = EncodeCheckpoint(ckpt).size();

  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));

  // Detaching an idle session changes nothing a checkpoint holds, so the frozen blob
  // equals the staged round 0 and the source commits against it: one blob on the wire.
  EXPECT_EQ(manager_a_->stats().committed, 1);
  EXPECT_EQ(manager_a_->stats().rounds_sent, 0);
  EXPECT_EQ(manager_a_->stats().begins_sent, 1);
  EXPECT_EQ(manager_a_->stats().chunk_bytes_sent, static_cast<int64_t>(blob_bytes));
  ServerSession* moved = server_b_.SessionForCard(card_);
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->attached());
  EXPECT_EQ(moved->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), content_hash);
}

TEST_F(MigrationFixture, SourceDrawsDuringPreCopyShipsAFinalRound) {
  StartSessionAtA();
  console_b_.InsertCard(server_b_.node(), card_);
  // Step until A has captured round 0, then draw before B can have acked it.
  for (int i = 0; i < 100 && manager_a_->stats().started == 0; ++i) {
    sim_.RunFor(Milliseconds(1));
  }
  ASSERT_EQ(manager_a_->stats().started, 1);
  ASSERT_EQ(manager_b_->stats().phase1_sent, 0);
  ServerSession* session = server_a_.SessionForCard(card_);
  ASSERT_NE(session, nullptr);
  session->FillRect(Rect{40, 40, 50, 30}, MakePixel(20, 200, 90));
  session->Flush();
  const uint64_t drawn_hash = session->framebuffer().ContentHash();

  sim_.RunFor(Seconds(2));

  // The staged round 0 predates the draw. Only blob equality stands between it and the
  // commit, so the source must ship at least one more round carrying the new pixels.
  EXPECT_GE(manager_a_->stats().rounds_sent, 1);
  EXPECT_EQ(manager_a_->stats().committed, 1);
  ServerSession* moved = server_b_.SessionForCard(card_);
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->attached());
  EXPECT_EQ(moved->framebuffer().ContentHash(), drawn_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), drawn_hash);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());
}

TEST_F(MigrationFixture, HotdeskBackAndForthKeepsASingleOwner) {
  const uint64_t content_hash = StartSessionAtA();
  // A -> B -> A: two migrations; state survives both.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));
  ASSERT_NE(server_b_.SessionForCard(card_), nullptr);
  console_a_.InsertCard(server_a_.node(), card_);
  sim_.RunFor(Seconds(2));

  ServerSession* back = server_a_.SessionForCard(card_);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->attached());
  EXPECT_EQ(back->console(), console_a_.node());
  EXPECT_EQ(back->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(pool_.owner(card_), &server_a_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_b_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_b_.card_count(), 0u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());
}

TEST_F(MigrationFixture, ChaosLossMigrationConvergesToExactlyOneOwner) {
  const uint64_t content_hash = StartSessionAtA();

  // One datagram in ten dies on the server<->server path — Begin, chunks, commits and
  // aborts included — plus jitter, and the same on the destination console's links.
  FaultProfile lossy;
  lossy.loss = 0.10;
  lossy.delay_jitter = Milliseconds(1);
  fabric_.InjectFaults(server_a_.node(), server_b_.node(), lossy);
  fabric_.InjectFaults(server_b_.node(), server_a_.node(), lossy);
  fabric_.InjectFaults(server_b_.node(), console_b_.node(), lossy);
  fabric_.InjectFaults(console_b_.node(), server_b_.node(), lossy);

  // Like a real user, keep tapping the card until the desktop shows up.
  bool converged = false;
  for (int round = 0; round < 60 && !converged; ++round) {
    ServerSession* moved = server_b_.SessionForCard(card_);
    if (moved == nullptr || !moved->attached() || moved->console() != console_b_.node()) {
      console_b_.InsertCard(server_b_.node(), card_);
    }
    sim_.RunFor(Milliseconds(200));
    moved = server_b_.SessionForCard(card_);
    converged = moved != nullptr && moved->attached() &&
                moved->console() == console_b_.node() &&
                moved->framebuffer().ContentHash() == content_hash &&
                console_b_.framebuffer().ContentHash() == content_hash;
  }
  EXPECT_TRUE(converged) << "migration under 10% loss never converged";

  // Let stragglers (re-sent commits, release notices) settle, then check the invariant:
  // exactly one owning server, zero stale card mappings anywhere.
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_a_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_a_.session_count(), 0u);
  EXPECT_EQ(server_a_.card_count(), 0u);
  EXPECT_EQ(server_b_.session_count(), 1u);
  EXPECT_EQ(server_b_.card_count(), 1u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());

  // The chaos was real (datagrams actually died), and the protocol actually retried.
  EXPECT_GT(fabric_.fault_stats().datagrams_dropped, 0);
  EXPECT_EQ(manager_a_->stats().committed, 1);
  EXPECT_EQ(manager_b_->stats().installs, 1);
}

// --- Crash failover from the warm standby ------------------------------------------------

TEST_F(MigrationFixture, KilledServerFailsOverToWarmStandby) {
  manager_a_->EnableStandby(&server_b_, Milliseconds(50));
  const uint64_t content_hash = StartSessionAtA();
  // Let the standby replication lap the last draw so B's warm blob holds the final state.
  sim_.RunFor(Milliseconds(300));
  EXPECT_GT(manager_a_->stats().standby_sent, 0);
  EXPECT_GT(manager_b_->stats().standby_stored, 0);
  ASSERT_TRUE(manager_b_->HasWarmCheckpoint(card_));

  // Power failure on A: its endpoint goes deaf and mute mid-flight.
  pool_.KillServer(&server_a_);
  EXPECT_FALSE(pool_.alive(&server_a_));

  // The user walks to a console homed on the standby and taps the card.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(1));

  ServerSession* restored = server_b_.SessionForCard(card_);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->attached());
  EXPECT_EQ(restored->console(), console_b_.node());
  // The forced full repaint puts the pre-crash desktop on the new console bit-exactly.
  EXPECT_EQ(restored->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(manager_b_->stats().failover_restores, 1);
  EXPECT_EQ(manager_b_->stats().cold_starts, 0);
  EXPECT_FALSE(manager_b_->MigrationInFlight());
}

TEST_F(MigrationFixture, DeadOwnerWithoutWarmCheckpointColdStarts) {
  StartSessionAtA();  // no standby: nothing replicated
  pool_.KillServer(&server_a_);
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(1));

  // The session is lost (that is what "no standby" means) but the user is not locked out:
  // the card gets a fresh session on B and the directory converges to one owner.
  ServerSession* fresh = server_b_.SessionForCard(card_);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->attached());
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(manager_b_->stats().cold_starts, 1);
  EXPECT_EQ(manager_b_->stats().failover_restores, 0);
}

// Any fabric node can send migration traffic. A Begin's sizes allocate the reassembly
// buffer, so one announcing a blob no decoder accepts, or a chunk count that does not cut
// its bytes, is dropped; a chunk must land inside its round's blob.
TEST_F(MigrationFixture, HostileTransferSizesAreDropped) {
  SlimEndpoint rogue(&fabric_, fabric_.AddNode());
  const uint64_t huge = uint64_t{1} << 40;
  rogue.Send(server_b_.node(), 0,
             MigrateBeginMsg{1, card_, 1, 0, MigratePurpose::kStandby,
                             static_cast<uint32_t>(huge / MigrationOptions::kChunkBytes), huge});
  rogue.Send(server_b_.node(), 0,
             MigrateBeginMsg{2, card_, 1, 0, MigratePurpose::kStandby, 1, 3 * 16384});
  sim_.RunFor(Milliseconds(100));
  EXPECT_FALSE(manager_b_->MigrationInFlight());

  // A consistent one-chunk round, then a chunk whose offset wraps past the blob's end.
  rogue.Send(server_b_.node(), 0,
             MigrateBeginMsg{3, card_, 1, 0, MigratePurpose::kStandby, 1, 64});
  CheckpointChunkMsg chunk{3, 0, 0, 1, ~uint64_t{0} - 1, std::vector<uint8_t>(8, 0xab)};
  rogue.Send(server_b_.node(), 0, chunk);
  sim_.RunFor(Milliseconds(100));
  EXPECT_EQ(manager_b_->stats().chunks_received, 0);

  // The server still migrates a real session afterwards.
  StartSessionAtA();
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(pool_.owner(card_), &server_b_);
}

// --- Observability ----------------------------------------------------------------------

TEST_F(MigrationFixture, MigrationCountersRegisterAndReadBack) {
  MetricRegistry registry;
  ASSERT_TRUE(server_a_.RegisterMetrics(&registry, "server"));
  // A second server shares the registry under its own prefix; the process-wide kernel
  // tier gauge must not make its registration fail.
  ASSERT_TRUE(server_b_.RegisterMetrics(&registry, "server_b"));
  EXPECT_TRUE(registry.Contains("codec.kernels.tier"));
  EXPECT_TRUE(registry.Contains("server_b.migration.installs"));
  EXPECT_TRUE(registry.Contains("server.migration.started"));
  EXPECT_TRUE(registry.Contains("server.migration.committed"));
  EXPECT_TRUE(registry.Contains("server.migration.installs"));
  EXPECT_TRUE(registry.Contains("server.migration.blackout_last_ns"));
  EXPECT_TRUE(registry.Contains("server.checkpoint.captures"));
  EXPECT_TRUE(registry.Contains("server.checkpoint.restores"));

  StartSessionAtA();
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(registry.CounterValue("server.migration.started").value_or(-1), 1);
  EXPECT_EQ(registry.CounterValue("server.migration.committed").value_or(-1), 1);
  EXPECT_GT(registry.CounterValue("server.checkpoint.captures").value_or(-1), 0);
}

}  // namespace
}  // namespace slim
