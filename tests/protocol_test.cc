// Tests for wire primitives and SLIM message serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/protocol/messages.h"
#include "src/protocol/wire.h"
#include "src/server/checkpoint.h"
#include "src/util/rng.h"

namespace slim {
namespace {

TEST(WireTest, RoundTripScalars) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I32(-42);
  w.I64(-1'000'000'000'000);
  const auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1'000'000'000'000);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, LittleEndianLayout) {
  ByteWriter w;
  w.U32(0x04030201);
  const auto buf = w.data();
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(WireTest, ReadPastEndSetsNotOk) {
  const std::vector<uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, OkStaysFalseAfterFailure) {
  const std::vector<uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r(buf);
  r.U32();
  r.U32();  // fails
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0);  // subsequent reads also return zero
}

TEST(WireTest, BulkU32sMatchPerElementLayout) {
  const std::vector<uint32_t> values{0x04030201u, 0xdeadbeefu, 0, 0xffffffffu};
  ByteWriter each;
  for (const uint32_t v : values) {
    each.U32(v);
  }
  ByteWriter bulk;
  bulk.U8(0x7e);  // an odd offset, as the words sit inside a real blob
  bulk.U32s(values);
  const std::vector<uint8_t> bytes = bulk.Take();
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin() + 1, bytes.end()), each.data());

  ByteReader r(bytes);
  r.U8();
  std::vector<uint32_t> back(values.size());
  r.U32s(back);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(back, values);

  // One word short: not ok, and the output reads as zeros like every other short read.
  ByteReader short_read(std::span<const uint8_t>(bytes).subspan(0, bytes.size() - 1));
  short_read.U8();
  short_read.U32s(back);
  EXPECT_FALSE(short_read.ok());
  EXPECT_EQ(back, std::vector<uint32_t>(values.size(), 0));
}

// The framing checksum's values go on the wire, so they are pinned: a compiler, a host's
// byte order or a rewrite that changes one fails here. The lengths cover the empty input,
// a zero-padded tail word, whole words, one 32-byte block and a full fragment payload.
TEST(WireTest, FrameChecksumGoldenValues) {
  struct Golden {
    size_t size;
    uint32_t fragment;  // magic 0x5f
    uint32_t batch;     // magic 0x5e
  };
  const Golden goldens[] = {
      {0, 0x1e47e794u, 0xe8d0a797u},    {1, 0x92c15ea5u, 0x91ed7c12u},
      {3, 0xf240243du, 0x9b2539acu},    {4, 0x9cc21785u, 0x45a529a6u},
      {5, 0x32417495u, 0x1c3f90f7u},    {31, 0x3edad83du, 0x0ceea3d6u},
      {32, 0xdf2fb544u, 0x3663d2f9u},   {33, 0xdc37d1a9u, 0x3e5c251bu},
      {1485, 0x80d5a772u, 0xd7f76a89u},
  };
  for (const Golden& g : goldens) {
    std::vector<uint8_t> input(g.size);
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<uint8_t>(i * 37 + 11);
    }
    EXPECT_EQ(FrameChecksum32(0x5f, input), g.fragment) << g.size << " bytes";
    EXPECT_EQ(FrameChecksum32(0x5e, input), g.batch) << g.size << " bytes";
  }
}

Message RoundTrip(const Message& msg) {
  const auto bytes = SerializeMessage(msg);
  EXPECT_EQ(bytes.size(), MessageWireSize(msg));
  auto parsed = ParseMessage(bytes);
  EXPECT_TRUE(parsed.has_value());
  return *parsed;
}

TEST(MessageTest, FillRoundTrip) {
  Message msg;
  msg.session_id = 7;
  msg.seq = 99;
  msg.body = FillCommand{Rect{1, 2, 30, 40}, MakePixel(9, 8, 7)};
  const Message back = RoundTrip(msg);
  EXPECT_EQ(back.session_id, 7u);
  EXPECT_EQ(back.seq, 99u);
  EXPECT_EQ(std::get<FillCommand>(back.body), std::get<FillCommand>(msg.body));
}

TEST(MessageTest, SetRoundTripPreservesPixels) {
  Rng rng(3);
  SetCommand cmd;
  cmd.dst = Rect{5, 6, 4, 3};
  for (int i = 0; i < 4 * 3 * 3; ++i) {
    cmd.rgb.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
  }
  Message msg{1, 2, cmd};
  const Message back = RoundTrip(msg);
  EXPECT_EQ(std::get<SetCommand>(back.body), cmd);
}

TEST(MessageTest, BitmapRoundTrip) {
  BitmapCommand cmd;
  cmd.dst = Rect{0, 0, 12, 5};
  cmd.fg = kWhite;
  cmd.bg = MakePixel(1, 2, 3);
  cmd.bits.assign(2 * 5, 0x5a);
  Message msg{3, 4, cmd};
  EXPECT_EQ(std::get<BitmapCommand>(RoundTrip(msg).body), cmd);
}

TEST(MessageTest, CopyRoundTrip) {
  const CopyCommand cmd{-4, 10, Rect{8, 8, 100, 50}};
  Message msg{1, 1, cmd};
  EXPECT_EQ(std::get<CopyCommand>(RoundTrip(msg).body), cmd);
}

TEST(MessageTest, CscsRoundTripAllDepths) {
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    CscsCommand cmd;
    cmd.src_w = 16;
    cmd.src_h = 8;
    cmd.dst = Rect{0, 0, 32, 16};
    cmd.depth = depth;
    cmd.payload.assign(CscsPayloadBytes(16, 8, depth), 0x3c);
    Message msg{1, 5, cmd};
    EXPECT_EQ(std::get<CscsCommand>(RoundTrip(msg).body), cmd);
  }
}

TEST(MessageTest, InputAndControlRoundTrips) {
  EXPECT_EQ(std::get<KeyEventMsg>(RoundTrip(Message{1, 1, KeyEventMsg{65, true}}).body),
            (KeyEventMsg{65, true}));
  EXPECT_EQ(
      std::get<MouseEventMsg>(RoundTrip(Message{1, 2, MouseEventMsg{10, -2, 3, true}}).body),
      (MouseEventMsg{10, -2, 3, true}));
  EXPECT_EQ(std::get<StatusMsg>(RoundTrip(Message{1, 3, StatusMsg{2, 888}}).body),
            (StatusMsg{2, 888}));
  EXPECT_EQ(std::get<NackMsg>(RoundTrip(Message{1, 0, NackMsg{5, 9}}).body), (NackMsg{5, 9}));
  EXPECT_EQ(
      std::get<SessionAttachMsg>(RoundTrip(Message{0, 4, SessionAttachMsg{0xcafe}}).body),
      (SessionAttachMsg{0xcafe}));
  EXPECT_EQ(std::get<BandwidthRequestMsg>(
                RoundTrip(Message{1, 5, BandwidthRequestMsg{7, 20'000'000}}).body),
            (BandwidthRequestMsg{7, 20'000'000}));
  EXPECT_EQ(std::get<BandwidthGrantMsg>(
                RoundTrip(Message{1, 6, BandwidthGrantMsg{7, 10'000'000, 100'000'000}}).body),
            (BandwidthGrantMsg{7, 10'000'000, 100'000'000}));
  EXPECT_EQ(std::get<PingMsg>(RoundTrip(Message{1, 7, PingMsg{42}}).body), (PingMsg{42}));
  EXPECT_EQ(std::get<PongMsg>(RoundTrip(Message{1, 8, PongMsg{42}}).body), (PongMsg{42}));
}

TEST(MessageTest, SessionReleaseRoundTripsEveryReason) {
  for (const ReleaseReason reason :
       {ReleaseReason::kHotdesk, ReleaseReason::kCardRemoved, ReleaseReason::kLivenessTimeout,
        ReleaseReason::kEvicted, ReleaseReason::kReplaced, ReleaseReason::kMigrated}) {
    const Message back = RoundTrip(Message{1, 9, SessionReleaseMsg{reason}});
    EXPECT_EQ(std::get<SessionReleaseMsg>(back.body), (SessionReleaseMsg{reason}));
    EXPECT_EQ(TypeOfMessage(back), MessageType::kSessionRelease);
  }
}

// --- Server<->server migration messages (DESIGN.md §9) ---

TEST(MessageTest, MigrationMessagesRoundTrip) {
  CheckpointChunkMsg chunk;
  chunk.epoch = (7ull << 40) | 3;
  chunk.round = 2;
  chunk.index = 4;
  chunk.count = 9;
  chunk.offset = 4 * 16384;
  chunk.data.assign(16384, 0x5a);
  const Message chunk_back = RoundTrip(Message{0, 11, chunk});
  EXPECT_EQ(std::get<CheckpointChunkMsg>(chunk_back.body), chunk);
  EXPECT_EQ(TypeOfMessage(chunk_back), MessageType::kCheckpointChunk);

  for (const MigratePurpose purpose :
       {MigratePurpose::kHandoff, MigratePurpose::kStandby}) {
    const MigrateBeginMsg begin{(7ull << 40) | 3, 0xcafe, 42, 2, purpose, 9, 145000};
    const Message back = RoundTrip(Message{0, 12, begin});
    EXPECT_EQ(std::get<MigrateBeginMsg>(back.body), begin);
    EXPECT_EQ(TypeOfMessage(back), MessageType::kMigrateBegin);
  }

  for (const uint8_t phase : {uint8_t{1}, uint8_t{2}}) {
    const MigrateCommitMsg commit{(7ull << 40) | 3, 2, phase};
    const Message back = RoundTrip(Message{0, 13, commit});
    EXPECT_EQ(std::get<MigrateCommitMsg>(back.body), commit);
    EXPECT_EQ(TypeOfMessage(back), MessageType::kMigrateCommit);
  }

  for (const MigrateAbortReason reason :
       {MigrateAbortReason::kTimeout, MigrateAbortReason::kBadCheckpoint,
        MigrateAbortReason::kSuperseded, MigrateAbortReason::kShutdown}) {
    const MigrateAbortMsg abort{(7ull << 40) | 3, reason};
    const Message back = RoundTrip(Message{0, 14, abort});
    EXPECT_EQ(std::get<MigrateAbortMsg>(back.body), abort);
    EXPECT_EQ(TypeOfMessage(back), MessageType::kMigrateAbort);
  }
}

// Every prefix truncation of each migration message must parse as nullopt, never crash —
// the transport feeds reassembled bytes straight into ParseMessage, so a fabric that
// truncates a datagram inside the payload must land in a counted reject.
TEST(MessageTest, MigrationMessagesRejectTruncatedPayload) {
  CheckpointChunkMsg chunk;
  chunk.epoch = 1;
  chunk.count = 2;
  chunk.data.assign(64, 0xab);
  const std::vector<Message> msgs{
      Message{0, 11, chunk},
      Message{0, 12, MigrateBeginMsg{1, 2, 3, 0, MigratePurpose::kHandoff, 4, 5}},
      Message{0, 13, MigrateCommitMsg{1, 0, 1}},
      Message{0, 14, MigrateAbortMsg{1, MigrateAbortReason::kTimeout}},
  };
  for (const Message& msg : msgs) {
    const auto bytes = SerializeMessage(msg);
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      EXPECT_FALSE(ParseMessage(cut).has_value())
          << "type " << static_cast<int>(TypeOfMessage(msg)) << " len " << len;
    }
  }
}

// Out-of-range enum bytes and impossible field combinations are corruption, not data.
TEST(MessageTest, MigrationMessagesRejectBadFieldValues) {
  // MigrateBegin purpose byte sits after header (20) + epoch/card (16) + session/round (8).
  auto begin = SerializeMessage(
      Message{0, 1, MigrateBeginMsg{1, 2, 3, 0, MigratePurpose::kHandoff, 4, 5}});
  begin[20 + 16 + 8] = 99;
  EXPECT_FALSE(ParseMessage(begin).has_value());

  // MigrateCommit phase byte sits after header + epoch (8) + round (4).
  auto commit = SerializeMessage(Message{0, 1, MigrateCommitMsg{1, 0, 1}});
  commit[20 + 8 + 4] = 3;
  EXPECT_FALSE(ParseMessage(commit).has_value());

  // MigrateAbort reason byte sits right after the epoch.
  auto abort = SerializeMessage(Message{0, 1, MigrateAbortMsg{1, MigrateAbortReason::kTimeout}});
  abort[20 + 8] = 0;
  EXPECT_FALSE(ParseMessage(abort).has_value());

  // A chunk indexed at or past its own count cannot belong to any round.
  CheckpointChunkMsg chunk;
  chunk.count = 2;
  chunk.index = 2;
  chunk.data.assign(8, 0);
  EXPECT_FALSE(ParseMessage(SerializeMessage(Message{0, 1, chunk})).has_value());
}

// The checkpoint blob envelope (magic, version, body length) is protocol surface too:
// the chunks reassembled by migration are fed straight into DecodeCheckpoint, so a blob
// from a future format version must be rejected whole, never half-parsed.
TEST(CheckpointEnvelopeTest, RejectsVersionMismatchAndTruncation) {
  SessionCheckpoint ckpt;
  ckpt.card_id = 0xcafe;
  ckpt.width = 2;
  ckpt.height = 2;
  ckpt.fb_pixels.assign(4, 0x123456);
  const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  ASSERT_EQ(DecodeCheckpoint(blob), ckpt);

  std::vector<uint8_t> bad_version = blob;
  bad_version[4] = static_cast<uint8_t>(kCheckpointVersion + 1);
  EXPECT_FALSE(DecodeCheckpoint(bad_version).has_value());

  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeCheckpoint(bad_magic).has_value());

  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(DecodeCheckpoint(cut).has_value()) << len;
  }
}

TEST(MessageTest, AudioRoundTrip) {
  AudioMsg audio;
  audio.sample_rate = 44100;
  audio.samples.assign(333, 0x11);
  EXPECT_EQ(std::get<AudioMsg>(RoundTrip(Message{2, 9, audio}).body), audio);
}

TEST(MessageTest, RejectsBadMagic) {
  auto bytes = SerializeMessage(Message{1, 1, FillCommand{Rect{0, 0, 1, 1}, 0}});
  bytes[0] = 0x00;
  EXPECT_FALSE(ParseMessage(bytes).has_value());
}

TEST(MessageTest, RejectsTruncatedPayload) {
  auto bytes = SerializeMessage(Message{1, 1, FillCommand{Rect{0, 0, 1, 1}, 0}});
  ASSERT_GT(bytes.size(), 2u);
  bytes.erase(bytes.end() - 2, bytes.end());
  EXPECT_FALSE(ParseMessage(bytes).has_value());
}

TEST(MessageTest, RejectsUnknownType) {
  auto bytes = SerializeMessage(Message{1, 1, FillCommand{Rect{0, 0, 1, 1}, 0}});
  bytes[1] = 0x77;  // not a valid MessageType
  EXPECT_FALSE(ParseMessage(bytes).has_value());
}

TEST(MessageTest, RejectsInvalidCscsDepth) {
  CscsCommand cmd;
  cmd.src_w = 2;
  cmd.src_h = 2;
  cmd.dst = Rect{0, 0, 2, 2};
  cmd.depth = CscsDepth::k8;
  cmd.payload.assign(CscsPayloadBytes(2, 2, CscsDepth::k8), 0);
  auto bytes = SerializeMessage(Message{1, 1, cmd});
  // Depth byte sits after header (20) + src_w/src_h (8) + rect (16).
  bytes[20 + 8 + 16] = 99;
  EXPECT_FALSE(ParseMessage(bytes).has_value());
}

TEST(MessageTest, FuzzRandomBytesNeverCrash) {
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> noise(rng.NextBelow(200));
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    (void)ParseMessage(noise);  // must not crash or throw
  }
}

TEST(MessageTest, FuzzTruncationsOfValidMessageNeverCrash) {
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 10, 10};
  cmd.rgb.assign(300, 7);
  const auto bytes = SerializeMessage(Message{1, 1, cmd});
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(ParseMessage(cut).has_value()) << len;
  }
}

TEST(CommandTest, WireSizeTracksPayload) {
  const FillCommand fill{Rect{0, 0, 100, 100}, 0};
  EXPECT_EQ(WireSize(DisplayCommand(fill)), kMessageHeaderBytes + 16 + 4);
  SetCommand set;
  set.dst = Rect{0, 0, 10, 10};
  set.rgb.assign(300, 0);
  EXPECT_EQ(WireSize(DisplayCommand(set)), kMessageHeaderBytes + 16 + 300);
}

TEST(CommandTest, UncompressedBytesIsThreePerPixel) {
  const FillCommand fill{Rect{0, 0, 20, 10}, 0};
  EXPECT_EQ(UncompressedBytes(DisplayCommand(fill)), 20 * 10 * 3);
}

// SET rows against the per-pixel wire layout (R, G, B per pixel), for every row length up
// to 257: packing writes exactly 3n bytes, and unpacking them gives the pixels back.
TEST(CommandTest, PackUnpackRgbRoundTrip) {
  Rng rng(5);
  for (size_t n = 0; n <= 257; ++n) {
    std::vector<Pixel> pixels(n);
    std::vector<uint8_t> expected;
    for (Pixel& p : pixels) {
      p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
      expected.insert(expected.end(), {PixelR(p), PixelG(p), PixelB(p)});
    }
    std::vector<uint8_t> rgb(3 * n + 1, 0xa5);  // one guard byte past the row
    PackSetRow(pixels, rgb.data());
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), rgb.begin())) << n;
    ASSERT_EQ(rgb.back(), 0xa5) << n;
    std::vector<Pixel> back(n + 1, kWhite);
    UnpackSetRow(rgb.data(), std::span(back).first(n));
    ASSERT_TRUE(std::equal(pixels.begin(), pixels.end(), back.begin())) << n;
    ASSERT_EQ(back.back(), kWhite) << n;
  }
}

TEST(CommandTest, TypeNamesStable) {
  EXPECT_STREQ(CommandTypeName(CommandType::kSet), "SET");
  EXPECT_STREQ(CommandTypeName(CommandType::kCscs), "CSCS");
}

}  // namespace
}  // namespace slim
