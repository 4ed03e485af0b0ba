// Tests for the SLIM encoder/decoder, including the core round-trip property: encoding a
// damaged framebuffer and applying the commands to a stale copy reproduces it exactly.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/apps/content.h"
#include "src/codec/decoder.h"
#include "src/codec/encoder.h"
#include "src/color/yuv.h"
#include "src/util/rng.h"

namespace slim {
namespace {

TEST(DecoderTest, ValidatesSetPayloadSize) {
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 4, 4};
  cmd.rgb.assign(4 * 4 * 3, 0);
  EXPECT_TRUE(ValidateCommand(DisplayCommand(cmd)));
  cmd.rgb.pop_back();
  EXPECT_FALSE(ValidateCommand(DisplayCommand(cmd)));
}

TEST(DecoderTest, ValidatesBitmapStride) {
  BitmapCommand cmd;
  cmd.dst = Rect{0, 0, 12, 3};  // stride 2 bytes
  cmd.bits.assign(2 * 3, 0);
  EXPECT_TRUE(ValidateCommand(DisplayCommand(cmd)));
  cmd.bits.push_back(0);
  EXPECT_FALSE(ValidateCommand(DisplayCommand(cmd)));
}

TEST(DecoderTest, RejectsEmptyRects) {
  EXPECT_FALSE(ValidateCommand(DisplayCommand(FillCommand{Rect{0, 0, 0, 5}, 0})));
  EXPECT_FALSE(ValidateCommand(DisplayCommand(FillCommand{Rect{0, 0, 5, -1}, 0})));
}

TEST(DecoderTest, RejectsCscsDownscaleAndBadPayload) {
  CscsCommand cmd;
  cmd.src_w = 8;
  cmd.src_h = 8;
  cmd.dst = Rect{0, 0, 4, 4};  // downscale: not supported by the console
  cmd.depth = CscsDepth::k16;
  cmd.payload.assign(CscsPayloadBytes(8, 8, CscsDepth::k16), 0);
  EXPECT_FALSE(ValidateCommand(DisplayCommand(cmd)));
  cmd.dst = Rect{0, 0, 8, 8};
  EXPECT_TRUE(ValidateCommand(DisplayCommand(cmd)));
  cmd.payload.pop_back();
  EXPECT_FALSE(ValidateCommand(DisplayCommand(cmd)));
}

// ValidateCommand bounds a CSCS command's payload, not its dst: the 3-byte payload of a
// 1x1 source passes with any destination size. Applying it must cost only the framebuffer
// it lands in, not dst's 256 MB of pixels.
TEST(DecoderTest, CscsApplyIsBoundedByTheFramebuffer) {
  CscsCommand cmd;
  cmd.src_w = 1;
  cmd.src_h = 1;
  cmd.dst = Rect{0, 0, 8192, 8192};
  cmd.depth = CscsDepth::k16;
  cmd.payload = {200, 90, 170};  // Y, U, V
  Framebuffer fb(64, 64);
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  ASSERT_TRUE(ApplyCommand(DisplayCommand(cmd), &fb));
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024) << "KiB";
  const Pixel expected = YuvToRgb(Yuv{200, 90, 170});
  for (const Pixel p : fb.data()) {
    ASSERT_EQ(p, expected);
  }
}

TEST(DecoderTest, ApplyRejectsMalformedWithoutTouchingFramebuffer) {
  Framebuffer fb(16, 16);
  const uint64_t before = fb.ContentHash();
  SetCommand bad;
  bad.dst = Rect{0, 0, 4, 4};
  bad.rgb.assign(5, 0);
  EXPECT_FALSE(ApplyCommand(DisplayCommand(bad), &fb));
  EXPECT_EQ(fb.ContentHash(), before);
}

// The per-pixel form of a SET: the payload unpacked whole, then written with SetPixels.
Framebuffer ApplySetPerPixel(Framebuffer fb, const SetCommand& set) {
  std::vector<Pixel> pixels(set.rgb.size() / 3);
  for (size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = MakePixel(set.rgb[3 * i], set.rgb[3 * i + 1], set.rgb[3 * i + 2]);
  }
  fb.SetPixels(set.dst, pixels);
  return fb;
}

// A SET unpacks row by row straight into the framebuffer. With dst hanging off each edge
// (and off several at once), every pixel inside must still take the payload pixel at its
// offset within dst, as SetPixelsClipsButKeepsSourceAlignment checks for SetPixels.
TEST(DecoderTest, SetAppliesRowsClippedLikeSetPixels) {
  Rng rng(808);
  const auto between = [&rng](int32_t lo, int32_t hi) {
    return static_cast<int32_t>(rng.NextInRange(lo, hi));
  };
  for (int trial = 0; trial < 1000; ++trial) {
    Framebuffer fb(40, 30);
    for (int32_t y = 0; y < fb.height(); ++y) {
      for (int32_t x = 0; x < fb.width(); ++x) {
        fb.PutPixel(x, y, static_cast<Pixel>(rng.NextU64() & 0xffffff));
      }
    }
    SetCommand set;
    set.dst = Rect{between(-24, 39), between(-20, 29), between(1, 60), between(1, 45)};
    set.rgb.resize(static_cast<size_t>(set.dst.area()) * 3);
    for (uint8_t& b : set.rgb) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const Framebuffer expected = ApplySetPerPixel(fb, set);
    ASSERT_TRUE(ApplyCommand(DisplayCommand(set), &fb));
    ASSERT_TRUE(std::ranges::equal(fb.data(), expected.data()))
        << "trial " << trial << " dst " << set.dst.ToString();
  }
}

// The encoder packs each SET straight from framebuffer rows: its payload must be the
// per-pixel packing of what ReadPixels returns for its dst.
TEST(EncoderTest, SetPayloadPacksFramebufferRows) {
  Framebuffer fb(97, 45);
  Rng rng(21);
  fb.SetPixels(fb.bounds(), MakePhotoBlock(&rng, fb.width(), fb.height()));
  EncoderOptions options;
  options.max_set_pixels = 300;  // splits SETs by rows and by columns
  const Encoder encoder(options);
  int sets = 0;
  for (const DisplayCommand& cmd : encoder.EncodeDamage(fb, Region(Rect{3, 2, 90, 40}))) {
    const auto* set = std::get_if<SetCommand>(&cmd);
    if (set == nullptr) {
      continue;
    }
    ++sets;
    std::vector<Pixel> pixels;
    fb.ReadPixels(set->dst, &pixels);
    std::vector<uint8_t> expected;
    for (const Pixel p : pixels) {
      expected.insert(expected.end(), {PixelR(p), PixelG(p), PixelB(p)});
    }
    ASSERT_EQ(set->rgb, expected) << set->dst.ToString();
  }
  EXPECT_GT(sets, 1);
}

TEST(DecoderTest, FillApplies) {
  Framebuffer fb(16, 16);
  EXPECT_TRUE(
      ApplyCommand(DisplayCommand(FillCommand{Rect{2, 2, 4, 4}, MakePixel(1, 2, 3)}), &fb));
  EXPECT_EQ(fb.GetPixel(3, 3), MakePixel(1, 2, 3));
  EXPECT_EQ(fb.GetPixel(7, 7), kBlack);
}

TEST(EncoderTest, UniformRegionBecomesSingleFill) {
  Framebuffer fb(128, 64, MakePixel(10, 20, 30));
  Encoder encoder;
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, Rect{0, 0, 128, 32}, &cmds);
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(TypeOf(cmds[0]), CommandType::kFill);
  EXPECT_EQ(std::get<FillCommand>(cmds[0]).color, MakePixel(10, 20, 30));
}

TEST(EncoderTest, BicolorRegionBecomesBitmaps) {
  Framebuffer fb(64, 32, kWhite);
  // Checkerboard of two colors: classic text-like content.
  for (int32_t y = 0; y < 32; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      if (((x / 2) ^ (y / 2)) & 1) {
        fb.PutPixel(x, y, kBlack);
      }
    }
  }
  Encoder encoder;
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  ASSERT_FALSE(cmds.empty());
  int64_t bitmap_pixels = 0;
  for (const auto& cmd : cmds) {
    EXPECT_EQ(TypeOf(cmd), CommandType::kBitmap);
    bitmap_pixels += AffectedPixels(cmd);
  }
  EXPECT_EQ(bitmap_pixels, 64 * 32);
}

TEST(EncoderTest, PhotoContentFallsBackToSet) {
  Framebuffer fb(128, 64);
  Rng rng(5);
  fb.SetPixels(Rect{0, 0, 128, 64}, MakePhotoBlock(&rng, 128, 64));
  Encoder encoder;
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  int64_t set_pixels = 0;
  int64_t total_pixels = 0;
  for (const auto& cmd : cmds) {
    total_pixels += AffectedPixels(cmd);
    if (TypeOf(cmd) == CommandType::kSet) {
      set_pixels += AffectedPixels(cmd);
    }
  }
  EXPECT_EQ(total_pixels, 128 * 64);
  EXPECT_GT(set_pixels, total_pixels * 9 / 10);
}

TEST(EncoderTest, LargeSetSplitsBelowLimit) {
  EncoderOptions options;
  options.max_set_pixels = 1000;
  Framebuffer fb(200, 100);
  Rng rng(6);
  fb.SetPixels(Rect{0, 0, 200, 100}, MakePhotoBlock(&rng, 200, 100));
  Encoder encoder(options);
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  for (const auto& cmd : cmds) {
    if (TypeOf(cmd) == CommandType::kSet) {
      EXPECT_LE(AffectedPixels(cmd), 1000);
    }
  }
}

TEST(EncoderTest, SetSplitsHorizontallyWhenRectIsWiderThanLimit) {
  // Regression: EmitSet used to split only by rows, so a merged run wider than
  // max_set_pixels produced a single SET exceeding the limit (and, at one row minimum, the
  // row split could not help). The encoder must split horizontally too.
  EncoderOptions options;
  options.max_set_pixels = 64;
  Framebuffer fb(300, 20);
  Rng rng(7);
  fb.SetPixels(Rect{0, 0, 300, 20}, MakePhotoBlock(&rng, 300, 20));
  Encoder encoder(options);
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  int64_t total = 0;
  for (const auto& cmd : cmds) {
    if (TypeOf(cmd) == CommandType::kSet) {
      EXPECT_LE(AffectedPixels(cmd), options.max_set_pixels);
    }
    total += AffectedPixels(cmd);
  }
  EXPECT_EQ(total, 300 * 20);
  // The split must still reproduce the source exactly (no gaps or overlaps).
  Framebuffer target(300, 20);
  for (const auto& cmd : cmds) {
    ASSERT_TRUE(ApplyCommand(cmd, &target));
  }
  EXPECT_EQ(target.ContentHash(), fb.ContentHash());
}

TEST(DecoderTest, ApplyRejectsCopyReadingOutsideTheFramebuffer) {
  Framebuffer fb(32, 32);
  fb.Fill(Rect{0, 0, 32, 32}, MakePixel(9, 9, 9));
  const uint64_t before = fb.ContentHash();
  // ValidateCommand is framebuffer-agnostic, so an out-of-bounds source rect passes it;
  // ApplyCommand must be the backstop and reject without touching the framebuffer.
  CopyCommand bad{24, 24, Rect{0, 0, 16, 16}};  // source exits the 32x32 framebuffer
  EXPECT_TRUE(ValidateCommand(DisplayCommand(bad)));
  EXPECT_FALSE(ApplyCommand(DisplayCommand(bad), &fb));
  EXPECT_EQ(fb.ContentHash(), before);
  CopyCommand negative{-1, 0, Rect{4, 4, 8, 8}};
  EXPECT_FALSE(ApplyCommand(DisplayCommand(negative), &fb));
  EXPECT_EQ(fb.ContentHash(), before);
  // Rect ends that overflow int32: the source check must not wrap around to "inside", and
  // a destination far off the frame is still malformed, not merely clipped away.
  constexpr int32_t kNearMax = std::numeric_limits<int32_t>::max() - 4;
  CopyCommand wrapping_src{kNearMax, 0, Rect{0, 0, 16, 1}};
  EXPECT_FALSE(ApplyCommand(DisplayCommand(wrapping_src), &fb));
  EXPECT_EQ(fb.ContentHash(), before);
  FillCommand wrapping_dst{Rect{kNearMax, 0, 16, 1}, kWhite};
  EXPECT_FALSE(ApplyCommand(DisplayCommand(wrapping_dst), &fb));
  EXPECT_EQ(fb.ContentHash(), before);
  CopyCommand good{0, 0, Rect{16, 16, 8, 8}};
  EXPECT_TRUE(ApplyCommand(DisplayCommand(good), &fb));
}

TEST(EncoderTest, DisablingHeuristicsForcesSet) {
  EncoderOptions options;
  options.enable_fill = false;
  options.enable_bitmap = false;
  Framebuffer fb(64, 32, kWhite);
  Encoder encoder(options);
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  for (const auto& cmd : cmds) {
    EXPECT_EQ(TypeOf(cmd), CommandType::kSet);
  }
}

// The round-trip property, over randomized content mixes: a stale framebuffer brought
// forward by encoded commands must match the source exactly inside the damage and remain
// untouched outside it.
class EncoderRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncoderRoundTrip, DamageEncodingReproducesSourceExactly) {
  Rng rng(1000 + GetParam());
  Framebuffer before(160, 120);
  // Shared history: both sides start from the same painted state.
  before.Fill(Rect{0, 0, 160, 60}, MakePixel(30, 30, 40));
  before.SetPixels(Rect{10, 70, 64, 40}, MakePhotoBlock(&rng, 64, 40));
  Framebuffer after = before;  // server's evolving truth

  // Random mutations: fills, bicolor patches, photo patches.
  Region damage;
  for (int i = 0; i < 8; ++i) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(140)),
                 static_cast<int32_t>(rng.NextBelow(100)),
                 4 + static_cast<int32_t>(rng.NextBelow(40)),
                 4 + static_cast<int32_t>(rng.NextBelow(30))};
    const double kind = rng.NextDouble();
    if (kind < 0.3) {
      after.Fill(r, static_cast<Pixel>(rng.NextU64() & 0xffffff));
    } else if (kind < 0.6) {
      for (int32_t y = r.y; y < r.bottom(); ++y) {
        for (int32_t x = r.x; x < r.right(); ++x) {
          after.PutPixel(x, y, ((x ^ y) & 1) ? kWhite : kBlack);
        }
      }
    } else {
      after.SetPixels(r, MakePhotoBlock(&rng, r.w, r.h));
    }
    damage.Add(Intersect(r, after.bounds()));
  }

  Encoder encoder;
  const auto cmds = encoder.EncodeDamage(after, damage);
  Framebuffer replica = before;  // console's stale soft state
  for (const auto& cmd : cmds) {
    EXPECT_TRUE(ApplyCommand(cmd, &replica));
  }
  EXPECT_EQ(replica.ContentHash(), after.ContentHash());
}

INSTANTIATE_TEST_SUITE_P(RandomizedContent, EncoderRoundTrip, ::testing::Range(0, 20));

TEST(EncoderTest, CommandsStayInsideDamage) {
  Rng rng(77);
  Framebuffer fb(100, 100);
  fb.SetPixels(Rect{0, 0, 100, 100}, MakePhotoBlock(&rng, 100, 100));
  Region damage;
  damage.Add(Rect{10, 10, 30, 30});
  damage.Add(Rect{60, 60, 20, 20});
  Encoder encoder;
  for (const auto& cmd : encoder.EncodeDamage(fb, damage)) {
    const Rect dst = DestinationOf(cmd);
    bool contained = false;
    for (const Rect& r : damage.rects()) {
      contained |= r.ContainsRect(dst);
    }
    EXPECT_TRUE(contained) << dst.ToString();
  }
}

TEST(EncoderTest, AccumulateCountsPerType) {
  Framebuffer fb(64, 64, kWhite);
  Encoder encoder;
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  EncodeStats stats[6] = {};
  Encoder::Accumulate(cmds, stats);
  EXPECT_GT(stats[static_cast<size_t>(CommandType::kFill)].commands, 0);
  EXPECT_EQ(stats[static_cast<size_t>(CommandType::kSet)].commands, 0);
  EXPECT_EQ(stats[static_cast<size_t>(CommandType::kFill)].uncompressed_bytes, 64 * 64 * 3);
}

TEST(EncoderTest, CompressionOnTextBeatsTenX) {
  // Text screen: white background with bicolor glyph-like rows.
  Framebuffer fb(640, 480, kWhite);
  Rng rng(9);
  for (int32_t row = 0; row < 30; ++row) {
    const int32_t y0 = row * 16;
    for (int32_t x = 8; x < 632; ++x) {
      for (int32_t y = y0 + 2; y < y0 + 12; ++y) {
        if (rng.NextBool(0.3)) {
          fb.PutPixel(x, y, kBlack);
        }
      }
    }
  }
  Encoder encoder;
  std::vector<DisplayCommand> cmds;
  encoder.EncodeRect(fb, fb.bounds(), &cmds);
  EncodeStats stats[6] = {};
  Encoder::Accumulate(cmds, stats);
  int64_t wire = 0;
  int64_t raw = 0;
  for (const auto& s : stats) {
    wire += s.wire_bytes;
    raw += s.uncompressed_bytes;
  }
  EXPECT_GT(raw, wire * 10) << "text should compress at least 10x (paper Figure 4)";
}

TEST(ScrollDetectTest, FindsPureVerticalScroll) {
  Rng rng(21);
  Framebuffer before(100, 200);
  before.SetPixels(Rect{0, 0, 100, 200}, MakePhotoBlock(&rng, 100, 200));
  Framebuffer after = before;
  after.CopyRect(0, 16, Rect{0, 0, 100, 184});  // scrolled up by 16
  // Fill the exposed strip with fresh content.
  after.Fill(Rect{0, 184, 100, 16}, kWhite);
  const int32_t dy = DetectVerticalScroll(before, after, Rect{0, 0, 100, 184}, 32);
  EXPECT_EQ(dy, -16);
}

TEST(ScrollDetectTest, NarrowRectNeverFalsePositives) {
  // Regression: the width guard was missing, so a sliver of vertically-uniform stripes
  // (every column constant) "scrolled" by any dy — the sparse probe grid collapsed its 16
  // probe columns onto a handful of duplicates that all matched, and the interior confirm
  // also passes on vertically-uniform content. A 4-wide rect must return no scroll.
  Framebuffer before(4, 64);
  for (int32_t x = 0; x < 4; ++x) {
    before.Fill(Rect{x, 0, 1, 64}, MakePixel(static_cast<uint8_t>(40 * x), 10, 200));
  }
  const Framebuffer after = before;  // nothing moved
  EXPECT_EQ(DetectVerticalScroll(before, after, before.bounds(), 8), 0);
  // Same for a narrow sub-rect of a wide framebuffer.
  Framebuffer wide_before(64, 64);
  for (int32_t x = 0; x < 64; ++x) {
    wide_before.Fill(Rect{x, 0, 1, 64}, MakePixel(static_cast<uint8_t>(4 * x), 0, 0));
  }
  const Framebuffer wide_after = wide_before;
  EXPECT_EQ(DetectVerticalScroll(wide_before, wide_after, Rect{10, 0, 5, 64}, 8), 0);
}

TEST(ScrollDetectTest, FindsScrollOnRectNarrowerThanProbeGrid) {
  // 12 columns < the 16-probe grid: the probe stride must clamp to distinct columns and
  // still find a genuine scroll.
  Rng rng(23);
  Framebuffer before(12, 120);
  before.SetPixels(before.bounds(), MakePhotoBlock(&rng, 12, 120));
  Framebuffer after = before;
  after.CopyRect(0, 5, Rect{0, 0, 12, 115});  // scrolled up by 5
  after.Fill(Rect{0, 115, 12, 5}, kWhite);
  EXPECT_EQ(DetectVerticalScroll(before, after, Rect{0, 0, 12, 115}, 16), -5);
}

TEST(EncoderTest, AccumulateAbortsOnInvalidCommandType) {
  // A command type outside the wire enum (e.g. decoded from a corrupted stream) must trip
  // the range check instead of indexing out of the 6-slot stats array.
  EncodeStats stats[6] = {};
  EXPECT_DEATH_IF_SUPPORTED(
      Encoder::AccumulateOne(static_cast<CommandType>(9), 16, 3, 1, stats), "check failed");
  EXPECT_DEATH_IF_SUPPORTED(
      Encoder::AccumulateOne(static_cast<CommandType>(0), 16, 3, 1, stats), "check failed");
  // Valid types land in their slot.
  Encoder::AccumulateOne(CommandType::kFill, 40, 300, 100, stats);
  EXPECT_EQ(stats[static_cast<size_t>(CommandType::kFill)].pixels, 100);
}

TEST(ScrollDetectTest, NoScrollReturnsZero) {
  Rng rng(22);
  Framebuffer before(64, 64);
  before.SetPixels(Rect{0, 0, 64, 64}, MakePhotoBlock(&rng, 64, 64));
  Framebuffer after(64, 64);
  after.SetPixels(Rect{0, 0, 64, 64}, MakePhotoBlock(&rng, 64, 64));
  EXPECT_EQ(DetectVerticalScroll(before, after, before.bounds(), 16), 0);
}

// The bitmap packer's final byte covers fewer than 8 pixels when the rect width is not a
// multiple of 8; the padding bits must not read past the row and the round-trip must be
// exact for every remainder width.
TEST(EncoderTest, BitmapRoundTripsAtNonByteAlignedWidths) {
  const Pixel bg = MakePixel(0, 0, 96);
  const Pixel fg = MakePixel(250, 250, 210);
  for (const int32_t w : {1, 7, 9, 13, 31}) {
    Framebuffer fb(40, 20, MakePixel(10, 20, 30));
    const Rect r{3, 2, w, 12};
    for (int32_t y = r.y; y < r.bottom(); ++y) {
      for (int32_t x = r.x; x < r.right(); ++x) {
        fb.PutPixel(x, y, ((x * 5 + y * 3) % 7 < 3) ? fg : bg);
      }
    }
    Encoder encoder;
    std::vector<DisplayCommand> out;
    encoder.EncodeRect(fb, r, &out);
    ASSERT_FALSE(out.empty()) << "w=" << w;
    Framebuffer replica(40, 20, MakePixel(10, 20, 30));
    bool saw_bitmap = false;
    for (const DisplayCommand& cmd : out) {
      saw_bitmap = saw_bitmap || TypeOf(cmd) == CommandType::kBitmap;
      ASSERT_TRUE(ValidateCommand(cmd)) << "w=" << w;
      ASSERT_TRUE(ApplyCommand(cmd, &replica)) << "w=" << w;
    }
    // Two colors over more than a handful of pixels: the encoder should have picked
    // BITMAP, not fallen back to SET (w=1 rects may legitimately become FILL slivers).
    if (w >= 7) {
      EXPECT_TRUE(saw_bitmap) << "w=" << w;
    }
    EXPECT_EQ(replica.ContentHash(), fb.ContentHash()) << "w=" << w;
  }
}

}  // namespace
}  // namespace slim
