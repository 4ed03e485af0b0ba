// Tests for the font, content generators and the four benchmark applications.

#include <gtest/gtest.h>

#include <set>

#include "src/apps/benchmark_apps.h"
#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "tests/photo_block_reference.h"

namespace slim {
namespace {

TEST(FontTest, GlyphsHaveUniformMetrics) {
  const Font& font = DefaultFont();
  for (int c = 0x20; c < 0x80; ++c) {
    const GlyphBitmap& glyph = font.Glyph(static_cast<char>(c));
    EXPECT_EQ(glyph.width, font.char_width());
    EXPECT_EQ(glyph.height, font.char_height());
    EXPECT_EQ(glyph.bits.size(),
              static_cast<size_t>((font.char_width() + 7) / 8) * font.char_height());
  }
}

TEST(FontTest, SpaceIsEmptyLettersAreNot) {
  const Font& font = DefaultFont();
  auto ink = [](const GlyphBitmap& g) {
    int bits = 0;
    for (const uint8_t byte : g.bits) {
      bits += __builtin_popcount(byte);
    }
    return bits;
  };
  EXPECT_EQ(ink(font.Glyph(' ')), 0);
  for (const char c : {'a', 'e', 'Z', '9', '!'}) {
    EXPECT_GT(ink(font.Glyph(c)), 0) << c;
  }
}

TEST(FontTest, GlyphsAreStableAndDistinct) {
  const Font a;
  const Font b;
  EXPECT_EQ(a.Glyph('q').bits, b.Glyph('q').bits);
  std::set<std::vector<uint8_t>> shapes;
  for (char c = 'a'; c <= 'z'; ++c) {
    shapes.insert(a.Glyph(c).bits);
  }
  EXPECT_GT(shapes.size(), 20u) << "letterforms should mostly differ";
}

TEST(FontTest, ControlCharactersFallBackSafely) {
  const Font& font = DefaultFont();
  EXPECT_EQ(font.Glyph('\n').bits, font.Glyph('?').bits);
  EXPECT_EQ(font.Glyph(static_cast<char>(0xff)).bits, font.Glyph('?').bits);
}

TEST(FontTest, ShapeReturnsGlyphPerCharacter) {
  const Font& font = DefaultFont();
  const auto glyphs = font.Shape("abc");
  ASSERT_EQ(glyphs.size(), 3u);
  EXPECT_EQ(glyphs[0], &font.Glyph('a'));
  EXPECT_EQ(font.TextWidth("abcd"), 4 * font.char_width());
}

TEST(ContentTest, PhotoBlockIsIncompressible) {
  Rng rng(1);
  const auto block = MakePhotoBlock(&rng, 64, 64);
  std::set<Pixel> distinct(block.begin(), block.end());
  EXPECT_GT(distinct.size(), block.size() / 4) << "photo content must have many colors";
}

TEST(ContentTest, ArtBlockHasSmallPalette) {
  Rng rng(2);
  const auto block = MakeArtBlock(&rng, 64, 64);
  std::set<Pixel> distinct(block.begin(), block.end());
  EXPECT_LE(distinct.size(), 6u);
}

TEST(ContentTest, TextLineRespectsLengthAndHasWords) {
  Rng rng(3);
  const std::string line = MakeTextLine(&rng, 40);
  EXPECT_LE(line.size(), 40u);
  EXPECT_NE(line.find(' '), std::string::npos);
}

TEST(ContentTest, GeneratorsAreDeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(MakePhotoBlock(&a, 32, 32), MakePhotoBlock(&b, 32, 32));
}

// MakePhotoBlock lerps once per row of lattice cells; it must equal the per-pixel
// original bit for bit and consume the same draws, for sizes below one 16-pixel cell,
// sizes that are not multiples of 16, and empty blocks.
TEST(ContentTest, PhotoBlockMatchesPerPixelReference) {
  const int32_t sizes[] = {0, 1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 50, 100};
  uint64_t seed = 11;
  for (const int32_t w : sizes) {
    for (const int32_t h : sizes) {
      Rng rng(seed);
      Rng oracle(seed);
      ++seed;
      ASSERT_EQ(MakePhotoBlock(&rng, w, h), reference::MakePhotoBlock(&oracle, w, h))
          << w << "x" << h;
      ASSERT_EQ(rng.NextU64(), oracle.NextU64()) << "rng position after " << w << "x" << h;
    }
  }
}

// Every application must start, accept a stream of arbitrary input, keep all drawing inside
// the framebuffer, and leave the attached console pixel-identical to the server.
class AppConformance : public ::testing::TestWithParam<int> {};

TEST_P(AppConformance, SurvivesInputStreamAndStaysConsistent) {
  const auto kind = static_cast<AppKind>(GetParam());
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(9);
  ServerSession& session = server.CreateSession(card);
  auto app = MakeApplication(kind, &session, 1234);
  EXPECT_EQ(app->kind(), kind);
  app->BindInput();
  console.InsertCard(server.node(), card);
  sim.Run();
  app->Start();
  sim.Run();
  EXPECT_GT(session.commands_sent(), 0);

  Rng rng(55);
  for (int i = 0; i < 120; ++i) {
    if (rng.NextBool(0.7)) {
      console.SendKey(server.node(), session.id(),
                      static_cast<uint32_t>(rng.NextBelow(997)), true);
    } else {
      console.SendMouse(server.node(), session.id(),
                        static_cast<int32_t>(rng.NextBelow(1280)),
                        static_cast<int32_t>(rng.NextBelow(1024)), 1, false);
    }
    sim.Run();
    ASSERT_EQ(session.framebuffer().ContentHash(), console.framebuffer().ContentHash())
        << AppKindName(kind) << " diverged at event " << i;
  }
  EXPECT_EQ(console.commands_dropped(), 0);
  EXPECT_EQ(console.commands_rejected(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppConformance, ::testing::Range(0, kAppKindCount),
                         [](const auto& info) {
                           return std::string(AppKindName(static_cast<AppKind>(info.param)));
                         });

TEST(AppKindTest, NamesAreStable) {
  EXPECT_STREQ(AppKindName(AppKind::kPhotoshop), "Photoshop");
  EXPECT_STREQ(AppKindName(AppKind::kNetscape), "Netscape");
  EXPECT_STREQ(AppKindName(AppKind::kFrameMaker), "FrameMaker");
  EXPECT_STREQ(AppKindName(AppKind::kPim), "PIM");
}

}  // namespace
}  // namespace slim
