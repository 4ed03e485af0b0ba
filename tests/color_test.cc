// Tests for RGB<->YUV conversion and the CSCS payload encodings.

#include <gtest/gtest.h>

#include <cmath>

#include "src/color/yuv.h"
#include "src/util/rng.h"
#include "tests/cscs_reference.h"

namespace slim {
namespace {

int ChannelError(Pixel a, Pixel b) {
  return std::max({std::abs(PixelR(a) - PixelR(b)), std::abs(PixelG(a) - PixelG(b)),
                   std::abs(PixelB(a) - PixelB(b))});
}

TEST(YuvTest, GrayAxisMapsToNeutralChroma) {
  for (int v = 0; v <= 255; v += 15) {
    const Yuv yuv = RgbToYuv(MakePixel(static_cast<uint8_t>(v), static_cast<uint8_t>(v),
                                       static_cast<uint8_t>(v)));
    EXPECT_NEAR(yuv.y, v, 1);
    EXPECT_NEAR(yuv.u, 128, 1);
    EXPECT_NEAR(yuv.v, 128, 1);
  }
}

TEST(YuvTest, PrimariesHaveExpectedLuma) {
  EXPECT_NEAR(RgbToYuv(MakePixel(255, 0, 0)).y, 76, 2);   // 0.299 * 255
  EXPECT_NEAR(RgbToYuv(MakePixel(0, 255, 0)).y, 150, 2);  // 0.587 * 255
  EXPECT_NEAR(RgbToYuv(MakePixel(0, 0, 255)).y, 29, 2);   // 0.114 * 255
}

TEST(YuvTest, RoundTripErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Pixel p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    const Pixel q = YuvToRgb(RgbToYuv(p));
    EXPECT_LE(ChannelError(p, q), 3) << std::hex << p;
  }
}

TEST(YuvTest, ToRgbMatchesDoubleFormulaExhaustively) {
  for (int y = 0; y < 256; ++y) {
    for (int u = 0; u < 256; ++u) {
      for (int v = 0; v < 256; ++v) {
        const Yuv yuv{static_cast<uint8_t>(y), static_cast<uint8_t>(u), static_cast<uint8_t>(v)};
        ASSERT_EQ(YuvToRgb(yuv), reference::YuvToRgb(yuv)) << y << "," << u << "," << v;
      }
    }
  }
}

TEST(CscsTest, PayloadBytesMatchDepthBudget) {
  // For block-aligned sizes the payload must be exactly depth/8 bytes per pixel.
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    const int32_t w = 64;
    const int32_t h = 32;
    const size_t expected =
        static_cast<size_t>(w) * h * static_cast<size_t>(BitsPerPixel(depth)) / 8;
    EXPECT_EQ(CscsPayloadBytes(w, h, depth), expected) << BitsPerPixel(depth);
  }
}

TEST(CscsTest, PackedSizeMatchesPredictedSize) {
  Rng rng(9);
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    for (const auto& [w, h] : {std::pair{17, 9}, std::pair{64, 48}, std::pair{3, 3}}) {
      YuvImage image(w, h);
      for (int32_t y = 0; y < h; ++y) {
        for (int32_t x = 0; x < w; ++x) {
          image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)),
                              static_cast<uint8_t>(rng.NextBelow(256)),
                              static_cast<uint8_t>(rng.NextBelow(256))});
        }
      }
      EXPECT_EQ(PackCscsPayload(image, depth).size(), CscsPayloadBytes(w, h, depth));
    }
  }
}

TEST(CscsTest, SixteenBitRoundTripPreservesLumaExactly) {
  Rng rng(11);
  YuvImage image(32, 16);
  for (int32_t y = 0; y < 16; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)), 128, 128});
    }
  }
  const auto payload = PackCscsPayload(image, CscsDepth::k16);
  const YuvImage back = reference::UnpackCscsPayload(payload, 32, 16, CscsDepth::k16);
  for (int32_t y = 0; y < 16; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      EXPECT_EQ(back.At(x, y).y, image.At(x, y).y);
    }
  }
}

TEST(CscsTest, UniformImageSurvivesEveryDepth) {
  YuvImage image(24, 24);
  const Yuv value = RgbToYuv(MakePixel(120, 64, 200));
  for (int32_t y = 0; y < 24; ++y) {
    for (int32_t x = 0; x < 24; ++x) {
      image.Set(x, y, value);
    }
  }
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    const YuvImage back =
        reference::UnpackCscsPayload(PackCscsPayload(image, depth), 24, 24, depth);
    const int tolerance = BitsPerPixel(depth) >= 12 ? 1 : 40;  // quantization widens error
    for (int32_t y = 0; y < 24; ++y) {
      for (int32_t x = 0; x < 24; ++x) {
        EXPECT_NEAR(back.At(x, y).y, value.y, tolerance);
        EXPECT_NEAR(back.At(x, y).u, value.u, tolerance);
        EXPECT_NEAR(back.At(x, y).v, value.v, tolerance);
      }
    }
  }
}

TEST(CscsTest, RoundTripErrorShrinksWithDepth) {
  // Aggregate luma error must be monotone in bit depth for natural content.
  Rng rng(13);
  YuvImage image(64, 64);
  for (int32_t y = 0; y < 64; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      // Smooth gradient plus noise, photograph-like.
      const auto base = static_cast<uint8_t>((x * 2 + y) & 0xff);
      image.Set(x, y, Yuv{base, static_cast<uint8_t>(96 + (x & 31)),
                          static_cast<uint8_t>(160 - (y & 31))});
    }
  }
  double previous_error = 1e18;
  for (const CscsDepth depth : {CscsDepth::k5, CscsDepth::k6, CscsDepth::k8, CscsDepth::k12,
                                CscsDepth::k16}) {
    const YuvImage back =
        reference::UnpackCscsPayload(PackCscsPayload(image, depth), 64, 64, depth);
    double err = 0;
    for (int32_t y = 0; y < 64; ++y) {
      for (int32_t x = 0; x < 64; ++x) {
        err += std::abs(back.At(x, y).y - image.At(x, y).y) +
               std::abs(back.At(x, y).u - image.At(x, y).u) +
               std::abs(back.At(x, y).v - image.At(x, y).v);
      }
    }
    EXPECT_LE(err, previous_error) << "depth " << BitsPerPixel(depth);
    previous_error = err;
  }
}

TEST(ScaleTest, IdentityScaleMatchesDirectConversion) {
  Rng rng(17);
  YuvImage image(20, 12);
  for (int32_t y = 0; y < 12; ++y) {
    for (int32_t x = 0; x < 20; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256))});
    }
  }
  const auto out = reference::YuvToRgbScaled(image, 20, 12);
  for (int32_t y = 0; y < 12; ++y) {
    for (int32_t x = 0; x < 20; ++x) {
      EXPECT_EQ(out[static_cast<size_t>(y) * 20 + x], YuvToRgb(image.At(x, y)));
    }
  }
}

TEST(ScaleTest, UpscaleOfUniformImageStaysUniform) {
  YuvImage image(8, 8);
  const Yuv value = RgbToYuv(MakePixel(40, 180, 90));
  for (int32_t y = 0; y < 8; ++y) {
    for (int32_t x = 0; x < 8; ++x) {
      image.Set(x, y, value);
    }
  }
  // The paper's 2x video upscale and more.
  const auto out = reference::YuvToRgbScaled(image, 32, 24);
  const Pixel expected = YuvToRgb(value);
  for (const Pixel p : out) {
    EXPECT_LE(ChannelError(p, expected), 1);
  }
}

TEST(ScaleTest, UpscaleInterpolatesBetweenExtremes) {
  YuvImage image(2, 1);
  image.Set(0, 0, Yuv{0, 128, 128});
  image.Set(1, 0, Yuv{255, 128, 128});
  const auto out = reference::YuvToRgbScaled(image, 8, 1);
  // Values must be monotone left to right.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(PixelR(out[i]), PixelR(out[i - 1]));
  }
  EXPECT_LT(PixelR(out[0]), 64);
  EXPECT_GT(PixelR(out[7]), 192);
}

// The decode's lerp for the quarter weights a 2x scale produces equals the double formula
// for every pair of 8-bit samples. A tap's fraction is below 1, so k runs 0..3.
TEST(ScaleTest, QuarterLerpMatchesDoubleFormulaExhaustively) {
  for (int k = 0; k < 4; ++k) {
    const double w1 = 0.25 * k;
    const double w0 = 1 - w1;
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        const auto expected = reference::ClampByte(static_cast<int>(std::lround(a * w0 + b * w1)));
        ASSERT_EQ(QuarterLerp(static_cast<uint8_t>(a), static_cast<uint8_t>(b), k), expected)
            << a << "," << b << " k " << k;
      }
    }
  }
}

constexpr CscsDepth kAllDepths[] = {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8,
                                    CscsDepth::k6, CscsDepth::k5};

YuvImage RandomImage(Rng* rng, int32_t w, int32_t h) {
  YuvImage image(w, h);
  for (auto plane : {image.mutable_y_plane(), image.mutable_u_plane(), image.mutable_v_plane()}) {
    for (uint8_t& s : plane) {
      s = static_cast<uint8_t>(rng->NextBelow(256));
    }
  }
  return image;
}

// Decodes a payload to a dw x dh dst in a framebuffer 4 pixels larger each way: inside it,
// across each edge, and at negative coordinates. The result must be exactly the reference
// pixels placed by SetPixels: the visible part of dst replaced, every other pixel untouched.
void ExpectDecodeMatches(std::span<const uint8_t> payload, int32_t w, int32_t h,
                         CscsDepth depth, int32_t dw, int32_t dh,
                         std::span<const Pixel> reference_pixels) {
  const int32_t fw = dw + 4;
  const int32_t fh = dh + 4;
  const Pixel untouched = MakePixel(1, 2, 3);
  for (const auto& [x, y] : {std::pair{2, 2}, std::pair{-3, 2}, std::pair{2, -3},
                             std::pair{7, 2}, std::pair{2, 7}, std::pair{-5, -6}}) {
    const Rect dst{x, y, dw, dh};
    Framebuffer expected(fw, fh, untouched);
    expected.SetPixels(dst, reference_pixels);
    Framebuffer fb(fw, fh, untouched);
    DecodeCscsPayload(payload, w, h, depth, dst, &fb);
    ASSERT_TRUE(std::ranges::equal(fb.data(), expected.data()))
        << "to " << dst.ToString() << " in " << fw << "x" << fh;
  }
}

// Pack, then decode into a framebuffer, against the per-bit / per-pixel reference: payload
// bytes and decoded pixels must be identical, for every depth, odd sizes (partial chroma
// blocks, payloads ending mid-byte), every scaler path and dst clipped on every side.
TEST(CscsTest, PipelineMatchesReferenceBitForBit) {
  Rng rng(23);
  for (const int32_t w : {1, 2, 3, 5, 8, 17, 33, 70}) {
    for (const int32_t h : {1, 2, 3, 7, 16, 49}) {
      const YuvImage image = RandomImage(&rng, w, h);
      for (const CscsDepth depth : kAllDepths) {
        SCOPED_TRACE(testing::Message() << w << "x" << h << " depth " << BitsPerPixel(depth));
        const std::vector<uint8_t> payload = PackCscsPayload(image, depth);
        ASSERT_EQ(payload, reference::PackCscsPayload(image, depth));
        const YuvImage back = reference::UnpackCscsPayload(payload, w, h, depth);
        // Unscaled, 2x, vertical-only 2x (NTSC fields), horizontal-only, 4x horizontal,
        // 4x by 3x and non-dyadic.
        for (const auto& [dw, dh] : {std::pair{w, h}, std::pair{2 * w, 2 * h},
                                    std::pair{w, 2 * h}, std::pair{2 * w, h},
                                    std::pair{4 * w, h}, std::pair{4 * w, 3 * h},
                                    std::pair{w * 5 / 3 + 1, h * 7 / 4 + 1}}) {
          ExpectDecodeMatches(payload, w, h, depth, dw, dh,
                              reference::YuvToRgbScaled(back, dw, dh));
        }
      }
    }
  }
}

// Bytes from outside (nonzero padding bits) decode as the reference reads them: the
// padding is skipped. A payload of any other size than the depth's is a checked
// precondition; ValidateCommand rejects it first (DecoderTest.RejectsCscsDownscaleAndBadPayload).
TEST(CscsTest, UnpackOfArbitraryBytesMatchesReference) {
  Rng rng(29);
  for (const CscsDepth depth : kAllDepths) {
    for (const auto& [w, h] : {std::pair{1, 1}, std::pair{7, 5}, std::pair{33, 7}}) {
      SCOPED_TRACE(testing::Message() << w << "x" << h << " depth " << BitsPerPixel(depth));
      std::vector<uint8_t> bytes(CscsPayloadBytes(w, h, depth));
      for (uint8_t& b : bytes) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
      const YuvImage back = reference::UnpackCscsPayload(bytes, w, h, depth);
      for (const auto& [dw, dh] : {std::pair{w, h}, std::pair{w, 2 * h}}) {
        ExpectDecodeMatches(bytes, w, h, depth, dw, dh, reference::YuvToRgbScaled(back, dw, dh));
      }
      bytes.pop_back();
      Framebuffer fb(w, h);
      EXPECT_DEATH_IF_SUPPORTED(DecodeCscsPayload(bytes, w, h, depth, fb.bounds(), &fb),
                                "check failed");
    }
  }
}

}  // namespace
}  // namespace slim
