// Parity properties of the kernel layer (src/codec/kernels/): the SSE2 tier must be
// bit-identical to the scalar reference on every input — the invariant the whole
// dispatch design rests on (kernels.h). The fuzz matrix covers widths 0..257, unaligned
// row offsets (so vector loads straddle cache lines and nothing assumes 16-byte
// alignment), degenerate empty/1px spans, and adversarial content (uniform, bicolor,
// third-color planted at every interesting position, pure noise).
//
// The suite also proves the end-to-end consequence: the damage-tracker + encoder
// pipeline emits an IDENTICAL command stream under both tiers, so wire output does not
// depend on the build. ctest re-runs this binary with each tier forced
// (kernels_test_scalar / _sse2, through tests/forced_kernels.h), skipping when the build
// lacks the tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/codec/damage_tracker.h"
#include "src/codec/encoder.h"
#include "src/codec/kernels/kernels.h"
#include "src/color/yuv.h"
#include "src/util/rng.h"
#include "tests/forced_kernels.h"

namespace slim {
namespace {

// Scalar first, then SSE2 when this build has it.
std::vector<const KernelOps*> AllTiers() {
  std::vector<const KernelOps*> tiers{KernelsForTier(KernelTier::kScalar)};
  if (const KernelOps* sse2 = KernelsForTier(KernelTier::kSse2)) {
    tiers.push_back(sse2);
  }
  return tiers;
}

// The fuzz width sweep: every width in [0, 257] at several unaligned pixel offsets.
constexpr int32_t kMaxWidth = 257;
constexpr size_t kOffsets[] = {0, 1, 2, 3, 5, 7};

// A buffer with room for any width at any offset. Sized exactly so that a vector tail
// that over-reads past width+offset is an out-of-bounds access ASan can see.
std::vector<Pixel> RandomPixels(Rng* rng, size_t palette = 0) {
  std::vector<Pixel> data(kMaxWidth + 16);
  for (Pixel& p : data) {
    p = palette == 0 ? static_cast<Pixel>(rng->NextU64() & 0xffffff)
                     : static_cast<Pixel>(rng->NextBelow(palette) * 0x123457);
  }
  return data;
}

// The names the tier-forced ctest entries put in SLIM_KERNELS.
TEST(KernelsTest, TierNamesRoundTrip) {
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kSse2), "sse2");
}

TEST(KernelsTest, ScalarTierAlwaysAvailable) {
  ASSERT_NE(KernelsForTier(KernelTier::kScalar), nullptr);
  EXPECT_EQ(KernelsForTier(KernelTier::kScalar)->tier, KernelTier::kScalar);
}

// Dispatch is a compile-time choice: SSE2 is part of x86-64, so every build that targets
// it runs the SSE2 tier by default, with no runtime CPU probe.
TEST(KernelsTest, BestTierIsSse2WheneverTheBuildTargetsIt) {
#if defined(__SSE2__)
  EXPECT_EQ(BestSupportedTier(), KernelTier::kSse2);
  EXPECT_NE(KernelsForTier(KernelTier::kSse2), nullptr);
#else
  EXPECT_EQ(BestSupportedTier(), KernelTier::kScalar);
  EXPECT_EQ(KernelsForTier(KernelTier::kSse2), nullptr);
#endif
}

// When ctest forces a tier via SLIM_KERNELS, dispatch must have landed on it — that is
// what makes the tier-forced suite runs mean something. Skips (rather than fails) when
// the build lacks the requested tier.
TEST(KernelsTest, DispatchHonorsForcedTier) {
  const std::optional<KernelTier> tier = ForcedKernelTier();
  if (!tier.has_value()) {
    GTEST_SKIP() << "SLIM_KERNELS not set";
  }
  if (KernelsForTier(*tier) == nullptr) {
    GTEST_SKIP() << "this build lacks tier " << KernelTierName(*tier);
  }
  EXPECT_EQ(Kernels().tier, *tier);
}

TEST(KernelsTest, ScanColorsParityFuzz) {
  Rng rng(0xae02);
  const KernelOps* scalar = KernelsForTier(KernelTier::kScalar);
  for (int round = 0; round < 6; ++round) {
    // Rounds: uniform, bicolor x2, tricolor (early-exit), planted third color, noise.
    const size_t palette = round < 1 ? 1 : round < 3 ? 2 : round < 5 ? 3 : 0;
    std::vector<Pixel> data = RandomPixels(&rng, palette);
    if (round == 4) {
      // Adversarial: bicolor everywhere; a third color is planted per width below at
      // the start, middle, or end — the exact spots a vector early-exit can get wrong.
      for (Pixel& p : data) {
        p = (p & 1) ? 0x111111 : 0x222222;
      }
    }
    for (const size_t offset : kOffsets) {
      for (int32_t w = 0; w <= kMaxWidth; ++w) {
        std::vector<Pixel> row(data.begin() + offset, data.begin() + offset + w);
        if (round == 4 && w > 0) {
          row[rng.NextBelow(3) * static_cast<size_t>(w - 1) / 2] = 0x333333;
        }
        ColorScan want;
        scalar->scan_colors(row.data(), row.size(), &want);
        for (const KernelOps* ops : AllTiers()) {
          ColorScan got;
          ops->scan_colors(row.data(), row.size(), &got);
          ASSERT_EQ(got.distinct, want.distinct)
              << KernelTierName(ops->tier) << " w=" << w << " offset=" << offset;
          ASSERT_EQ(got.first, want.first) << KernelTierName(ops->tier) << " w=" << w;
          ASSERT_EQ(got.second, want.second) << KernelTierName(ops->tier) << " w=" << w;
        }
      }
    }
  }
}

// The encoder feeds one ColorScan across many rows; mid-state entry must match too.
TEST(KernelsTest, ScanColorsMultiRowContinuation) {
  Rng rng(0xae03);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<Pixel>> rows;
    for (int r = 0; r < 3; ++r) {
      std::vector<Pixel> src = RandomPixels(&rng, 1 + static_cast<size_t>(round % 4));
      src.resize(33 + static_cast<size_t>(round));
      rows.push_back(std::move(src));
    }
    ColorScan want;
    for (const auto& row : rows) {
      KernelsForTier(KernelTier::kScalar)->scan_colors(row.data(), row.size(), &want);
    }
    for (const KernelOps* ops : AllTiers()) {
      ColorScan got;
      for (const auto& row : rows) {
        ops->scan_colors(row.data(), row.size(), &got);
      }
      EXPECT_EQ(got.distinct, want.distinct) << KernelTierName(ops->tier);
      EXPECT_EQ(got.first, want.first) << KernelTierName(ops->tier);
      EXPECT_EQ(got.second, want.second) << KernelTierName(ops->tier);
    }
  }
}

TEST(KernelsTest, PackBitmapRowParityFuzz) {
  Rng rng(0xae04);
  const KernelOps* scalar = KernelsForTier(KernelTier::kScalar);
  const Pixel fg = 0xabcdef;
  for (int round = 0; round < 4; ++round) {
    std::vector<Pixel> data = RandomPixels(&rng, 2);
    for (Pixel& p : data) {
      p = (p & 1) ? fg : 0x000042;
    }
    for (const size_t offset : kOffsets) {
      for (int32_t w = 0; w <= kMaxWidth; ++w) {
        const size_t stride = (static_cast<size_t>(w) + 7) / 8;
        // Poison both outputs so unwritten bytes and stale trailing bits both surface.
        std::vector<uint8_t> want(stride + 2, 0xaa), got(stride + 2, 0x55);
        scalar->pack_bitmap_row(data.data() + offset, w, fg, want.data());
        for (const KernelOps* ops : AllTiers()) {
          std::fill(got.begin(), got.end(), 0x55);
          ops->pack_bitmap_row(data.data() + offset, w, fg, got.data());
          ASSERT_EQ(std::vector<uint8_t>(got.begin(), got.begin() + stride),
                    std::vector<uint8_t>(want.begin(), want.begin() + stride))
              << KernelTierName(ops->tier) << " w=" << w << " offset=" << offset;
          ASSERT_EQ(got[stride], 0x55)  // must not write past (n+7)/8 bytes
              << KernelTierName(ops->tier) << " w=" << w;
        }
      }
    }
  }
}

TEST(KernelsTest, RowDiffSpanParityFuzz) {
  Rng rng(0xae05);
  const KernelOps* scalar = KernelsForTier(KernelTier::kScalar);
  const std::vector<Pixel> base = RandomPixels(&rng);
  for (const size_t offset : kOffsets) {
    for (int32_t w = 1; w <= kMaxWidth; ++w) {
      for (int variant = 0; variant < 5; ++variant) {
        std::vector<Pixel> a(base.begin() + offset, base.begin() + offset + w);
        std::vector<Pixel> b = a;
        // Variants: identical, diff at first, diff at last, single random diff, two
        // random diffs (tests that lo/hi bracket, not just find-any).
        if (variant == 1) {
          b[0] ^= 0xffffff;
        } else if (variant == 2) {
          b[static_cast<size_t>(w) - 1] ^= 0xffffff;
        } else if (variant == 3) {
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
        } else if (variant == 4) {
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
        }
        int32_t want_lo = -1, want_hi = -1;
        const bool want =
            scalar->row_diff_span(a.data(), b.data(), a.size(), &want_lo, &want_hi);
        for (const KernelOps* ops : AllTiers()) {
          int32_t lo = -1, hi = -1;
          const bool changed =
              ops->row_diff_span(a.data(), b.data(), a.size(), &lo, &hi);
          ASSERT_EQ(changed, want)
              << KernelTierName(ops->tier) << " w=" << w << " variant=" << variant;
          if (want) {
            ASSERT_EQ(lo, want_lo) << KernelTierName(ops->tier) << " w=" << w;
            ASSERT_EQ(hi, want_hi) << KernelTierName(ops->tier) << " w=" << w;
          }
        }
      }
    }
  }
  // Degenerate: empty span is "no difference" on every tier.
  for (const KernelOps* ops : AllTiers()) {
    int32_t lo = 7, hi = 7;
    EXPECT_FALSE(ops->row_diff_span(base.data(), base.data() + 1, 0, &lo, &hi));
  }
}

// FromPixels' row conversion and the single-pixel RgbToYuv share one fixed-point
// definition; FromPixels must equal a per-pixel conversion exactly.
TEST(KernelsTest, FromPixelsMatchesSinglePixelConversion) {
  Rng rng(0xae07);
  const int32_t w = 61, h = 17;
  std::vector<Pixel> rgb(static_cast<size_t>(w) * h);
  for (Pixel& p : rgb) {
    p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
  }
  const YuvImage image = YuvImage::FromPixels(rgb, w, h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      const Yuv want = RgbToYuv(rgb[static_cast<size_t>(y) * w + x]);
      ASSERT_EQ(image.At(x, y), want) << "at " << x << "," << y;
    }
  }
}

// End-to-end: the damage-tracker + encoder pipeline transmits an IDENTICAL command
// stream under every kernel tier. Runs a scroll (COPY salvage), random damage, and
// text-like bicolor repaints through the full refine+encode path per tier.
TEST(KernelsTest, WireStreamIdenticalAcrossTiers) {
  const int32_t w = 200, h = 120;
  const auto run_pipeline = [&](const KernelOps* ops) {
    ScopedKernelsForTest forced(ops);
    Rng rng(0xfeed);
    Framebuffer fb(w, h);
    DamageTracker tracker(w, h);
    const Encoder encoder;
    std::vector<DisplayCommand> stream;
    // Frame 0: dense text-like repaint. Frame 1: scroll up 16px (COPY salvage path).
    // Frames 2..5: sparse mutations. All reported as full-frame damage so the tracker
    // does the refining.
    for (int frame = 0; frame < 6; ++frame) {
      if (frame == 1) {
        fb.CopyRect(0, 16, Rect{0, 0, w, h - 16});
      }
      const int mutations = frame == 0 ? 40 : 6;
      for (int m = 0; m < mutations; ++m) {
        const Pixel color = static_cast<Pixel>(rng.NextU64() & 0xffffff);
        const int32_t y0 = static_cast<int32_t>(rng.NextBelow(h));
        const int32_t x0 = static_cast<int32_t>(rng.NextBelow(w));
        for (int32_t x = x0; x < std::min<int32_t>(x0 + 40, w); ++x) {
          fb.PutPixel(x, y0, (x % 3) ? color : kBlack);
        }
      }
      std::vector<DisplayCommand> cmds;
      const Region residual =
          tracker.Refine(fb, Region(fb.bounds()), /*scroll_max_shift=*/32, &cmds);
      for (DisplayCommand& cmd : encoder.EncodeDamage(fb, residual)) {
        cmds.push_back(std::move(cmd));
      }
      for (DisplayCommand& cmd : cmds) {
        stream.push_back(std::move(cmd));
      }
    }
    return stream;
  };

  const auto tiers = AllTiers();
  const std::vector<DisplayCommand> want = run_pipeline(tiers[0]);
  EXPECT_FALSE(want.empty());
  for (size_t t = 1; t < tiers.size(); ++t) {
    const std::vector<DisplayCommand> got = run_pipeline(tiers[t]);
    ASSERT_EQ(got.size(), want.size()) << KernelTierName(tiers[t]->tier);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << KernelTierName(tiers[t]->tier) << " command " << i;
    }
  }
}

}  // namespace
}  // namespace slim
