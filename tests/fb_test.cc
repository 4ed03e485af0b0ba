// Tests for rect/region algebra and the software framebuffer.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"
#include "src/util/rng.h"

namespace slim {
namespace {

TEST(RectTest, EmptyAndArea) {
  EXPECT_TRUE(Rect{}.empty());
  EXPECT_TRUE((Rect{0, 0, 5, 0}).empty());
  EXPECT_TRUE((Rect{0, 0, -1, 4}).empty());
  EXPECT_EQ((Rect{1, 2, 3, 4}).area(), 12);
}

TEST(RectTest, IntersectBasics) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 10, 10};
  EXPECT_EQ(Intersect(a, b), (Rect{5, 5, 5, 5}));
  EXPECT_TRUE(Intersect(a, Rect{20, 20, 5, 5}).empty());
  EXPECT_EQ(Intersect(a, a), a);
}

TEST(RectTest, ContainsPointAndRect) {
  const Rect r{2, 2, 4, 4};
  EXPECT_TRUE(r.Contains(Point{2, 2}));
  EXPECT_FALSE(r.Contains(Point{6, 6}));  // half-open
  EXPECT_TRUE(r.ContainsRect(Rect{3, 3, 2, 2}));
  EXPECT_FALSE(r.ContainsRect(Rect{3, 3, 4, 4}));
  EXPECT_TRUE(r.ContainsRect(Rect{}));  // empty contained anywhere
}

TEST(RectTest, BoundingUnion) {
  EXPECT_EQ(BoundingUnion(Rect{0, 0, 2, 2}, Rect{8, 8, 2, 2}), (Rect{0, 0, 10, 10}));
  EXPECT_EQ(BoundingUnion(Rect{}, Rect{1, 1, 2, 2}), (Rect{1, 1, 2, 2}));
  EXPECT_TRUE(BoundingUnion(Rect{}, Rect{}).empty());
}

TEST(SubtractRectTest, FragmentsAreDisjointAndCoverDifference) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const Rect a{static_cast<int32_t>(rng.NextBelow(20)),
                 static_cast<int32_t>(rng.NextBelow(20)),
                 1 + static_cast<int32_t>(rng.NextBelow(20)),
                 1 + static_cast<int32_t>(rng.NextBelow(20))};
    const Rect b{static_cast<int32_t>(rng.NextBelow(20)),
                 static_cast<int32_t>(rng.NextBelow(20)),
                 1 + static_cast<int32_t>(rng.NextBelow(20)),
                 1 + static_cast<int32_t>(rng.NextBelow(20))};
    std::vector<Rect> frags;
    SubtractRect(a, b, &frags);
    // Exact area accounting.
    int64_t frag_area = 0;
    for (const Rect& f : frags) {
      frag_area += f.area();
      EXPECT_TRUE(a.ContainsRect(f));
      EXPECT_TRUE(Intersect(f, b).empty());
    }
    EXPECT_EQ(frag_area, a.area() - Intersect(a, b).area());
    // Pairwise disjoint.
    for (size_t i = 0; i < frags.size(); ++i) {
      for (size_t j = i + 1; j < frags.size(); ++j) {
        EXPECT_TRUE(Intersect(frags[i], frags[j]).empty());
      }
    }
  }
}

TEST(RegionTest, AddOverlappingRectsCountsAreaOnce) {
  Region region;
  region.Add(Rect{0, 0, 10, 10});
  region.Add(Rect{5, 5, 10, 10});
  EXPECT_EQ(region.area(), 100 + 100 - 25);
  EXPECT_EQ(region.bounds(), (Rect{0, 0, 15, 15}));
}

TEST(RegionTest, AddDuplicateIsIdempotent) {
  Region region;
  region.Add(Rect{2, 2, 8, 8});
  region.Add(Rect{2, 2, 8, 8});
  EXPECT_EQ(region.area(), 64);
}

TEST(RegionTest, SubtractRemovesArea) {
  Region region(Rect{0, 0, 10, 10});
  region.Subtract(Rect{0, 0, 10, 5});
  EXPECT_EQ(region.area(), 50);
  EXPECT_FALSE(region.Contains(Point{5, 2}));
  EXPECT_TRUE(region.Contains(Point{5, 7}));
}

TEST(RegionTest, RandomizedAreaMatchesBitmapOracle) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    Region region;
    bool bitmap[40][40] = {};
    for (int ops = 0; ops < 12; ++ops) {
      const Rect r{static_cast<int32_t>(rng.NextBelow(28)),
                   static_cast<int32_t>(rng.NextBelow(28)),
                   1 + static_cast<int32_t>(rng.NextBelow(10)),
                   1 + static_cast<int32_t>(rng.NextBelow(10))};
      const bool subtract = rng.NextBool(0.3);
      if (subtract) {
        region.Subtract(r);
      } else {
        region.Add(r);
      }
      for (int32_t y = r.y; y < std::min<int32_t>(40, r.bottom()); ++y) {
        for (int32_t x = r.x; x < std::min<int32_t>(40, r.right()); ++x) {
          bitmap[y][x] = !subtract;
        }
      }
    }
    int64_t oracle_area = 0;
    for (int y = 0; y < 40; ++y) {
      for (int x = 0; x < 40; ++x) {
        if (bitmap[y][x]) {
          ++oracle_area;
          EXPECT_TRUE(region.Contains(Point{x, y})) << trial << " " << x << "," << y;
        } else {
          EXPECT_FALSE(region.Contains(Point{x, y})) << trial << " " << x << "," << y;
        }
      }
    }
    EXPECT_EQ(region.area(), oracle_area);
  }
}

TEST(RegionTest, CoalesceBoundsFragmentCount) {
  Region region;
  for (int i = 0; i < 100; ++i) {
    region.Add(Rect{i * 3, (i % 7) * 3, 2, 2});
  }
  const Rect bounds = region.bounds();
  region.Coalesce(16);
  EXPECT_LE(region.rects().size(), 16u);
  EXPECT_EQ(region.bounds(), bounds);
}

TEST(FramebufferTest, FillAndGet) {
  Framebuffer fb(64, 64);
  EXPECT_EQ(fb.GetPixel(10, 10), kBlack);
  fb.Fill(Rect{8, 8, 16, 16}, MakePixel(255, 0, 0));
  EXPECT_EQ(fb.GetPixel(8, 8), MakePixel(255, 0, 0));
  EXPECT_EQ(fb.GetPixel(23, 23), MakePixel(255, 0, 0));
  EXPECT_EQ(fb.GetPixel(24, 24), kBlack);
}

TEST(FramebufferTest, FillClipsToBounds) {
  Framebuffer fb(16, 16);
  fb.Fill(Rect{-10, -10, 100, 100}, kWhite);
  EXPECT_EQ(fb.GetPixel(0, 0), kWhite);
  EXPECT_EQ(fb.GetPixel(15, 15), kWhite);
}

TEST(FramebufferTest, OutOfBoundsAccessSafe) {
  Framebuffer fb(8, 8);
  EXPECT_EQ(fb.GetPixel(-1, 0), kBlack);
  EXPECT_EQ(fb.GetPixel(0, 100), kBlack);
  fb.PutPixel(-5, -5, kWhite);  // no crash
  fb.PutPixel(100, 100, kWhite);
}

TEST(FramebufferTest, SetPixelsRoundTripsThroughReadPixels) {
  Framebuffer fb(32, 32);
  Rng rng(5);
  std::vector<Pixel> block(8 * 8);
  for (Pixel& p : block) {
    p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
  }
  fb.SetPixels(Rect{4, 4, 8, 8}, block);
  std::vector<Pixel> readback;
  fb.ReadPixels(Rect{4, 4, 8, 8}, &readback);
  EXPECT_EQ(readback, block);
}

TEST(FramebufferTest, SetPixelsClipsButKeepsSourceAlignment) {
  Framebuffer fb(10, 10);
  std::vector<Pixel> block(4 * 4, MakePixel(1, 2, 3));
  block[0] = MakePixel(9, 9, 9);  // top-left, which falls outside
  fb.SetPixels(Rect{-2, -2, 4, 4}, block);
  // Only the bottom-right 2x2 of the block lands in bounds.
  EXPECT_EQ(fb.GetPixel(0, 0), MakePixel(1, 2, 3));
  EXPECT_EQ(fb.GetPixel(1, 1), MakePixel(1, 2, 3));
  EXPECT_EQ(fb.GetPixel(2, 2), kBlack);
}

TEST(FramebufferTest, ExpandBitmapSetsForegroundWhereBitsSet) {
  Framebuffer fb(16, 16);
  // 8x2 bitmap: 0b10110000 then 0b00000001.
  const std::vector<uint8_t> bits{0xb0, 0x01};
  fb.ExpandBitmap(Rect{0, 0, 8, 2}, bits, kWhite, MakePixel(10, 10, 10));
  EXPECT_EQ(fb.GetPixel(0, 0), kWhite);
  EXPECT_EQ(fb.GetPixel(1, 0), MakePixel(10, 10, 10));
  EXPECT_EQ(fb.GetPixel(2, 0), kWhite);
  EXPECT_EQ(fb.GetPixel(3, 0), kWhite);
  EXPECT_EQ(fb.GetPixel(7, 1), kWhite);
  EXPECT_EQ(fb.GetPixel(6, 1), MakePixel(10, 10, 10));
}

// Fill and ExpandBitmap against per-pixel references on random rects: clipped on every
// edge, negative origins, widths 0 to 257 (so a left clip starts the bits at every offset
// within a byte), fg == bg, and random padding bits in each row's last byte, which must
// not be drawn. Pixels outside the rect must not change.
TEST(FramebufferTest, FillAndExpandBitmapMatchPerPixelReference) {
  Rng rng(2424);
  const auto between = [&rng](int32_t lo, int32_t hi) {
    return static_cast<int32_t>(rng.NextInRange(lo, hi));
  };
  const auto random_pixel = [&rng] { return static_cast<Pixel>(rng.NextU64() & 0xffffff); };
  for (int trial = 0; trial < 4000; ++trial) {
    const int32_t w = between(1, 280);
    const int32_t h = between(1, 6);
    Framebuffer fb(w, h);
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        fb.PutPixel(x, y, random_pixel());
      }
    }
    const Rect r{between(-40, w), between(-3, h), between(0, 257), between(0, 5)};
    const Pixel fg = random_pixel();
    const Pixel bg = rng.NextBool(0.2) ? fg : random_pixel();
    Framebuffer expected = fb;
    const bool fill = rng.NextBool(0.3);
    if (fill) {
      fb.Fill(r, fg);
      for (int32_t y = r.y; y < r.bottom(); ++y) {
        for (int32_t x = r.x; x < r.right(); ++x) {
          expected.PutPixel(x, y, fg);
        }
      }
    } else {
      const size_t stride = (static_cast<size_t>(r.w) + 7) / 8;
      std::vector<uint8_t> bits(stride * static_cast<size_t>(r.h));
      for (uint8_t& b : bits) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      fb.ExpandBitmap(r, bits, fg, bg);
      for (int32_t y = 0; y < r.h; ++y) {
        for (int32_t x = 0; x < r.w; ++x) {
          const uint8_t byte = bits[static_cast<size_t>(y) * stride + static_cast<size_t>(x) / 8];
          expected.PutPixel(r.x + x, r.y + y, ((byte >> (7 - x % 8)) & 1) != 0 ? fg : bg);
        }
      }
    }
    ASSERT_TRUE(std::ranges::equal(fb.data(), expected.data()))
        << "trial " << trial << (fill ? " Fill " : " ExpandBitmap ") << r.ToString()
        << " in " << w << "x" << h;
  }
}

TEST(FramebufferTest, CopyRectNonOverlapping) {
  Framebuffer fb(32, 32);
  fb.Fill(Rect{0, 0, 4, 4}, MakePixel(200, 0, 0));
  fb.CopyRect(0, 0, Rect{10, 10, 4, 4});
  EXPECT_EQ(fb.GetPixel(10, 10), MakePixel(200, 0, 0));
  EXPECT_EQ(fb.GetPixel(13, 13), MakePixel(200, 0, 0));
  EXPECT_EQ(fb.GetPixel(0, 0), MakePixel(200, 0, 0));  // source untouched
}

TEST(FramebufferTest, CopyRectOverlappingBehavesAsSimultaneousMove) {
  Framebuffer fb(16, 1);
  for (int x = 0; x < 8; ++x) {
    fb.PutPixel(x, 0, MakePixel(static_cast<uint8_t>(x), 0, 0));
  }
  // Shift right by 2 with overlap.
  fb.CopyRect(0, 0, Rect{2, 0, 8, 1});
  for (int x = 0; x < 8; ++x) {
    EXPECT_EQ(fb.GetPixel(x + 2, 0), MakePixel(static_cast<uint8_t>(x), 0, 0)) << x;
  }
}

TEST(FramebufferTest, CopyFromOutsideBoundsReadsBlack) {
  Framebuffer fb(8, 8, kWhite);
  fb.CopyRect(-4, -4, Rect{0, 0, 4, 4});
  EXPECT_EQ(fb.GetPixel(0, 0), kBlack);
}

// CopyRect against a snapshot taken before the call: each destination pixel inside the
// frame takes the snapshot's pixel at its source position (black off the frame), and
// nothing else changes. The random cases cover vertical overlap in both directions,
// diagonal moves, and destinations and sources that hang partly off the frame.
TEST(FramebufferTest, CopyRectMatchesSnapshotReference) {
  Rng rng(4040);
  const auto between = [&rng](int32_t lo, int32_t hi) {
    return static_cast<int32_t>(rng.NextInRange(lo, hi));
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const int32_t w = between(1, 40);
    const int32_t h = between(1, 40);
    Framebuffer fb(w, h);
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        fb.PutPixel(x, y, static_cast<Pixel>(rng.NextU64() & 0xffffff));
      }
    }
    const Rect dst{between(-8, w), between(-8, h), between(1, w + 8), between(1, h + 8)};
    const int32_t src_x = dst.x + between(-12, 12);
    const int32_t src_y = dst.y + between(-12, 12);
    const Framebuffer before = fb;
    fb.CopyRect(src_x, src_y, dst);
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        const Pixel expected = dst.Contains(Point{x, y})
                                   ? before.GetPixel(src_x + (x - dst.x), src_y + (y - dst.y))
                                   : before.GetPixel(x, y);
        ASSERT_EQ(fb.GetPixel(x, y), expected)
            << "trial " << trial << " frame " << w << "x" << h << " dst " << dst.ToString()
            << " src (" << src_x << "," << src_y << ") at (" << x << "," << y << ")";
      }
    }
  }
}

TEST(FramebufferTest, ContentHashDetectsAnySinglePixelChange) {
  Framebuffer a(64, 64);
  Framebuffer b(64, 64);
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  b.PutPixel(63, 63, MakePixel(0, 0, 1));
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(FramebufferTest, DiffWithFindsExactDamage) {
  Framebuffer a(100, 60);
  Framebuffer b(100, 60);
  b.Fill(Rect{20, 10, 30, 20}, kWhite);
  const auto diff = a.DiffWith(b);
  EXPECT_EQ(diff.differing_pixels, 30 * 20);
  EXPECT_FALSE(diff.damage.empty());
  // Damage tiles must cover every differing pixel.
  for (int32_t y = 10; y < 30; ++y) {
    for (int32_t x = 20; x < 50; ++x) {
      EXPECT_TRUE(diff.damage.Contains(Point{x, y})) << x << "," << y;
    }
  }
}

TEST(FramebufferTest, DiffWithIdenticalIsEmpty) {
  Framebuffer a(64, 64);
  Framebuffer b(64, 64);
  const auto diff = a.DiffWith(b);
  EXPECT_TRUE(diff.damage.empty());
  EXPECT_EQ(diff.differing_pixels, 0);
}

TEST(FramebufferTest, DiffWithNonTileAlignedWidth) {
  Framebuffer a(50, 20);  // 50 is not a multiple of the 16-pixel tile
  Framebuffer b(50, 20);
  b.PutPixel(49, 19, kWhite);
  const auto diff = a.DiffWith(b);
  EXPECT_EQ(diff.differing_pixels, 1);
  EXPECT_TRUE(diff.damage.Contains(Point{49, 19}));
  EXPECT_LE(diff.damage.bounds().right(), 50);
}

}  // namespace
}  // namespace slim
