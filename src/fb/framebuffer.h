// Software framebuffer.
//
// Pixels are stored as 32-bit 0x00RRGGBB words ("RGBX"), matching the Sun Ray 1's expansion
// of packed 24-bit protocol pixels into 4-byte frame buffer quantities. Both the server
// (persistent true state) and each console (soft state) own one Framebuffer, and equality of
// the two after a protocol exchange is the core correctness property of the whole system.

#ifndef SRC_FB_FRAMEBUFFER_H_
#define SRC_FB_FRAMEBUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fb/geometry.h"
#include "src/util/check.h"

namespace slim {

using Pixel = uint32_t;  // 0x00RRGGBB

constexpr Pixel MakePixel(uint8_t r, uint8_t g, uint8_t b) {
  return (static_cast<Pixel>(r) << 16) | (static_cast<Pixel>(g) << 8) | b;
}
constexpr uint8_t PixelR(Pixel p) { return static_cast<uint8_t>(p >> 16); }
constexpr uint8_t PixelG(Pixel p) { return static_cast<uint8_t>(p >> 8); }
constexpr uint8_t PixelB(Pixel p) { return static_cast<uint8_t>(p); }

constexpr Pixel kBlack = MakePixel(0, 0, 0);
constexpr Pixel kWhite = MakePixel(255, 255, 255);

class Framebuffer {
 public:
  Framebuffer(int32_t width, int32_t height, Pixel fill = kBlack);

  int32_t width() const { return width_; }
  int32_t height() const { return height_; }
  Rect bounds() const { return Rect{0, 0, width_, height_}; }

  Pixel GetPixel(int32_t x, int32_t y) const;
  void PutPixel(int32_t x, int32_t y, Pixel p);

  // Fills the intersection of r with the framebuffer.
  void Fill(const Rect& r, Pixel color);

  // Writes a w*h block of pixels (row-major, stride w) at r; clipped to bounds.
  void SetPixels(const Rect& r, std::span<const Pixel> pixels);

  // Expands a row-padded 1-bit bitmap: set bits become fg, clear bits bg. Bit rows are padded
  // to whole bytes (stride = (w+7)/8), bit 7 of each byte is the leftmost pixel; the padding
  // bits are never drawn. Clipped to bounds: a pixel outside is skipped with its bit.
  void ExpandBitmap(const Rect& r, std::span<const uint8_t> bits, Pixel fg, Pixel bg);

  // Copies the w*h block at (src_x, src_y) to dst, clipped to the framebuffer, as if the
  // whole block were read before any of it is written (overlap-safe). Source pixels
  // outside the framebuffer are treated as black. Rows move in place, one memmove each.
  void CopyRect(int32_t src_x, int32_t src_y, const Rect& dst);

  // Reads back a rectangle (clipped); out is resized to r.w * r.h with black outside bounds.
  void ReadPixels(const Rect& r, std::vector<Pixel>* out) const;

  std::span<const Pixel> data() const { return data_; }

  // Contiguous span of row y, optionally restricted to columns [x0, x0+w). Unlike
  // GetPixel, these do not clip: the requested span must lie inside the framebuffer.
  // They exist for the hot analysis loops (encoder scans, damage refinement, scroll
  // detection), which pay one bounds check per row instead of one per pixel and can
  // memcmp/auto-vectorize over the returned memory.
  std::span<const Pixel> Row(int32_t y) const {
    SLIM_DCHECK(y >= 0 && y < height_);
    return {data_.data() + static_cast<size_t>(y) * width_, static_cast<size_t>(width_)};
  }
  std::span<const Pixel> Row(int32_t y, int32_t x0, int32_t w) const {
    SLIM_DCHECK(y >= 0 && y < height_ && x0 >= 0 && w >= 0 && x0 + w <= width_);
    return {data_.data() + static_cast<size_t>(y) * width_ + x0, static_cast<size_t>(w)};
  }

  // Writable row span with the same no-clipping contract as Row(). For bulk row writers
  // that already hold a validated extent (the damage tracker's shadow sync memcpys fb
  // rows straight in); everything else should go through SetPixels/Fill, which clip.
  std::span<Pixel> MutableRow(int32_t y, int32_t x0, int32_t w) {
    SLIM_DCHECK(y >= 0 && y < height_ && x0 >= 0 && w >= 0 && x0 + w <= width_);
    return {data_.data() + static_cast<size_t>(y) * width_ + x0, static_cast<size_t>(w)};
  }

  // FNV-1a hash of the full contents; used by tests to compare server/console state.
  uint64_t ContentHash() const;

  // Exact per-pixel difference between two same-sized framebuffers, reported as a region of
  // 16x16-aligned tiles covering all differing pixels plus the exact differing pixel count.
  struct Diff {
    Region damage;
    int64_t differing_pixels = 0;
  };
  Diff DiffWith(const Framebuffer& other) const;

 private:
  int32_t width_;
  int32_t height_;
  std::vector<Pixel> data_;
};

}  // namespace slim

#endif  // SRC_FB_FRAMEBUFFER_H_
