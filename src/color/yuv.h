// Color-space conversion and the CSCS pixel encodings.
//
// The SLIM CSCS display command carries YUV data that the console converts back to RGB with
// optional bilinear upscaling (Section 2.2, Table 5). The Sun Ray 1 supports several bit
// depths; the paper measures 16, 12, 8 and 5 bits/pixel variants and the MPEG player uses a
// 6 bits/pixel mode. We realize those depths as planar YUV with chroma subsampling plus
// component quantization:
//
//   depth   luma       chroma               bits/pixel
//   16      Y8 / px    U8,V8 per 2x1 block  8 + 16/2  = 16     (4:2:2)
//   12      Y8 / px    U8,V8 per 2x2 block  8 + 16/4  = 12     (4:2:0)
//    8      Y6 / px    U4,V4 per 2x2 block  6 + 8/4   = 8      (4:2:0, quantized)
//    6      Y4 / px    U4,V4 per 2x2 block  4 + 8/4   = 6      (4:2:0, quantized)
//    5      Y4 / px    U2,V2 per 2x2 block  4 + 4/4   = 5      (4:2:0, quantized)
//
// Quantized components store the top bits of the 8-bit value and are expanded by bit
// replication on decode. RGB->YUV uses BT.601 studio-swing-free ("full range") constants
// in 20-bit fixed point; the single-pixel and bulk (FromPixels) paths share that one
// definition.

#ifndef SRC_COLOR_YUV_H_
#define SRC_COLOR_YUV_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fb/framebuffer.h"

namespace slim {

struct Yuv {
  uint8_t y = 0;
  uint8_t u = 128;
  uint8_t v = 128;
  bool operator==(const Yuv&) const = default;
};

Yuv RgbToYuv(Pixel rgb);

// RgbToYuv over n pixels, writing the three planes (FromPixels' row loop).
void RgbToYuvRow(const Pixel* rgb, size_t n, uint8_t* y, uint8_t* u, uint8_t* v);

// The console's conversion back to RGB: per channel, ClampByte(lround(y + k * (c - 128)))
// evaluated in double (R: 1.402 v; G: -0.344136 u - 0.714136 v; B: 1.772 u). Served from
// tables built by evaluating that formula, so the result is the formula's bit for bit.
Pixel YuvToRgb(Yuv yuv);

enum class CscsDepth : uint8_t {
  k16 = 16,
  k12 = 12,
  k8 = 8,
  k6 = 6,
  k5 = 5,
};

// Bits of payload per pixel for a depth (matches the enum value).
int BitsPerPixel(CscsDepth depth);

// A planar, full-resolution YUV image; the staging format between video sources / renderers
// and the CSCS encoder.
class YuvImage {
 public:
  YuvImage(int32_t width, int32_t height);

  int32_t width() const { return width_; }
  int32_t height() const { return height_; }

  Yuv At(int32_t x, int32_t y) const;
  void Set(int32_t x, int32_t y, Yuv value);

  // Converts an RGB block (row-major, w*h) into this image. Sizes must match.
  static YuvImage FromPixels(std::span<const Pixel> rgb, int32_t w, int32_t h);

  // Row-major planes, width() * height() samples each (chroma is stored at full resolution).
  std::span<const uint8_t> y_plane() const { return y_; }
  std::span<const uint8_t> u_plane() const { return u_; }
  std::span<const uint8_t> v_plane() const { return v_; }
  std::span<uint8_t> mutable_y_plane() { return y_; }
  std::span<uint8_t> mutable_u_plane() { return u_; }
  std::span<uint8_t> mutable_v_plane() { return v_; }

 private:
  int32_t width_;
  int32_t height_;
  std::vector<uint8_t> y_;
  std::vector<uint8_t> u_;
  std::vector<uint8_t> v_;
};

// Packs a YuvImage into the CSCS wire payload for a depth. Deterministic layout: the whole
// (possibly quantized) Y plane, then the subsampled U plane, then V, each byte-packed
// MSB-first and zero-padded to a whole byte.
std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth);

// Number of payload bytes PackCscsPayload produces for a w*h image at the given depth.
size_t CscsPayloadBytes(int32_t w, int32_t h, CscsDepth depth);

// The console's CSCS decode: unpacks a src_w x src_h payload, scales it bilinearly to dst
// and converts it to RGB straight into fb, clipped to fb's bounds as SetPixels clips. Every
// written pixel equals the double reference definition bit for bit: quantized components
// bit-replicated back to 8 bits, chroma replicated across its subsampling block, a
// bilinear lerp with lround per component, then YuvToRgb. Work and scratch memory are
// bounded by the payload and the visible part of dst. The payload must be exactly
// CscsPayloadBytes(src_w, src_h, depth) bytes (checked); ValidateCommand ensures the rest.
void DecodeCscsPayload(std::span<const uint8_t> payload, int32_t src_w, int32_t src_h,
                       CscsDepth depth, const Rect& dst, Framebuffer* fb);

// The scaler's lerp a * (1 - k/4) + b * k/4, rounded, for the quarter weights k in 0..3
// that 2x scaling produces. Those weights make the double lerp exact, so rounding it half
// up is rounding (4 - k) * a + k * b over 4 in integers.
constexpr uint8_t QuarterLerp(uint8_t a, uint8_t b, int k) {
  return static_cast<uint8_t>(((4 - k) * a + k * b + 2) >> 2);
}

}  // namespace slim

#endif  // SRC_COLOR_YUV_H_
