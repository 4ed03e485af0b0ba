#include "src/color/yuv.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/util/check.h"

namespace slim {

namespace {

// RGB->YUV: BT.601 full-range coefficients scaled by 2^20, rounded half-up. The luma
// weights sum to exactly 2^20 (white -> 255 exactly) and the chroma weight pairs each sum
// to exactly 2^19 (gray -> 128 exactly). Y is always in [0, 255]; U/V can reach 256 at the
// saturated corners (e.g. pure blue: 128 + 0.5*255 = 255.5 rounds up), hence the min.
constexpr int32_t kYuvShift = 20;
constexpr int32_t kYuvHalf = 1 << (kYuvShift - 1);
constexpr int32_t kYuvBias = 128 << kYuvShift;
constexpr int32_t kYR = 313524, kYG = 615514, kYB = 119538;  // sum == 1 << 20
constexpr int32_t kUR = 176933, kUG = 347355, kUB = 524288;  // kUR + kUG == kUB
constexpr int32_t kVR = 524288, kVG = 439026, kVB = 85262;   // kVG + kVB == kVR

// The body of RgbToYuv, kept here so RgbToYuvRow inlines it rather than calling the
// exported function per pixel. Differs from the old double-based lround formula by at
// most 1 LSB on ~0.06% of the 2^24 inputs (verified exhaustively).
inline Yuv FixedPointRgbToYuv(Pixel rgb) {
  const int32_t r = PixelR(rgb);
  const int32_t g = PixelG(rgb);
  const int32_t b = PixelB(rgb);
  Yuv out;
  out.y = static_cast<uint8_t>((kYR * r + kYG * g + kYB * b + kYuvHalf) >> kYuvShift);
  out.u = static_cast<uint8_t>(
      std::min(255, (kYuvBias + kUB * b - kUR * r - kUG * g + kYuvHalf) >> kYuvShift));
  out.v = static_cast<uint8_t>(
      std::min(255, (kYuvBias + kVR * r - kVG * g - kVB * b + kYuvHalf) >> kYuvShift));
  return out;
}

uint8_t ClampByte(int v) { return static_cast<uint8_t>(std::clamp(v, 0, 255)); }

// ClampByte(lround(x)) without lround's branches: truncation plus a half-step test rounds
// half away from zero exactly for |x| < 2^31, and a negative x clamps to 0 either way.
uint8_t RoundToByte(double x) {
  const int i = static_cast<int>(x);
  return ClampByte(i + (x - i >= 0.5 ? 1 : 0));
}

// The console's YUV->RGB conversion is defined by the double formula in the constructor
// (lround of y + k * chroma, per channel). R and B depend on two components each and are
// tabulated whole; G keeps the formula's two products in tables and subtracts them in the
// formula's order, so every lookup returns exactly the formula's result.
struct YuvToRgbTables {
  YuvToRgbTables() {
    for (int c = 0; c < 256; ++c) {
      gu[c] = 0.344136 * (c - 128.0);
      gv[c] = 0.714136 * (c - 128.0);
    }
    for (int y = 0; y < 256; ++y) {
      for (int c = 0; c < 256; ++c) {
        r[y][c] = ClampByte(static_cast<int>(std::lround(y + 1.402 * (c - 128.0))));
        b[y][c] = ClampByte(static_cast<int>(std::lround(y + 1.772 * (c - 128.0))));
      }
    }
  }

  Pixel Convert(uint8_t y, uint8_t u, uint8_t v) const {
    return MakePixel(r[y][v], RoundToByte(y - gu[u] - gv[v]), b[y][u]);
  }

  uint8_t r[256][256];  // [y][v]
  uint8_t b[256][256];  // [y][u]
  double gu[256];
  double gv[256];
};

const YuvToRgbTables& Tables() {
  static const YuvToRgbTables tables;
  return tables;
}

// Expands the top `bits` bits of a component back to 8 bits by bit replication.
uint8_t ExpandBits(uint32_t value, int bits) {
  SLIM_DCHECK(bits >= 1 && bits <= 8);
  uint32_t out = value << (8 - bits);
  int filled = bits;
  while (filled < 8) {
    out |= out >> filled;
    filled *= 2;
  }
  return static_cast<uint8_t>(out & 0xff);
}

// ExpandBits(v, bits) for every v < 2^bits.
std::array<uint8_t, 256> ExpandTable(int bits) {
  std::array<uint8_t, 256> table{};
  for (uint32_t v = 0; v < (1u << bits); ++v) {
    table[v] = ExpandBits(v, bits);
  }
  return table;
}

// Every depth subsamples chroma 2x horizontally, and 1x (4:2:2) or 2x (4:2:0) vertically.
struct DepthSpec {
  int y_bits;
  int c_bits;
  int32_t c_sub_y;  // chroma subsample factor in y
};

DepthSpec SpecFor(CscsDepth depth) {
  switch (depth) {
    case CscsDepth::k16:
      return {8, 8, 1};
    case CscsDepth::k12:
      return {8, 8, 2};
    case CscsDepth::k8:
      return {6, 4, 2};
    case CscsDepth::k6:
      return {4, 4, 2};
    case CscsDepth::k5:
      return {4, 2, 2};
  }
  SLIM_CHECK(false);
}

int32_t ChromaWidth(int32_t w) { return (w + 1) / 2; }

int32_t ChromaHeight(int32_t h, const DepthSpec& spec) {
  return (h + spec.c_sub_y - 1) / spec.c_sub_y;
}

size_t PlaneBytes(size_t samples, int bits) { return (samples * bits + 7) / 8; }

// Packs the top `bits` bits of n samples MSB-first, in groups of whole bytes (two 4-bit,
// four 6-bit or four 2-bit samples), then the last partial group bit by bit with zero
// padding. Returns the end of the plane's bytes.
uint8_t* PackPlane(const uint8_t* in, size_t n, int bits, uint8_t* out) {
  size_t i = 0;
  switch (bits) {
    case 8:
      std::memcpy(out, in, n);
      return out + n;
    case 6:
      for (; i + 4 <= n; i += 4, out += 3) {
        const uint32_t group = (in[i] >> 2) << 18 | (in[i + 1] >> 2) << 12 |
                               (in[i + 2] >> 2) << 6 | in[i + 3] >> 2;
        out[0] = static_cast<uint8_t>(group >> 16);
        out[1] = static_cast<uint8_t>(group >> 8);
        out[2] = static_cast<uint8_t>(group);
      }
      break;
    case 4:
      for (; i + 2 <= n; i += 2) {
        *out++ = static_cast<uint8_t>((in[i] & 0xf0) | in[i + 1] >> 4);
      }
      break;
    case 2:
      for (; i + 4 <= n; i += 4) {
        *out++ = static_cast<uint8_t>((in[i] & 0xc0) | (in[i + 1] & 0xc0) >> 2 |
                                      (in[i + 2] & 0xc0) >> 4 | in[i + 3] >> 6);
      }
      break;
  }
  uint32_t acc = 0;
  int pending = 0;  // bits in acc not yet stored
  for (; i < n; ++i) {
    acc = (acc << bits) | (in[i] >> (8 - bits));
    pending += bits;
    if (pending >= 8) {
      pending -= 8;
      *out++ = static_cast<uint8_t>(acc >> pending);
    }
  }
  if (pending > 0) {
    *out++ = static_cast<uint8_t>(acc << (8 - pending));
  }
  return out;
}

// The inverse of PackPlane: n samples of `bits` bits, expanded to 8 bits by bit
// replication. Reads exactly PlaneBytes(n, bits) bytes, so the padding bits of the last
// byte are skipped whatever they hold; returns the end of them.
const uint8_t* UnpackPlane(const uint8_t* in, size_t n, int bits, uint8_t* out) {
  const std::array<uint8_t, 256> expand = ExpandTable(bits);
  size_t i = 0;
  switch (bits) {
    case 8:
      std::memcpy(out, in, n);
      return in + n;
    case 6:
      for (; i + 4 <= n; i += 4, in += 3) {
        const uint32_t group = uint32_t{in[0]} << 16 | uint32_t{in[1]} << 8 | in[2];
        out[i] = expand[group >> 18];
        out[i + 1] = expand[(group >> 12) & 0x3f];
        out[i + 2] = expand[(group >> 6) & 0x3f];
        out[i + 3] = expand[group & 0x3f];
      }
      break;
    case 4:
      for (; i + 2 <= n; i += 2) {
        const uint8_t byte = *in++;
        out[i] = expand[byte >> 4];
        out[i + 1] = expand[byte & 0x0f];
      }
      break;
    case 2:
      for (; i + 4 <= n; i += 4) {
        const uint8_t byte = *in++;
        out[i] = expand[byte >> 6];
        out[i + 1] = expand[(byte >> 4) & 3];
        out[i + 2] = expand[(byte >> 2) & 3];
        out[i + 3] = expand[byte & 3];
      }
      break;
  }
  uint32_t acc = 0;
  int pending = 0;  // bits loaded into acc and not yet read
  for (; i < n; ++i) {
    if (pending < bits) {
      acc = (acc << 8) | *in++;
      pending += 8;
    }
    pending -= bits;
    out[i] = expand[(acc >> pending) & ((1u << bits) - 1)];
  }
  return in;
}

// Averages each chroma block of a plane over the pixels inside the image, rounding half
// up, into ChromaWidth(w) x ChromaHeight(h) samples. A block holds 1, 2 or 4 pixels, so
// the division is a shift.
void AverageChroma(std::span<const uint8_t> plane, int32_t w, int32_t h, int32_t sub_y,
                   uint8_t* out) {
  for (int32_t y0 = 0; y0 < h; y0 += sub_y) {
    const uint8_t* r0 = plane.data() + static_cast<size_t>(y0) * w;
    int32_t x = 0;
    if (sub_y == 2 && y0 + 1 < h) {
      const uint8_t* r1 = r0 + w;
      for (; x + 2 <= w; x += 2) {
        *out++ = static_cast<uint8_t>((r0[x] + r0[x + 1] + r1[x] + r1[x + 1] + 2) >> 2);
      }
      if (x < w) {
        *out++ = static_cast<uint8_t>((r0[x] + r1[x] + 1) >> 1);
      }
    } else {
      for (; x + 2 <= w; x += 2) {
        *out++ = static_cast<uint8_t>((r0[x] + r0[x + 1] + 1) >> 1);
      }
      if (x < w) {
        *out++ = r0[x];
      }
    }
  }
}

// Source taps and weights of destination row or column d of the bilinear scaler.
struct Tap {
  int32_t i0;
  int32_t i1;
  double w0;  // 1 - f
  double w1;  // f
};

Tap TapAt(int32_t d, double ratio, int32_t src) {
  const double s = std::max(0.0, (d + 0.5) * ratio - 0.5);
  const int32_t i0 = std::min(static_cast<int32_t>(s), src - 1);
  const double f = s - i0;
  return Tap{i0, std::min(i0 + 1, src - 1), 1 - f, f};
}

// The k for which a tap's weights are exactly (1 - k/4, k/4), or -1.
int QuarterWeight(const Tap& t) {
  for (int k = 0; k < 4; ++k) {
    if (t.w1 == 0.25 * k && t.w0 == 1 - 0.25 * k) {
      return k;
    }
  }
  return -1;
}

// n samples lerped between rows a and b with a tap's weights: in integers when they are
// quarters (k >= 0), where that is exact, and by the double formula otherwise.
void LerpRow(const uint8_t* a, const uint8_t* b, int32_t n, const Tap& t, int k,
             uint8_t* out) {
  if (k >= 0) {
    // Blocks of 16 samples into a local first: with a fixed count and no possible
    // aliasing, the compiler vectorizes the block at -O2.
    int32_t i = 0;
    for (; i + 16 <= n; i += 16) {
      uint8_t block[16];
      for (int32_t j = 0; j < 16; ++j) {
        block[j] = QuarterLerp(a[i + j], b[i + j], k);
      }
      std::memcpy(out + i, block, sizeof(block));
    }
    for (; i < n; ++i) {
      out[i] = QuarterLerp(a[i], b[i], k);
    }
  } else {
    for (int32_t i = 0; i < n; ++i) {
      out[i] = RoundToByte(a[i] * t.w0 + b[i] * t.w1);
    }
  }
}

// Converts n pixels of one row, each pair sharing a chroma sample: pixel i reads luma y[i]
// and chroma u[c], v[c] with c = (i + odd) / 2, where odd says the row starts on the
// second pixel of a chroma block.
void ConvertRow(const YuvToRgbTables& tables, const uint8_t* y, const uint8_t* u,
                const uint8_t* v, bool odd, int32_t n, Pixel* out) {
  int32_t i = 0;
  if (odd) {
    out[i] = tables.Convert(y[i], *u++, *v++);
    ++i;
  }
  for (; i + 2 <= n; i += 2, ++u, ++v) {
    out[i] = tables.Convert(y[i], *u, *v);
    out[i + 1] = tables.Convert(y[i + 1], *u, *v);
  }
  if (i < n) {
    out[i] = tables.Convert(y[i], *u, *v);
  }
}

}  // namespace

Yuv RgbToYuv(Pixel rgb) { return FixedPointRgbToYuv(rgb); }

void RgbToYuvRow(const Pixel* rgb, size_t n, uint8_t* y, uint8_t* u, uint8_t* v) {
  for (size_t i = 0; i < n; ++i) {
    const Yuv yuv = FixedPointRgbToYuv(rgb[i]);
    y[i] = yuv.y;
    u[i] = yuv.u;
    v[i] = yuv.v;
  }
}

Pixel YuvToRgb(Yuv yuv) { return Tables().Convert(yuv.y, yuv.u, yuv.v); }

int BitsPerPixel(CscsDepth depth) { return static_cast<int>(depth); }

YuvImage::YuvImage(int32_t width, int32_t height) : width_(width), height_(height) {
  SLIM_CHECK(width > 0 && height > 0);
  const size_t n = static_cast<size_t>(width) * height;
  y_.assign(n, 0);
  u_.assign(n, 128);
  v_.assign(n, 128);
}

Yuv YuvImage::At(int32_t x, int32_t y) const {
  SLIM_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  const size_t i = static_cast<size_t>(y) * width_ + x;
  return Yuv{y_[i], u_[i], v_[i]};
}

void YuvImage::Set(int32_t x, int32_t y, Yuv value) {
  SLIM_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  const size_t i = static_cast<size_t>(y) * width_ + x;
  y_[i] = value.y;
  u_[i] = value.u;
  v_[i] = value.v;
}

YuvImage YuvImage::FromPixels(std::span<const Pixel> rgb, int32_t w, int32_t h) {
  SLIM_CHECK(rgb.size() >= static_cast<size_t>(w) * h);
  YuvImage image(w, h);
  // Row-span conversion straight into the planes, with no per-pixel bounds-checked
  // Set() calls.
  for (int32_t y = 0; y < h; ++y) {
    const size_t row = static_cast<size_t>(y) * w;
    RgbToYuvRow(rgb.data() + row, static_cast<size_t>(w), image.y_.data() + row,
                image.u_.data() + row, image.v_.data() + row);
  }
  return image;
}

size_t CscsPayloadBytes(int32_t w, int32_t h, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const size_t chroma = static_cast<size_t>(ChromaWidth(w)) * ChromaHeight(h, spec);
  return PlaneBytes(static_cast<size_t>(w) * h, spec.y_bits) +
         2 * PlaneBytes(chroma, spec.c_bits);
}

std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int32_t w = image.width();
  const int32_t h = image.height();
  std::vector<uint8_t> out(CscsPayloadBytes(w, h, depth));
  uint8_t* end = PackPlane(image.y_plane().data(), image.y_plane().size(), spec.y_bits,
                           out.data());
  const size_t chroma = static_cast<size_t>(ChromaWidth(w)) * ChromaHeight(h, spec);
  const auto averages = std::make_unique_for_overwrite<uint8_t[]>(chroma);
  for (const std::span<const uint8_t> plane : {image.u_plane(), image.v_plane()}) {
    AverageChroma(plane, w, h, spec.c_sub_y, averages.get());
    end = PackPlane(averages.get(), chroma, spec.c_bits, end);
  }
  SLIM_CHECK(end == out.data() + out.size());
  return out;
}

void DecodeCscsPayload(std::span<const uint8_t> payload, int32_t src_w, int32_t src_h,
                       CscsDepth depth, const Rect& dst, Framebuffer* fb) {
  SLIM_CHECK(src_w > 0 && src_h > 0 && !dst.empty());
  SLIM_CHECK(payload.size() == CscsPayloadBytes(src_w, src_h, depth));
  const Rect clip = Intersect(dst, fb->bounds());
  if (clip.empty()) {
    return;
  }
  const DepthSpec spec = SpecFor(depth);
  const int32_t cw = ChromaWidth(src_w);
  const size_t y_n = static_cast<size_t>(src_w) * src_h;
  const size_t c_n = static_cast<size_t>(cw) * ChromaHeight(src_h, spec);
  // The first visible column relative to dst, and the chroma columns the visible ones read.
  const int32_t x_first = clip.x - dst.x;
  const int32_t c_first = x_first / 2;
  const int32_t nc = (x_first + clip.w - 1) / 2 - c_first + 1;
  // Scratch, not zero-filled: the planes at their native resolution, then one
  // destination row's lerped luma and chroma. Its size is bounded by the payload and the
  // framebuffer, however large dst is.
  const auto scratch = std::make_unique_for_overwrite<uint8_t[]>(
      y_n + 2 * c_n + static_cast<size_t>(clip.w) + 2 * static_cast<size_t>(nc));
  uint8_t* const ys = scratch.get();
  uint8_t* const us = ys + y_n;
  uint8_t* const vs = us + c_n;
  uint8_t* const row_y = vs + c_n;
  uint8_t* const row_u = row_y + clip.w;
  uint8_t* const row_v = row_u + nc;
  const uint8_t* in = payload.data();
  in = UnpackPlane(in, y_n, spec.y_bits, ys);
  in = UnpackPlane(in, c_n, spec.c_bits, us);
  UnpackPlane(in, c_n, spec.c_bits, vs);

  // Pixel (x, y) of dst is the lerp of the definition, with chroma sampled at its block:
  //   top = s(x0, y0) * (1 - fx) + s(x1, y0) * fx
  //   bot = s(x0, y1) * (1 - fx) + s(x1, y1) * fx
  //   out = lround(top * (1 - fy) + bot * fy)
  const YuvToRgbTables& tables = Tables();
  const double y_ratio = static_cast<double>(src_h) / dst.h;
  if (src_w == dst.w) {
    // Columns map one to one (fx is 0), so top and bot are samples and each row is one
    // lerp of two source rows; chroma is lerped once per chroma sample.
    for (int32_t y = clip.y; y < clip.bottom(); ++y) {
      const Tap ty = TapAt(y - dst.y, y_ratio, src_h);
      const int k = QuarterWeight(ty);
      const size_t c_row0 = static_cast<size_t>(ty.i0 / spec.c_sub_y) * cw + c_first;
      const size_t c_row1 = static_cast<size_t>(ty.i1 / spec.c_sub_y) * cw + c_first;
      const uint8_t* y_row = ys + static_cast<size_t>(ty.i0) * src_w + x_first;
      const uint8_t* u_row = us + c_row0;
      const uint8_t* v_row = vs + c_row0;
      if (k != 0) {
        LerpRow(y_row, ys + static_cast<size_t>(ty.i1) * src_w + x_first, clip.w, ty, k,
                row_y);
        LerpRow(u_row, us + c_row1, nc, ty, k, row_u);
        LerpRow(v_row, vs + c_row1, nc, ty, k, row_v);
        y_row = row_y;
        u_row = row_u;
        v_row = row_v;
      }
      ConvertRow(tables, y_row, u_row, v_row, x_first % 2 != 0, clip.w,
                 fb->MutableRow(y, clip.x, clip.w).data());
    }
    return;
  }
  const double x_ratio = static_cast<double>(src_w) / dst.w;
  std::vector<Tap> cols;
  cols.reserve(static_cast<size_t>(clip.w));
  for (int32_t x = x_first; x < x_first + clip.w; ++x) {
    cols.push_back(TapAt(x, x_ratio, src_w));
  }
  for (int32_t y = clip.y; y < clip.bottom(); ++y) {
    const Tap ty = TapAt(y - dst.y, y_ratio, src_h);
    const uint8_t* y_row0 = ys + static_cast<size_t>(ty.i0) * src_w;
    const uint8_t* y_row1 = ys + static_cast<size_t>(ty.i1) * src_w;
    const size_t c_row0 = static_cast<size_t>(ty.i0 / spec.c_sub_y) * cw;
    const size_t c_row1 = static_cast<size_t>(ty.i1 / spec.c_sub_y) * cw;
    auto lerp = [&ty](const uint8_t* r0, const uint8_t* r1, int32_t i0, int32_t i1,
                      const Tap& tx) {
      const double top = r0[i0] * tx.w0 + r0[i1] * tx.w1;
      const double bot = r1[i0] * tx.w0 + r1[i1] * tx.w1;
      return RoundToByte(top * ty.w0 + bot * ty.w1);
    };
    Pixel* out = fb->MutableRow(y, clip.x, clip.w).data();
    for (const Tap& tx : cols) {
      const int32_t c_i0 = tx.i0 / 2;
      const int32_t c_i1 = tx.i1 / 2;
      *out++ = tables.Convert(lerp(y_row0, y_row1, tx.i0, tx.i1, tx),
                              lerp(us + c_row0, us + c_row1, c_i0, c_i1, tx),
                              lerp(vs + c_row0, vs + c_row1, c_i0, c_i1, tx));
    }
  }
}

}  // namespace slim
