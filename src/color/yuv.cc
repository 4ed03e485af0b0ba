#include "src/color/yuv.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "src/codec/kernels/kernels.h"
#include "src/codec/kernels/kernels_internal.h"
#include "src/util/check.h"

namespace slim {

namespace {

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

struct DepthSpec {
  int y_bits;
  int c_bits;
  int c_sub_x;  // chroma subsample factor in x
  int c_sub_y;  // chroma subsample factor in y
};

DepthSpec SpecFor(CscsDepth depth) {
  switch (depth) {
    case CscsDepth::k16:
      return {8, 8, 2, 1};
    case CscsDepth::k12:
      return {8, 8, 2, 2};
    case CscsDepth::k8:
      return {6, 4, 2, 2};
    case CscsDepth::k6:
      return {4, 4, 2, 2};
    case CscsDepth::k5:
      return {4, 2, 2, 2};
  }
  SLIM_CHECK(false);
}

// MSB-first bit packer into a buffer sized by CscsPayloadBytes; stores 32 bits at a time.
class BitPacker {
 public:
  explicit BitPacker(std::span<uint8_t> out) : out_(out) {}

  // Appends the low `bits` (1..8) bits of value.
  void Put(uint32_t value, int bits) {
    acc_ = (acc_ << bits) | value;
    pending_ += bits;
    if (pending_ >= 32) {
      pending_ -= 32;
      const auto word = static_cast<uint32_t>(acc_ >> pending_);
      SLIM_DCHECK(pos_ + 4 <= out_.size());
      out_[pos_] = static_cast<uint8_t>(word >> 24);
      out_[pos_ + 1] = static_cast<uint8_t>(word >> 16);
      out_[pos_ + 2] = static_cast<uint8_t>(word >> 8);
      out_[pos_ + 3] = static_cast<uint8_t>(word);
      pos_ += 4;
    }
  }

  // Writes out the pending bits, zero-padding the last byte.
  void AlignByte() {
    if (pending_ % 8 != 0) {
      Put(0, 8 - pending_ % 8);
    }
    for (; pending_ > 0; pending_ -= 8) {
      SLIM_DCHECK(pos_ < out_.size());
      out_[pos_++] = static_cast<uint8_t>(acc_ >> (pending_ - 8));
    }
  }

  size_t size() const { return pos_; }

 private:
  std::span<uint8_t> out_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int pending_ = 0;  // bits in acc_ not yet stored
};

// MSB-first bit reader; bits past the end of the data read as zero.
class BitUnpacker {
 public:
  explicit BitUnpacker(std::span<const uint8_t> data) : data_(data) {}

  // Reads `bits` (1..8) bits.
  uint32_t Get(int bits) {
    if (pending_ < bits) {
      for (; pending_ <= 56; pending_ += 8, ++pos_) {
        acc_ = (acc_ << 8) | (pos_ < data_.size() ? data_[pos_] : 0);
      }
    }
    pending_ -= bits;
    return static_cast<uint32_t>(acc_ >> pending_) & ((1u << bits) - 1);
  }

  // Skips the rest of a partly read byte.
  void AlignByte() { pending_ -= pending_ % 8; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int pending_ = 0;  // bits loaded into acc_ and not yet read
};

// Averages each chroma block of a plane (only the pixels inside the image count) and packs
// the quantized averages row-major.
void PackChroma(std::span<const uint8_t> plane, int32_t w, int32_t h, const DepthSpec& spec,
                BitPacker* out) {
  for (int32_t y0 = 0; y0 < h; y0 += spec.c_sub_y) {
    const int32_t rows = std::min(spec.c_sub_y, h - y0);
    const uint8_t* block_row = plane.data() + static_cast<size_t>(y0) * w;
    for (int32_t x0 = 0; x0 < w; x0 += spec.c_sub_x) {
      const int32_t cols = std::min(spec.c_sub_x, w - x0);
      int sum = 0;
      for (int32_t dy = 0; dy < rows; ++dy) {
        for (int32_t dx = 0; dx < cols; ++dx) {
          sum += block_row[static_cast<size_t>(dy) * w + x0 + dx];
        }
      }
      const int count = rows * cols;
      const int avg = (sum + count / 2) / count;
      out->Put(static_cast<uint32_t>(avg) >> (8 - spec.c_bits), spec.c_bits);
    }
  }
  out->AlignByte();
}

// Unpacks a chroma plane: each sample fills its block's span of one row, and that row is
// copied down the rest of the block.
void UnpackChroma(BitUnpacker* in, int32_t w, int32_t h, const DepthSpec& spec,
                  std::span<uint8_t> plane) {
  const std::array<uint8_t, 256> expand = ExpandTable(spec.c_bits);
  for (int32_t y0 = 0; y0 < h; y0 += spec.c_sub_y) {
    uint8_t* row = plane.data() + static_cast<size_t>(y0) * w;
    for (int32_t x0 = 0; x0 < w; x0 += spec.c_sub_x) {
      const uint8_t value = expand[in->Get(spec.c_bits)];
      std::fill_n(row + x0, std::min(spec.c_sub_x, w - x0), value);
    }
    for (int32_t dy = 1; dy < spec.c_sub_y && y0 + dy < h; ++dy) {
      std::memcpy(row + static_cast<size_t>(dy) * w, row, static_cast<size_t>(w));
    }
  }
  in->AlignByte();
}

size_t PlaneBits(int64_t samples, int bits) { return static_cast<size_t>(samples) * bits; }

size_t BitsToBytes(size_t bits) { return (bits + 7) / 8; }

// Source taps and weights of one destination row or column of the bilinear scaler.
struct Tap {
  int32_t i0;
  int32_t i1;
  double w0;  // 1 - f
  double w1;  // f
};

std::vector<Tap> Taps(int32_t src, int32_t dst) {
  std::vector<Tap> taps(static_cast<size_t>(dst));
  const double ratio = static_cast<double>(src) / dst;
  for (int32_t d = 0; d < dst; ++d) {
    const double s = std::max(0.0, (d + 0.5) * ratio - 0.5);
    const int32_t i0 = std::min(static_cast<int32_t>(s), src - 1);
    const double f = s - i0;
    taps[static_cast<size_t>(d)] = Tap{i0, std::min(i0 + 1, src - 1), 1 - f, f};
  }
  return taps;
}

}  // namespace

Yuv RgbToYuv(Pixel rgb) {
  // Fixed-point BT.601 (20-bit coefficients, round-half-up) shared with the SIMD kernel
  // layer — the single-pixel and bulk conversions must agree bit-for-bit, and integer
  // arithmetic is what makes the per-tier vector implementations exactly reproducible.
  // Differs from the old double-based lround formula by at most 1 LSB on ~0.06% of the
  // 2^24 inputs (verified exhaustively).
  Yuv out;
  RgbToYuvScalarOne(rgb, &out.y, &out.u, &out.v);
  return out;
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
  // Row-span conversion straight into the planes through the dispatched kernel — no
  // per-pixel bounds-checked Set() calls; this loop is the whole CSCS encode cost for
  // video frames, so it gets the vector tier when the CPU has one.
  const KernelOps& kernels = Kernels();
  for (int32_t y = 0; y < h; ++y) {
    const size_t row = static_cast<size_t>(y) * w;
    kernels.rgb_to_yuv_row(rgb.data() + row, static_cast<size_t>(w),
                           image.y_.data() + row, image.u_.data() + row,
                           image.v_.data() + row);
  }
  return image;
}

size_t CscsPayloadBytes(int32_t w, int32_t h, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int64_t cw = (w + spec.c_sub_x - 1) / spec.c_sub_x;
  const int64_t ch = (h + spec.c_sub_y - 1) / spec.c_sub_y;
  const size_t y_bytes = BitsToBytes(PlaneBits(static_cast<int64_t>(w) * h, spec.y_bits));
  const size_t c_bytes = BitsToBytes(PlaneBits(cw * ch, spec.c_bits));
  return y_bytes + 2 * c_bytes;
}

std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int32_t w = image.width();
  const int32_t h = image.height();
  std::vector<uint8_t> out(CscsPayloadBytes(w, h, depth));
  BitPacker packer(out);
  // Y plane: quantize by keeping top bits.
  const int y_shift = 8 - spec.y_bits;
  for (const uint8_t y : image.y_plane()) {
    packer.Put(static_cast<uint32_t>(y) >> y_shift, spec.y_bits);
  }
  packer.AlignByte();
  PackChroma(image.u_plane(), w, h, spec, &packer);
  PackChroma(image.v_plane(), w, h, spec, &packer);
  SLIM_CHECK(packer.size() == out.size());
  return out;
}

YuvImage UnpackCscsPayload(std::span<const uint8_t> payload, int32_t w, int32_t h,
                           CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  YuvImage image(w, h);
  BitUnpacker unpacker(payload);
  const std::array<uint8_t, 256> expand_y = ExpandTable(spec.y_bits);
  for (uint8_t& y : image.mutable_y_plane()) {
    y = expand_y[unpacker.Get(spec.y_bits)];
  }
  unpacker.AlignByte();
  UnpackChroma(&unpacker, w, h, spec, image.mutable_u_plane());
  UnpackChroma(&unpacker, w, h, spec, image.mutable_v_plane());
  return image;
}

std::vector<Pixel> YuvToRgbScaled(const YuvImage& image, int32_t dst_w, int32_t dst_h) {
  SLIM_CHECK(dst_w > 0 && dst_h > 0);
  std::vector<Pixel> out(static_cast<size_t>(dst_w) * dst_h);
  const YuvToRgbTables& tables = Tables();
  const int32_t sw = image.width();
  const int32_t sh = image.height();
  const uint8_t* ys = image.y_plane().data();
  const uint8_t* us = image.u_plane().data();
  const uint8_t* vs = image.v_plane().data();
  Pixel* dst = out.data();
  if (sw == dst_w && sh == dst_h) {
    // Unscaled (MPEG): every tap has weights 1 and 0, so the lerp returns the source sample.
    for (size_t i = 0; i < out.size(); ++i) {
      dst[i] = tables.Convert(ys[i], us[i], vs[i]);
    }
    return out;
  }
  // The lerp of the definition, weights computed once per row and per column:
  //   top = s(x0, y0) * (1 - fx) + s(x1, y0) * fx
  //   bot = s(x0, y1) * (1 - fx) + s(x1, y1) * fx
  //   out = lround(top * (1 - fy) + bot * fy)
  const std::vector<Tap> rows = Taps(sh, dst_h);
  if (sw == dst_w) {
    // Vertical-only (NTSC fields): fx is 0 in every column, so top and bot are the samples.
    for (const Tap& ty : rows) {
      const size_t r0 = static_cast<size_t>(ty.i0) * sw;
      const size_t r1 = static_cast<size_t>(ty.i1) * sw;
      auto lerp = [&](const uint8_t* plane, int32_t x) {
        return RoundToByte(plane[r0 + x] * ty.w0 + plane[r1 + x] * ty.w1);
      };
      for (int32_t x = 0; x < dst_w; ++x) {
        *dst++ = tables.Convert(lerp(ys, x), lerp(us, x), lerp(vs, x));
      }
    }
    return out;
  }
  const std::vector<Tap> cols = Taps(sw, dst_w);
  for (const Tap& ty : rows) {
    const size_t r0 = static_cast<size_t>(ty.i0) * sw;
    const size_t r1 = static_cast<size_t>(ty.i1) * sw;
    for (const Tap& tx : cols) {
      auto lerp = [&](const uint8_t* plane) {
        const double top = plane[r0 + tx.i0] * tx.w0 + plane[r0 + tx.i1] * tx.w1;
        const double bot = plane[r1 + tx.i0] * tx.w0 + plane[r1 + tx.i1] * tx.w1;
        return RoundToByte(top * ty.w0 + bot * ty.w1);
      };
      *dst++ = tables.Convert(lerp(ys), lerp(us), lerp(vs));
    }
  }
  return out;
}

}  // namespace slim
