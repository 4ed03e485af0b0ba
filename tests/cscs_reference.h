// Reference implementations of the CSCS video path, kept as test oracles.
//
// These are the straightforward per-bit / per-pixel definitions of the CSCS payload layout,
// the console's YUV->RGB conversion (double formula + lround), its bilinear scaler and the
// synthetic video source. The library's table-driven versions must reproduce them bit for
// bit (color_test, media_test); they are written for clarity, not speed.

#ifndef TESTS_CSCS_REFERENCE_H_
#define TESTS_CSCS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/color/yuv.h"
#include "src/util/rng.h"

namespace slim::reference {

// Exact equality of two images' sizes and planes.
inline bool SamePlanes(const YuvImage& a, const YuvImage& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::ranges::equal(a.y_plane(), b.y_plane()) &&
         std::ranges::equal(a.u_plane(), b.u_plane()) &&
         std::ranges::equal(a.v_plane(), b.v_plane());
}

inline uint8_t ClampByte(int v) { return static_cast<uint8_t>(std::clamp(v, 0, 255)); }

inline Pixel YuvToRgb(Yuv yuv) {
  const double y = yuv.y;
  const double u = yuv.u - 128.0;
  const double v = yuv.v - 128.0;
  const uint8_t r = ClampByte(static_cast<int>(std::lround(y + 1.402 * v)));
  const uint8_t g = ClampByte(static_cast<int>(std::lround(y - 0.344136 * u - 0.714136 * v)));
  const uint8_t b = ClampByte(static_cast<int>(std::lround(y + 1.772 * u)));
  return MakePixel(r, g, b);
}

inline uint8_t ExpandBits(uint32_t value, int bits) {
  uint32_t out = value << (8 - bits);
  int filled = bits;
  while (filled < 8) {
    out |= out >> filled;
    filled *= 2;
  }
  return static_cast<uint8_t>(out & 0xff);
}

struct DepthSpec {
  int y_bits;
  int c_bits;
  int c_sub_x;
  int c_sub_y;
};

inline DepthSpec SpecFor(CscsDepth depth) {
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
  return {8, 8, 1, 1};
}

class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Write(uint32_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      if (bit_pos_ == 0) {
        out_->push_back(0);
      }
      const uint8_t bit = (value >> i) & 1;
      out_->back() |= static_cast<uint8_t>(bit << (7 - bit_pos_));
      bit_pos_ = (bit_pos_ + 1) & 7;
    }
  }

  void AlignByte() { bit_pos_ = 0; }

 private:
  std::vector<uint8_t>* out_;
  int bit_pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  uint32_t Read(int bits) {
    uint32_t value = 0;
    for (int i = 0; i < bits; ++i) {
      uint8_t bit = 0;
      if (byte_pos_ < data_.size()) {
        bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1;
      }
      value = (value << 1) | bit;
      if (++bit_pos_ == 8) {
        bit_pos_ = 0;
        ++byte_pos_;
      }
    }
    return value;
  }

  void AlignByte() {
    if (bit_pos_ != 0) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
  }

 private:
  std::span<const uint8_t> data_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

inline std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int32_t w = image.width();
  const int32_t h = image.height();
  std::vector<uint8_t> out;
  BitWriter writer(&out);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      writer.Write(image.At(x, y).y >> (8 - spec.y_bits), spec.y_bits);
    }
  }
  writer.AlignByte();
  const int32_t cw = (w + spec.c_sub_x - 1) / spec.c_sub_x;
  const int32_t ch = (h + spec.c_sub_y - 1) / spec.c_sub_y;
  for (const bool is_u : {true, false}) {
    for (int32_t cy = 0; cy < ch; ++cy) {
      for (int32_t cx = 0; cx < cw; ++cx) {
        int sum = 0;
        int count = 0;
        for (int32_t dy = 0; dy < spec.c_sub_y; ++dy) {
          for (int32_t dx = 0; dx < spec.c_sub_x; ++dx) {
            const int32_t px = cx * spec.c_sub_x + dx;
            const int32_t py = cy * spec.c_sub_y + dy;
            if (px < w && py < h) {
              const Yuv s = image.At(px, py);
              sum += is_u ? s.u : s.v;
              ++count;
            }
          }
        }
        const int avg = count > 0 ? (sum + count / 2) / count : 128;
        writer.Write(static_cast<uint32_t>(avg) >> (8 - spec.c_bits), spec.c_bits);
      }
    }
    writer.AlignByte();
  }
  return out;
}

inline YuvImage UnpackCscsPayload(std::span<const uint8_t> payload, int32_t w, int32_t h,
                                  CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  YuvImage image(w, h);
  BitReader reader(payload);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      Yuv s = image.At(x, y);
      s.y = ExpandBits(reader.Read(spec.y_bits), spec.y_bits);
      image.Set(x, y, s);
    }
  }
  reader.AlignByte();
  const int32_t cw = (w + spec.c_sub_x - 1) / spec.c_sub_x;
  const int32_t ch = (h + spec.c_sub_y - 1) / spec.c_sub_y;
  for (const bool is_u : {true, false}) {
    for (int32_t cy = 0; cy < ch; ++cy) {
      for (int32_t cx = 0; cx < cw; ++cx) {
        const uint8_t value = ExpandBits(reader.Read(spec.c_bits), spec.c_bits);
        for (int32_t dy = 0; dy < spec.c_sub_y; ++dy) {
          for (int32_t dx = 0; dx < spec.c_sub_x; ++dx) {
            const int32_t px = cx * spec.c_sub_x + dx;
            const int32_t py = cy * spec.c_sub_y + dy;
            if (px < w && py < h) {
              Yuv s = image.At(px, py);
              if (is_u) {
                s.u = value;
              } else {
                s.v = value;
              }
              image.Set(px, py, s);
            }
          }
        }
      }
    }
    reader.AlignByte();
  }
  return image;
}

inline std::vector<Pixel> YuvToRgbScaled(const YuvImage& image, int32_t dst_w, int32_t dst_h) {
  std::vector<Pixel> out(static_cast<size_t>(dst_w) * dst_h);
  const int32_t sw = image.width();
  const int32_t sh = image.height();
  const double x_ratio = static_cast<double>(sw) / dst_w;
  const double y_ratio = static_cast<double>(sh) / dst_h;
  for (int32_t dy = 0; dy < dst_h; ++dy) {
    const double sy = std::max(0.0, (dy + 0.5) * y_ratio - 0.5);
    const int32_t y0 = std::min(static_cast<int32_t>(sy), sh - 1);
    const int32_t y1 = std::min(y0 + 1, sh - 1);
    const double fy = sy - y0;
    for (int32_t dx = 0; dx < dst_w; ++dx) {
      const double sx = std::max(0.0, (dx + 0.5) * x_ratio - 0.5);
      const int32_t x0 = std::min(static_cast<int32_t>(sx), sw - 1);
      const int32_t x1 = std::min(x0 + 1, sw - 1);
      const double fx = sx - x0;
      auto lerp = [&](auto get) {
        const double top = get(x0, y0) * (1 - fx) + get(x1, y0) * fx;
        const double bot = get(x0, y1) * (1 - fx) + get(x1, y1) * fx;
        return top * (1 - fy) + bot * fy;
      };
      Yuv s;
      s.y = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).y; }))));
      s.u = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).u; }))));
      s.v = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).v; }))));
      out[static_cast<size_t>(dy) * dst_w + dx] = reference::YuvToRgb(s);
    }
  }
  return out;
}

// SyntheticVideoSource::Frame / Field, evaluated pixel by pixel.
inline YuvImage SyntheticFrame(int32_t width, int32_t height, uint64_t seed, int index) {
  YuvImage frame(width, height);
  const double t = index * 0.12;
  const double pan_x = 40.0 * std::sin(t * 0.35);
  const double pan_y = 24.0 * std::cos(t * 0.21);
  const double ox1 = width * (0.5 + 0.3 * std::sin(t));
  const double oy1 = height * (0.5 + 0.3 * std::cos(t * 1.3));
  const double ox2 = width * (0.5 + 0.35 * std::cos(t * 0.7));
  const double oy2 = height * (0.5 + 0.25 * std::sin(t * 0.9));
  Rng grain(seed ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull));
  for (int32_t y = 0; y < height; ++y) {
    for (int32_t x = 0; x < width; ++x) {
      const double gx = (x + pan_x) * 0.02;
      const double gy = (y + pan_y) * 0.02;
      double luma = 110.0 + 70.0 * std::sin(gx) * std::cos(gy * 1.4);
      double u = 128.0 + 30.0 * std::sin(gx * 0.5 + t);
      double v = 128.0 + 30.0 * std::cos(gy * 0.5 - t);
      const double d1 = std::hypot(x - ox1, y - oy1);
      if (d1 < 40.0) {
        luma = 220.0 - d1;
        u = 90.0;
        v = 170.0;
      }
      const double d2 = std::hypot(x - ox2, y - oy2);
      if (d2 < 28.0) {
        luma = 60.0 + d2;
        u = 170.0;
        v = 90.0;
      }
      luma += (grain.NextDouble() - 0.5) * 10.0;
      frame.Set(x, y,
                Yuv{static_cast<uint8_t>(std::clamp(luma, 0.0, 255.0)),
                    static_cast<uint8_t>(std::clamp(u, 0.0, 255.0)),
                    static_cast<uint8_t>(std::clamp(v, 0.0, 255.0))});
    }
  }
  return frame;
}

inline YuvImage SyntheticField(int32_t width, int32_t height, uint64_t seed, int index,
                               bool odd) {
  const YuvImage full = SyntheticFrame(width, height, seed, index);
  YuvImage field(width, std::max(1, height / 2));
  for (int32_t y = 0; y < field.height(); ++y) {
    const int32_t src_y = std::min(height - 1, y * 2 + (odd ? 1 : 0));
    for (int32_t x = 0; x < width; ++x) {
      field.Set(x, y, full.At(x, src_y));
    }
  }
  return field;
}

}  // namespace slim::reference

#endif  // TESTS_CSCS_REFERENCE_H_
