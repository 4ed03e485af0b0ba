#include "src/video/video_source.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/check.h"

namespace slim {

SyntheticVideoSource::SyntheticVideoSource(int32_t width, int32_t height, uint64_t seed)
    : width_(width), height_(height), seed_(seed) {
  SLIM_CHECK(width > 0 && height > 0);
}

YuvImage SyntheticVideoSource::Frame(int index) const {
  YuvImage frame(width_, height_);
  Render(index, 0, 1, &frame);
  return frame;
}

YuvImage SyntheticVideoSource::Field(int index, bool odd) const {
  YuvImage field(width_, std::max(1, height_ / 2));
  // A 1-line source has no odd line; both fields show line 0.
  Render(index, std::min(height_ - 1, odd ? 1 : 0), 2, &field);
  return field;
}

void SyntheticVideoSource::Render(int index, int32_t first_line, int32_t line_step,
                                  YuvImage* out) const {
  // A slowly panning luminance field, two moving "objects", and per-frame grain. Everything
  // derives from (seed, index, x, y) so frames are reproducible and genuinely moving.
  const double t = index * 0.12;
  const double pan_x = 40.0 * std::sin(t * 0.35);
  const double pan_y = 24.0 * std::cos(t * 0.21);
  const double ox1 = width_ * (0.5 + 0.3 * std::sin(t));
  const double oy1 = height_ * (0.5 + 0.3 * std::cos(t * 1.3));
  const double ox2 = width_ * (0.5 + 0.35 * std::cos(t * 0.7));
  const double oy2 = height_ * (0.5 + 0.25 * std::sin(t * 0.9));
  // The background is 110 + (70 sin(gx)) cos(1.4 gy) for luma, a function of gx for u and
  // of gy for v: its column and line factors are evaluated once each.
  std::vector<double> col_luma(static_cast<size_t>(width_));
  std::vector<double> col_u(static_cast<size_t>(width_));
  for (int32_t x = 0; x < width_; ++x) {
    const double gx = (x + pan_x) * 0.02;
    col_luma[static_cast<size_t>(x)] = 70.0 * std::sin(gx);
    col_u[static_cast<size_t>(x)] = 128.0 + 30.0 * std::sin(gx * 0.5 + t);
  }
  // Squared radii just above the objects' (40 and 28 px): a pixel outside them is outside
  // the object, so hypot runs only near an object and the exact test stays hypot's.
  constexpr double kNear1 = 41.0 * 41.0;
  constexpr double kNear2 = 29.0 * 29.0;
  Rng grain(seed_ ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull));
  int32_t y = 0;  // next source line to draw grain for
  for (int32_t line = 0; line < out->height(); ++line) {
    // Lines the image leaves out still draw their grain, so every line sees the same
    // stream it does in the full frame.
    for (; y < first_line + line * line_step; ++y) {
      for (int32_t x = 0; x < width_; ++x) {
        grain.NextU64();
      }
    }
    const double gy = (y + pan_y) * 0.02;
    const double line_luma = std::cos(gy * 1.4);
    const double line_v = 128.0 + 30.0 * std::cos(gy * 0.5 - t);
    const double dy1 = y - oy1;
    const double dy2 = y - oy2;
    const size_t row = static_cast<size_t>(line) * width_;
    uint8_t* out_y = out->mutable_y_plane().data() + row;
    uint8_t* out_u = out->mutable_u_plane().data() + row;
    uint8_t* out_v = out->mutable_v_plane().data() + row;
    for (int32_t x = 0; x < width_; ++x) {
      double luma = 110.0 + col_luma[static_cast<size_t>(x)] * line_luma;
      double u = col_u[static_cast<size_t>(x)];
      double v = line_v;
      const double dx1 = x - ox1;
      if (dx1 * dx1 + dy1 * dy1 < kNear1) {
        const double d1 = std::hypot(dx1, dy1);
        if (d1 < 40.0) {
          luma = 220.0 - d1;
          u = 90.0;
          v = 170.0;
        }
      }
      const double dx2 = x - ox2;
      if (dx2 * dx2 + dy2 * dy2 < kNear2) {
        const double d2 = std::hypot(dx2, dy2);
        if (d2 < 28.0) {
          luma = 60.0 + d2;
          u = 170.0;
          v = 90.0;
        }
      }
      luma += (grain.NextDouble() - 0.5) * 10.0;
      out_y[x] = static_cast<uint8_t>(std::clamp(luma, 0.0, 255.0));
      out_u[x] = static_cast<uint8_t>(std::clamp(u, 0.0, 255.0));
      out_v[x] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
    ++y;
  }
}

SimDuration VideoCpuModel::MpegFrameCost(int64_t decode_pixels, int64_t sent_pixels) {
  return static_cast<SimDuration>(kMpegDecodeNsPerPixel * static_cast<double>(decode_pixels)) +
         static_cast<SimDuration>(kConvertNsPerPixel * static_cast<double>(sent_pixels));
}

SimDuration VideoCpuModel::JpegFieldCost(int64_t pixels) {
  return static_cast<SimDuration>((kJpegDecodeNsPerPixel + kConvertNsPerPixel) *
                                  static_cast<double>(pixels));
}

SimDuration VideoCpuModel::QuakeTranslateCost(int64_t pixels) {
  return static_cast<SimDuration>(kTranslateNsPerPixel * static_cast<double>(pixels));
}

SimDuration VideoCpuModel::SendCost(int64_t bytes) {
  return static_cast<SimDuration>(kSendNsPerByte * static_cast<double>(bytes));
}

}  // namespace slim
