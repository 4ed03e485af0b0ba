#include "src/codec/decoder.h"

#include <cstdint>
#include <limits>

#include "src/color/yuv.h"

namespace slim {
namespace {

// Whether a w x h block at (x, y) ends inside int32, so that Rect::right() and bottom()
// are defined. Coordinates come off the wire as raw I32s.
bool EndsFitInt32(int32_t x, int32_t y, int32_t w, int32_t h) {
  return int64_t{x} + w <= std::numeric_limits<int32_t>::max() &&
         int64_t{y} + h <= std::numeric_limits<int32_t>::max();
}

}  // namespace

bool ValidateCommand(const DisplayCommand& cmd) {
  return std::visit(
      [](const auto& c) -> bool {
        using T = std::decay_t<decltype(c)>;
        if (c.dst.empty() || !EndsFitInt32(c.dst.x, c.dst.y, c.dst.w, c.dst.h)) {
          return false;
        }
        if constexpr (std::is_same_v<T, SetCommand>) {
          return c.rgb.size() == static_cast<size_t>(c.dst.area()) * 3;
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          const size_t stride = (static_cast<size_t>(c.dst.w) + 7) / 8;
          return c.bits.size() == stride * static_cast<size_t>(c.dst.h);
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          return true;
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          return EndsFitInt32(c.src_x, c.src_y, c.dst.w, c.dst.h);
        } else {
          if (c.src_w <= 0 || c.src_h <= 0) {
            return false;
          }
          // Bilinear scaling only enlarges (the console has no decimation hardware).
          if (c.src_w > c.dst.w || c.src_h > c.dst.h) {
            return false;
          }
          return c.payload.size() == CscsPayloadBytes(c.src_w, c.src_h, c.depth);
        }
      },
      cmd);
}

bool ApplyCommand(const DisplayCommand& cmd, Framebuffer* fb) {
  if (fb == nullptr || !ValidateCommand(cmd)) {
    return false;
  }
  if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
    // ValidateCommand is framebuffer-agnostic, so the source rect can only be checked here:
    // a corrupted or malicious COPY must not read outside the framebuffer (the real
    // hardware's blitter would happily scoop up whatever memory sits past the edge).
    // ValidateCommand already bounded the source rect's ends, so this cannot overflow.
    const Rect src{copy->src_x, copy->src_y, copy->dst.w, copy->dst.h};
    if (!fb->bounds().ContainsRect(src)) {
      return false;
    }
  }
  std::visit(
      [fb](const auto& c) {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, SetCommand>) {
          fb->SetPixels(c.dst, UnpackRgb(c.rgb));
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          fb->ExpandBitmap(c.dst, c.bits, c.fg, c.bg);
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          fb->Fill(c.dst, c.color);
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          fb->CopyRect(c.src_x, c.src_y, c.dst);
        } else {
          const YuvImage image = UnpackCscsPayload(c.payload, c.src_w, c.src_h, c.depth);
          fb->SetPixels(c.dst, YuvToRgbScaled(image, c.dst.w, c.dst.h));
        }
      },
      cmd);
  return true;
}

}  // namespace slim
