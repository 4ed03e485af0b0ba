// The SLIM display protocol commands (paper Table 1).
//
//   SET    — literal pixel values of a rectangular region (packed 3-byte RGB on the wire)
//   BITMAP — expand a 1-bit bitmap with foreground/background colors (text windows)
//   FILL   — one pixel value across a rectangular region
//   COPY   — move a rectangular region of the frame buffer (scrolling, window moves)
//   CSCS   — color-space convert YUV to RGB with optional bilinear scaling (video, games)
//
// Commands are pure data: the codec module encodes framebuffer damage into them and applies
// them to framebuffers; this header only defines their shapes and wire sizes.

#ifndef SRC_PROTOCOL_COMMANDS_H_
#define SRC_PROTOCOL_COMMANDS_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "src/color/yuv.h"
#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"

namespace slim {

enum class CommandType : uint8_t {
  kSet = 1,
  kBitmap = 2,
  kFill = 3,
  kCopy = 4,
  kCscs = 5,
};

const char* CommandTypeName(CommandType type);

struct SetCommand {
  Rect dst;
  // Packed 3-byte RGB, row-major, exactly dst.w * dst.h * 3 bytes.
  std::vector<uint8_t> rgb;

  bool operator==(const SetCommand&) const = default;
};

struct BitmapCommand {
  Rect dst;
  Pixel fg = kWhite;
  Pixel bg = kBlack;
  // Rows padded to whole bytes: stride = (dst.w + 7) / 8, dst.h rows, MSB leftmost.
  std::vector<uint8_t> bits;

  bool operator==(const BitmapCommand&) const = default;
};

struct FillCommand {
  Rect dst;
  Pixel color = kBlack;

  bool operator==(const FillCommand&) const = default;
};

struct CopyCommand {
  int32_t src_x = 0;
  int32_t src_y = 0;
  Rect dst;

  bool operator==(const CopyCommand&) const = default;
};

struct CscsCommand {
  int32_t src_w = 0;  // YUV source dimensions; dst may be larger (bilinear upscale).
  int32_t src_h = 0;
  Rect dst;
  CscsDepth depth = CscsDepth::k16;
  std::vector<uint8_t> payload;  // PackCscsPayload(src_w, src_h, depth) bytes.

  bool operator==(const CscsCommand&) const = default;
};

using DisplayCommand =
    std::variant<SetCommand, BitmapCommand, FillCommand, CopyCommand, CscsCommand>;

CommandType TypeOf(const DisplayCommand& cmd);

// Destination rectangle (the pixels the command touches on screen).
Rect DestinationOf(const DisplayCommand& cmd);

// Number of destination pixels the command writes.
int64_t AffectedPixels(const DisplayCommand& cmd);

// Bytes this command occupies on the wire including the per-message header.
size_t WireSize(const DisplayCommand& cmd);

// Bytes the same update would need as raw packed 24-bit pixels (the "Raw Pixels" baseline
// of Figure 8): 3 bytes per affected pixel.
int64_t UncompressedBytes(const DisplayCommand& cmd);

// One row of a SET payload: packs pixels into 3 * pixels.size() bytes of R, G, B at rgb,
// and unpacks 3 * pixels.size() such bytes into pixels. The encoder packs straight from
// framebuffer rows and the console unpacks straight into them.
void PackSetRow(std::span<const Pixel> pixels, uint8_t* rgb);
void UnpackSetRow(const uint8_t* rgb, std::span<Pixel> pixels);

}  // namespace slim

#endif  // SRC_PROTOCOL_COMMANDS_H_
