#include "src/protocol/commands.h"

#include "src/protocol/messages.h"

namespace slim {

const char* CommandTypeName(CommandType type) {
  switch (type) {
    case CommandType::kSet:
      return "SET";
    case CommandType::kBitmap:
      return "BITMAP";
    case CommandType::kFill:
      return "FILL";
    case CommandType::kCopy:
      return "COPY";
    case CommandType::kCscs:
      return "CSCS";
  }
  return "?";
}

CommandType TypeOf(const DisplayCommand& cmd) {
  return std::visit(
      [](const auto& c) -> CommandType {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, SetCommand>) {
          return CommandType::kSet;
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          return CommandType::kBitmap;
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          return CommandType::kFill;
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          return CommandType::kCopy;
        } else {
          return CommandType::kCscs;
        }
      },
      cmd);
}

Rect DestinationOf(const DisplayCommand& cmd) {
  return std::visit([](const auto& c) { return c.dst; }, cmd);
}

int64_t AffectedPixels(const DisplayCommand& cmd) { return DestinationOf(cmd).area(); }

namespace {

size_t PayloadSize(const DisplayCommand& cmd) {
  return std::visit(
      [](const auto& c) -> size_t {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, SetCommand>) {
          return 16 + c.rgb.size();
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          return 16 + 8 + c.bits.size();
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          return 16 + 4;
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          return 8 + 16;
        } else {
          return 8 + 16 + 1 + c.payload.size();
        }
      },
      cmd);
}

}  // namespace

size_t WireSize(const DisplayCommand& cmd) { return kMessageHeaderBytes + PayloadSize(cmd); }

int64_t UncompressedBytes(const DisplayCommand& cmd) { return AffectedPixels(cmd) * 3; }

void PackSetRow(std::span<const Pixel> pixels, uint8_t* rgb) {
  for (const Pixel p : pixels) {
    rgb[0] = PixelR(p);
    rgb[1] = PixelG(p);
    rgb[2] = PixelB(p);
    rgb += 3;
  }
}

void UnpackSetRow(const uint8_t* rgb, std::span<Pixel> pixels) {
  for (Pixel& p : pixels) {
    p = MakePixel(rgb[0], rgb[1], rgb[2]);
    rgb += 3;
  }
}

}  // namespace slim
