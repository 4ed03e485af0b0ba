#include "src/protocol/commands.h"

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

Rect DestinationOf(const DisplayCommand& cmd) {
  return std::visit([](const auto& c) { return c.dst; }, cmd);
}

int64_t AffectedPixels(const DisplayCommand& cmd) { return DestinationOf(cmd).area(); }

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
