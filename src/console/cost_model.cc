#include "src/console/cost_model.h"

#include <cmath>

namespace slim {

double ConsoleCostModel::CscsPerPixelNs(CscsDepth depth) {
  switch (depth) {
    case CscsDepth::k16:
      return kCscsPerPixelNs16;
    case CscsDepth::k12:
      return kCscsPerPixelNs12;
    case CscsDepth::k8:
      return kCscsPerPixelNs8;
    case CscsDepth::k6:
      return kCscsPerPixelNs6;
    case CscsDepth::k5:
      return kCscsPerPixelNs5;
  }
  return kCscsPerPixelNs16;
}

SimDuration ConsoleCostModel::CostOf(const DisplayCommand& cmd) {
  const int64_t pixels = AffectedPixels(cmd);
  const CommandCost* cost = nullptr;
  double per_pixel = 0.0;
  SimDuration startup = 0;
  switch (TypeOf(cmd)) {
    case CommandType::kSet:
      cost = &kSet;
      break;
    case CommandType::kBitmap:
      cost = &kBitmap;
      break;
    case CommandType::kFill:
      cost = &kFill;
      break;
    case CommandType::kCopy:
      cost = &kCopy;
      break;
    case CommandType::kCscs: {
      const auto& cscs = std::get<CscsCommand>(cmd);
      startup = kCscsStartup;
      // The per-pixel cost is paid on the source pixels converted; when the console also
      // upscales, the scaling writes are folded into the same constant (the paper's
      // measurements were taken through the same path).
      per_pixel = CscsPerPixelNs(cscs.depth);
      const int64_t src_pixels = static_cast<int64_t>(cscs.src_w) * cscs.src_h;
      return kDispatchOverhead + startup +
             static_cast<SimDuration>(std::llround(per_pixel * static_cast<double>(src_pixels)));
    }
  }
  startup = cost->startup;
  per_pixel = cost->per_pixel_ns;
  return kDispatchOverhead + startup +
         static_cast<SimDuration>(std::llround(per_pixel * static_cast<double>(pixels)));
}

SimDuration ConsoleCostModel::StreamingCscsCost(const CscsCommand& cmd) {
  const int64_t src_pixels = static_cast<int64_t>(cmd.src_w) * cmd.src_h;
  const double per_pixel = CscsPerPixelNs(cmd.depth) * kCscsStreamingFactor;
  const auto startup =
      static_cast<SimDuration>(static_cast<double>(kCscsStartup) * kCscsStreamingStartupFactor);
  return kDispatchOverhead + startup +
         static_cast<SimDuration>(std::llround(per_pixel * static_cast<double>(src_pixels)));
}

}  // namespace slim
