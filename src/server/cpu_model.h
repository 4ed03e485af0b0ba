// Server-side processing cost model.
//
// Calibrated against a ~300 MHz UltraSPARC-II running the paper's modified X-server. These
// constants drive (a) the Table 4 stand-alone results — the x11perf-style figure of merit
// with and without wire transmission and the 550 us echo path — and (b) the Section 5.5
// claim that SLIM encoding adds only ~1.7% to the X-server's execution time.

#ifndef SRC_SERVER_CPU_MODEL_H_
#define SRC_SERVER_CPU_MODEL_H_

#include <cstdint>

#include "src/util/time.h"

namespace slim {

struct ServerCpuModel {
  // Request dispatch: protocol parsing, clipping, GC validation per drawing request.
  static constexpr SimDuration kPerRequest = Microseconds(12);
  // Software rasterization into the virtual framebuffer.
  static constexpr double kRenderNsPerPixel = 6.0;
  static constexpr double kRenderNsPerGlyph = 900.0;
  // Screen-to-screen copies move words without rasterizing: much cheaper per pixel.
  static constexpr double kCopyNsPerPixel = 1.5;
  // SLIM virtual device driver: damage analysis and command generation.
  static constexpr SimDuration kEncodePerCommand = Microseconds(3);
  static constexpr double kEncodeNsPerPixel = 1.2;
  // Network transmission CPU cost: a fixed per-send cost (socket call, header build,
  // driver handoff) plus a per-byte cost (copy + checksum). This is what x11perf loses when
  // display data actually goes out on the IF (3.834 vs 7.505 Xmarks).
  static constexpr SimDuration kPerSend = Microseconds(45);
  static constexpr double kWireNsPerByte = 70.0;

  static SimDuration RenderCost(int64_t pixels, int glyphs = 0) {
    return kPerRequest +
           static_cast<SimDuration>(kRenderNsPerPixel * static_cast<double>(pixels)) +
           static_cast<SimDuration>(kRenderNsPerGlyph * glyphs);
  }
  static SimDuration CopyCost(int64_t pixels) {
    return kPerRequest + static_cast<SimDuration>(kCopyNsPerPixel * static_cast<double>(pixels));
  }
  static SimDuration EncodeCost(int64_t pixels, int commands) {
    return kEncodePerCommand * commands +
           static_cast<SimDuration>(kEncodeNsPerPixel * static_cast<double>(pixels));
  }
  static SimDuration WireCost(int64_t bytes) {
    return kPerSend + static_cast<SimDuration>(kWireNsPerByte * static_cast<double>(bytes));
  }
};

}  // namespace slim

#endif  // SRC_SERVER_CPU_MODEL_H_
