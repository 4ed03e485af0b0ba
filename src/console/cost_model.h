// Console protocol-processing cost model (paper Table 5).
//
// The Sun Ray 1's observable performance limit is the sustained rate at which it decodes
// protocol commands, characterized by the paper as a constant startup cost per command plus
// an incremental cost per pixel. Our Console is a real decoder, so the pixels are exact;
// this model supplies the simulated time each command consumes, using the paper's measured
// constants, so that saturation and service-time experiments reproduce the Sun Ray regime.

#ifndef SRC_CONSOLE_COST_MODEL_H_
#define SRC_CONSOLE_COST_MODEL_H_

#include "src/protocol/commands.h"
#include "src/util/time.h"

namespace slim {

struct CommandCost {
  SimDuration startup = 0;      // ns per command
  double per_pixel_ns = 0.0;    // ns per destination pixel
};

struct ConsoleCostModel {
  static constexpr CommandCost kSet{5000, 270.0};
  static constexpr CommandCost kBitmap{11080, 22.0};
  static constexpr CommandCost kFill{5000, 2.0};
  static constexpr CommandCost kCopy{5000, 10.0};
  // CSCS startup is shared; the per-pixel cost depends on bit depth (Table 5 lists 205/193/
  // 178/150 ns for 16/12/8/5 bpp; 6 bpp, used by the MPEG player, is interpolated).
  static constexpr SimDuration kCscsStartup = 24000;
  static constexpr double kCscsPerPixelNs16 = 205.0;
  static constexpr double kCscsPerPixelNs12 = 193.0;
  static constexpr double kCscsPerPixelNs8 = 178.0;
  static constexpr double kCscsPerPixelNs6 = 161.0;
  static constexpr double kCscsPerPixelNs5 = 150.0;

  // Sustained video streams repeatedly convert frames with identical geometry; the graphics
  // controller keeps its conversion/scaling state configured, so per-frame work shrinks to
  // this fraction of the cold Table 5 cost. Table 5's saturation microbenchmark measures the
  // cold path (commands with varying destinations); Section 7's achieved rates require the
  // warm path. See EXPERIMENTS.md for the reconciliation.
  static constexpr double kCscsStreamingFactor = 0.6;
  // Startup shrinks too: the controller is already configured.
  static constexpr double kCscsStreamingStartupFactor = 0.25;

  // Fixed cost of pulling a message off the network and dispatching it (not part of
  // Table 5's regression, folded into the startup numbers there; kept separate and small so
  // non-display messages also consume time).
  static constexpr SimDuration kDispatchOverhead = 1000;

  static double CscsPerPixelNs(CscsDepth depth);

  // Simulated decode time for a display command (cold path).
  static SimDuration CostOf(const DisplayCommand& cmd);

  // Decode time for a CSCS command whose geometry matches recently-processed stream state.
  static SimDuration StreamingCscsCost(const CscsCommand& cmd);
};

}  // namespace slim

#endif  // SRC_CONSOLE_COST_MODEL_H_
