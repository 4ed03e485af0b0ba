// The probe-grid vertical scroll detector, kept as a test oracle.
//
// This is the original detector the library's hash-indexed DetectVerticalScroll
// (src/codec/encoder.h) replaced: it tries every magnitude in [1, max_shift], smallest
// first and negative before positive, samples a sparse 16x16 probe grid, and confirms a
// grid match exhaustively. damage_tracker_test checks that the two detectors return the
// same dy on every input; this version is written for clarity, not speed.

#ifndef TESTS_SCROLL_PROBE_REFERENCE_H_
#define TESTS_SCROLL_PROBE_REFERENCE_H_

#include <algorithm>
#include <cstdint>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"

namespace slim::reference {

// after(x, y) == before(x, y - dy) over the rows [y0, y1) of columns [x0, x0 + w), with
// pixels outside a frame reading as black (GetPixel's clipping).
inline bool ShiftedRowsEqual(const Framebuffer& before, const Framebuffer& after,
                             int32_t dy, int32_t y0, int32_t y1, int32_t x0, int32_t w) {
  for (int32_t y = y0; y < y1; ++y) {
    for (int32_t x = x0; x < x0 + w; ++x) {
      if (after.GetPixel(x, y) != before.GetPixel(x, y - dy)) {
        return false;
      }
    }
  }
  return true;
}

inline int32_t DetectVerticalScrollProbe(const Framebuffer& before, const Framebuffer& after,
                                         const Rect& rect, int32_t max_shift) {
  const Rect r = Intersect(rect, after.bounds());
  if (r.empty() || r.h < 8 || r.w < 8) {
    return 0;
  }
  // Sample a sparse grid of probe points; a shift must explain all of them. The probe
  // count is clamped to the rect so integer-division positions never collapse onto
  // duplicate columns/rows.
  const int32_t probes_x = std::min<int32_t>(16, r.w);
  const int32_t probes_y = std::min<int32_t>(16, r.h);
  for (int32_t magnitude = 1; magnitude <= max_shift; ++magnitude) {
    for (const int32_t dy : {-magnitude, magnitude}) {
      int matches = 0;
      int probes = 0;
      for (int32_t py = 0; py < probes_y; ++py) {
        const int32_t y = r.y + static_cast<int64_t>(py) * r.h / probes_y;
        const int32_t sy = y - dy;
        if (sy < r.y || sy >= r.bottom()) {
          continue;
        }
        for (int32_t px = 0; px < probes_x; ++px) {
          const int32_t x = r.x + static_cast<int64_t>(px) * r.w / probes_x;
          ++probes;
          if (after.GetPixel(x, y) == before.GetPixel(x, sy)) {
            ++matches;
          }
        }
      }
      // Confirm exhaustively on the shifted interior before trusting the sparse probe.
      if (probes > 0 && matches == probes &&
          ShiftedRowsEqual(before, after, dy, std::max(r.y, r.y + dy),
                           std::min(r.bottom(), r.bottom() + dy), r.x, r.w)) {
        return dy;
      }
    }
  }
  return 0;
}

}  // namespace slim::reference

#endif  // TESTS_SCROLL_PROBE_REFERENCE_H_
