#include "src/codec/damage_tracker.h"

#include <algorithm>
#include <cstring>

#include "src/codec/encoder.h"
#include "src/codec/kernels/kernels.h"
#include "src/util/check.h"

namespace slim {
namespace {

// A run of consecutive dirty rows and the union of their changed column extents.
struct DirtyRun {
  int32_t y0 = 0;
  int32_t y1 = 0;  // exclusive
  int32_t x_lo = 0;
  int32_t x_hi = 0;  // exclusive
};

// Bounding encoder work per damage rect: beyond this many dirty runs the refinement is
// fragmentation, not savings, and one rect covering the dirty rows encodes faster than
// dozens of slivers (the encoder's own band/chunk analysis re-finds the structure).
constexpr size_t kMaxRunsPerRect = 48;

// Scroll salvage is only worth the detector pass on damage that plausibly IS a scroll:
// a block at least this tall/wide with at least this many rows actually changed.
constexpr int32_t kScrollMinWidth = 8;
constexpr int32_t kScrollMinHeight = 16;
constexpr int32_t kScrollMinDirtyRows = 8;

}  // namespace

DamageTracker::DamageTracker(int32_t width, int32_t height) : shadow_(width, height) {}

void DamageTracker::SyncRect(const Framebuffer& fb, const Rect& rect) {
  SLIM_DCHECK(fb.width() == shadow_.width() && fb.height() == shadow_.height());
  const Rect r = Intersect(rect, shadow_.bounds());
  for (int32_t y = r.y; y < r.bottom(); ++y) {
    std::memcpy(shadow_.MutableRow(y, r.x, r.w).data(), fb.Row(y, r.x, r.w).data(),
                static_cast<size_t>(r.w) * sizeof(Pixel));
  }
}

Region DamageTracker::Refine(const Framebuffer& fb, const Region& damage,
                             int32_t scroll_max_shift,
                             std::vector<DisplayCommand>* scroll_out) {
  SLIM_DCHECK(fb.width() == shadow_.width() && fb.height() == shadow_.height());
  if (damage.empty()) {
    return Region{};
  }

  if (!valid_) {
    // The shadow can't be trusted (fresh console, loss-recovery resync): pass the damage
    // through unrefined while absorbing it, and revalidate once a full-frame flush has
    // passed. Disjoint damage rects covering the full area cover every pixel.
    for (const Rect& r : damage.rects()) {
      SLIM_DCHECK(shadow_.bounds().ContainsRect(r));
      SyncRect(fb, r);
    }
    if (damage.area() == shadow_.bounds().area()) {
      valid_ = true;
    }
    return damage;
  }

  // Scroll salvage: when the damage block looks like the shadow shifted vertically
  // (hint-less scrolls arrive as "the whole window changed"), ship the shift as one COPY
  // and let refinement handle only the residual. Correctness never depends on the
  // detector: whatever still differs after the copy is caught below.
  if (scroll_out != nullptr && scroll_max_shift > 0) {
    const Rect b = damage.bounds();
    if (b.w >= kScrollMinWidth && b.h >= kScrollMinHeight) {
      // fb equals the shadow outside pending damage (every direct FILL/COPY/CSCS path
      // syncs the shadow at once), so a row differs anywhere iff it differs within the
      // bounds' columns.
      const size_t row_bytes = static_cast<size_t>(b.w) * sizeof(Pixel);
      int32_t dirty_rows = 0;
      for (int32_t y = b.y; y < b.bottom() && dirty_rows < kScrollMinDirtyRows; ++y) {
        if (std::memcmp(fb.Row(y, b.x, b.w).data(), shadow_.Row(y, b.x, b.w).data(),
                        row_bytes) != 0) {
          ++dirty_rows;
        }
      }
      if (dirty_rows >= kScrollMinDirtyRows) {
        const int32_t dy = DetectVerticalScroll(shadow_, fb, b, scroll_max_shift);
        if (dy != 0) {
          const int32_t y0 = std::max(b.y, b.y + dy);
          const int32_t y1 = std::min(b.bottom(), b.bottom() + dy);
          scroll_out->push_back(CopyCommand{b.x, y0 - dy, Rect{b.x, y0, b.w, y1 - y0}});
          // The console will apply the COPY to its framebuffer, which matches the shadow;
          // mirror it so refinement diffs against the post-copy display state. The
          // detector confirmed fb == shifted shadow over the overlap's rect columns, so
          // copying fb's rows IS applying the COPY — and spares rereading the shadow.
          SyncRect(fb, Rect{b.x, y0, b.w, y1 - y0});
        }
      }
    }
  }

  const KernelOps& kernels = Kernels();
  Region refined;
  for (const Rect& r : damage.rects()) {
    SLIM_DCHECK(shadow_.bounds().ContainsRect(r));
    std::vector<DirtyRun> runs;
    bool collapsed = false;
    for (int32_t y = r.y; y < r.bottom(); ++y) {
      const std::span<const Pixel> cur = fb.Row(y, r.x, r.w);
      const std::span<Pixel> old = shadow_.MutableRow(y, r.x, r.w);
      // Tight changed extent — first and last differing pixel in the rect's columns —
      // in one kernel pass instead of a memcmp plus two scalar scans.
      int32_t lo = 0;
      int32_t hi = r.w;  // exclusive
      if (!kernels.row_diff_span(cur.data(), old.data(), cur.size(), &lo, &hi)) {
        continue;
      }
      // Bring the shadow up to date for this row's changed span before moving on.
      std::memcpy(old.data() + lo, cur.data() + lo,
                  static_cast<size_t>(hi - lo) * sizeof(Pixel));

      if (!runs.empty() && runs.back().y1 == y) {
        DirtyRun& run = runs.back();
        run.y1 = y + 1;
        run.x_lo = std::min(run.x_lo, r.x + lo);
        run.x_hi = std::max(run.x_hi, r.x + hi);
      } else if (!collapsed && runs.size() >= kMaxRunsPerRect) {
        collapsed = true;
        runs.push_back(DirtyRun{y, y + 1, r.x + lo, r.x + hi});
      } else if (collapsed) {
        DirtyRun& run = runs.back();
        run.y1 = y + 1;
        run.x_lo = std::min(run.x_lo, r.x + lo);
        run.x_hi = std::max(run.x_hi, r.x + hi);
      } else {
        runs.push_back(DirtyRun{y, y + 1, r.x + lo, r.x + hi});
      }
    }
    if (collapsed) {
      // Too fragmented to be worth rect-per-run: merge everything dirty in this rect into
      // one bounding rect (still inside r, still disjoint from other rects' output).
      DirtyRun all = runs.front();
      for (const DirtyRun& run : runs) {
        all.y0 = std::min(all.y0, run.y0);
        all.y1 = std::max(all.y1, run.y1);
        all.x_lo = std::min(all.x_lo, run.x_lo);
        all.x_hi = std::max(all.x_hi, run.x_hi);
      }
      runs.assign(1, all);
    }
    for (const DirtyRun& run : runs) {
      refined.AddDisjoint(Rect{run.x_lo, run.y0, run.x_hi - run.x_lo, run.y1 - run.y0});
    }
  }
  return refined;
}

}  // namespace slim
