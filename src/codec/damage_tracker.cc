#include "src/codec/damage_tracker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/codec/encoder.h"
#include "src/codec/kernels/kernels.h"
#include "src/codec/row_hash.h"
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

bool DamageTrackerFromEnv(bool fallback) {
  const char* value = std::getenv("SLIM_DAMAGE_TRACKER");
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "slim: ignoring SLIM_DAMAGE_TRACKER='%s' (want an integer)\n",
                 value);
    return fallback;
  }
  return parsed != 0;
}

DamageTracker::DamageTracker(int32_t width, int32_t height)
    : shadow_(width, height), row_hashes_(static_cast<size_t>(height)) {
  for (int32_t y = 0; y < height; ++y) {
    RehashRow(y);
  }
}

void DamageTracker::RehashRow(int32_t y) {
  row_hashes_[static_cast<size_t>(y)] = RowHash64(shadow_.Row(y));
}

void DamageTracker::CopySpans(const Framebuffer& fb, int32_t y0, int32_t y1, int32_t x0,
                              int32_t w) {
  for (int32_t y = y0; y < y1; ++y) {
    std::memcpy(shadow_.MutableRow(y, x0, w).data(), fb.Row(y, x0, w).data(),
                static_cast<size_t>(w) * sizeof(Pixel));
    RehashRow(y);
  }
}

void DamageTracker::SyncRect(const Framebuffer& fb, const Rect& rect) {
  SLIM_DCHECK(fb.width() == shadow_.width() && fb.height() == shadow_.height());
  const Rect r = Intersect(rect, shadow_.bounds());
  if (r.empty()) {
    return;
  }
  CopySpans(fb, r.y, r.bottom(), r.x, r.w);
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

  // Lazily computed full-row hashes of fb. fb is const for the whole call, so these stay
  // valid even as shadow rows are re-synced (the stored shadow hashes do change).
  const size_t rows = static_cast<size_t>(shadow_.height());
  if (fb_row_hashes_.size() != rows) {
    fb_row_hashes_.assign(rows, 0);
    fb_row_hashed_.assign(rows, 0);
  } else {
    std::fill(fb_row_hashed_.begin(), fb_row_hashed_.end(), uint8_t{0});
  }
  auto fb_hash = [&](int32_t y) {
    const size_t i = static_cast<size_t>(y);
    if (!fb_row_hashed_[i]) {
      fb_row_hashes_[i] = RowHash64(fb.Row(y));
      fb_row_hashed_[i] = 1;
    }
    return fb_row_hashes_[i];
  };
  // Syncs the shadow's row y to fb over columns [x0, x0+w) and refreshes the stored row
  // hash — for free from the fb-hash cache when the synced row now equals fb's full row.
  const auto sync_row = [&](int32_t y, int32_t x0, int32_t w, bool row_now_matches_fb) {
    std::memcpy(shadow_.MutableRow(y, x0, w).data(), fb.Row(y, x0, w).data(),
                static_cast<size_t>(w) * sizeof(Pixel));
    row_hashes_[static_cast<size_t>(y)] =
        row_now_matches_fb ? fb_hash(y) : RowHash64(shadow_.Row(y));
  };

  // Scroll salvage: when the damage block looks like the shadow shifted vertically
  // (hint-less scrolls arrive as "the whole window changed"), ship the shift as one COPY
  // and let refinement handle only the residual. Correctness never depends on the
  // detector: whatever still differs after the copy is caught below.
  if (scroll_out != nullptr && scroll_max_shift > 0) {
    const Rect b = damage.bounds();
    if (b.w >= kScrollMinWidth && b.h >= kScrollMinHeight) {
      int32_t dirty_rows = 0;
      for (int32_t y = b.y; y < b.bottom(); ++y) {
        dirty_rows += fb_hash(y) != row_hashes_[static_cast<size_t>(y)] ? 1 : 0;
      }
      if (dirty_rows >= kScrollMinDirtyRows) {
        // The detector reuses the hashes both sides already have: stored shadow row
        // hashes as `before`, the gate's cached fb row hashes as `after` (the gate loop
        // above filled the cache for every row the full-width detector can touch).
        const ScrollHashHints hints{row_hashes_, fb_row_hashes_};
        const int32_t dy = DetectVerticalScroll(shadow_, fb, b, scroll_max_shift, &hints);
        if (dy != 0) {
          const int32_t y0 = std::max(b.y, b.y + dy);
          const int32_t y1 = std::min(b.bottom(), b.bottom() + dy);
          scroll_out->push_back(CopyCommand{b.x, y0 - dy, Rect{b.x, y0, b.w, y1 - y0}});
          // The console will apply the COPY to its framebuffer, which matches the shadow;
          // mirror it so refinement diffs against the post-copy display state. The
          // detector confirmed fb == shifted shadow over the overlap's rect columns, so
          // copying fb's rows IS applying the COPY — and spares rereading the shadow.
          const bool full_rows = b.x == 0 && b.w == shadow_.width();
          for (int32_t y = y0; y < y1; ++y) {
            sync_row(y, b.x, b.w, full_rows);
          }
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
      // Cheap filter first: a full fb row hashing to the shadow's stored hash is
      // unchanged everywhere, so in particular over this rect's columns.
      if (fb_hash(y) == row_hashes_[static_cast<size_t>(y)]) {
        continue;
      }
      const std::span<const Pixel> cur = fb.Row(y, r.x, r.w);
      const std::span<const Pixel> old = shadow_.Row(y, r.x, r.w);
      // Tight changed extent — first and last differing pixel in the rect's columns —
      // in one kernel pass instead of a memcmp plus two scalar scans.
      int32_t lo = 0;
      int32_t hi = r.w;  // exclusive
      if (!kernels.row_diff_span(cur.data(), old.data(), cur.size(), &lo, &hi)) {
        continue;  // the change is on this row but outside this rect
      }
      // Bring the shadow up to date for this row before moving on; fb hashes are cached,
      // so later rects sharing the row still compare correctly. A full-width rect leaves
      // the whole shadow row equal to fb's, so its hash comes from the cache.
      sync_row(y, r.x + lo, hi - lo, r.x == 0 && r.w == shadow_.width());

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
