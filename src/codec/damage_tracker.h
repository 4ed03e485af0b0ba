// Shadow-frame damage refinement — the hash-accelerated damage pipeline.
//
// The server-side cost of the SLIM protocol is dominated by analyzing pixels to pick
// SET/BITMAP/FILL/COPY encodings (paper Section 4 / Table 4), and that cost is
// proportional to the damage area handed to the encoder. The damage sessions report is
// often over-broad: a full-window PutImage repaint of mostly-unchanged content, a
// RepaintAll of an idle screen, or a hint-less scroll that arrives as "everything
// changed". DamageTracker trims that damage to what actually changed before the encoder
// ever sees it.
//
// It keeps a shadow copy of the last-transmitted frame plus a 64-bit FNV-1a hash per row,
// both updated incrementally as damage is flushed. Refinement is three layers, cheapest
// first:
//   1. Row hashes: a damaged row whose current-frame hash equals the shadow's stored hash
//      is discarded with one 64-bit compare (after one linear hash of the row).
//   2. Span memcmp: a dirty row's changed extent [x_lo, x_hi] is found by pointer scans
//      over the row spans; runs of dirty rows merge into tight rects.
//   3. Scroll salvage: when a large damage block is the shadow frame shifted vertically
//      (DetectVerticalScroll's hash-indexed O(rows) pass against the shadow), the shift
//      is transmitted as one COPY command and only the residual diff is refined.
//
// The shadow is *server-side* soft state about what the console currently displays; the
// console itself stays stateless, exactly as the paper requires (DESIGN.md). Losing or
// distrusting the shadow (Invalidate) costs one full retransmit, nothing more.
//
// A tracker belongs to one session and runs before that session's encoder, which just
// sees a smaller region.

#ifndef SRC_CODEC_DAMAGE_TRACKER_H_
#define SRC_CODEC_DAMAGE_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"
#include "src/protocol/commands.h"

namespace slim {

// Resolves the damage-tracker toggle: SLIM_DAMAGE_TRACKER when set to a valid integer
// (0 disables, nonzero enables; warning on stderr for garbage), otherwise `fallback`.
bool DamageTrackerFromEnv(bool fallback);

class DamageTracker {
 public:
  DamageTracker(int32_t width, int32_t height);

  // Refines `damage` (whose rects must lie within bounds) to the sub-region whose pixels
  // differ from the shadow frame, then brings the shadow and its row hashes up to date
  // with `fb` over the whole damage region. The returned rects are pairwise disjoint,
  // contained in `damage`, and cover every differing pixel (property-tested in
  // tests/damage_tracker_test.cc).
  //
  // When scroll_out is non-null and scroll_max_shift > 0, the damage bounds are first
  // tested for a vertical scroll of the shadow; on a hit, one COPY command reproducing
  // the scroll is appended to scroll_out and applied to the shadow, so the refined
  // residual shrinks to the exposed strip. The caller must transmit scroll_out's commands
  // BEFORE the commands encoded from the refined region (the refinement is relative to
  // the post-copy shadow).
  //
  // While invalidated, refinement is suspended: damage passes through unrefined (the
  // shadow is synced from it), and the tracker revalidates once a damage region covering
  // the full frame has passed.
  Region Refine(const Framebuffer& fb, const Region& damage, int32_t scroll_max_shift = 0,
                std::vector<DisplayCommand>* scroll_out = nullptr);

  // Copies `rect` (clipped to bounds) from fb into the shadow without refining: the
  // caller transmitted the rect's new content out of band (direct FILL/COPY/CSCS
  // commands, which bypass the encoder).
  void SyncRect(const Framebuffer& fb, const Rect& rect);

  // Forgets what the remote end displays: the next full-frame Refine passes everything
  // through. Used on console attach (a fresh console's soft state is unknown) and for
  // loss-recovery resyncs (ServerSession::ForceRepaintAll), where trusting the shadow
  // would suppress the retransmission the caller is asking for.
  void Invalidate() { valid_ = false; }

  bool valid() const { return valid_; }
  const Framebuffer& shadow() const { return shadow_; }

 private:
  // Recomputes row_hashes_[y] from the shadow's current contents.
  void RehashRow(int32_t y);
  // Copies rows [y0, y1) x columns [x0, x0+w) from fb into the shadow and rehashes them.
  void CopySpans(const Framebuffer& fb, int32_t y0, int32_t y1, int32_t x0, int32_t w);

  Framebuffer shadow_;
  std::vector<uint64_t> row_hashes_;
  bool valid_ = true;  // shadow starts black, matching a fresh console's framebuffer

  // Per-Refine scratch: lazily computed full-row hashes of the frame being refined,
  // kept as members so the hot path does not reallocate per flush.
  std::vector<uint64_t> fb_row_hashes_;
  std::vector<uint8_t> fb_row_hashed_;
};

}  // namespace slim

#endif  // SRC_CODEC_DAMAGE_TRACKER_H_
