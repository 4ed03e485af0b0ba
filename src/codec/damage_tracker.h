// Shadow-frame damage refinement.
//
// The server-side cost of the SLIM protocol is dominated by analyzing pixels to pick
// SET/BITMAP/FILL/COPY encodings (paper Section 4 / Table 4), and that cost is
// proportional to the damage area handed to the encoder. The damage sessions report is
// often over-broad: a full-window PutImage repaint of mostly-unchanged content, a
// RepaintAll of an idle screen, or a hint-less scroll that arrives as "everything
// changed". DamageTracker trims that damage to what actually changed before the encoder
// ever sees it.
//
// It keeps a shadow copy of the last-transmitted frame, updated as damage is flushed.
// Refinement has two layers:
//   1. Span diff: each damaged row's changed extent [x_lo, x_hi] within a damage rect is
//      found by one pass over the row spans of fb and shadow; runs of dirty rows merge
//      into tight rects. Nothing is hashed, so no hash collision can hide a change.
//   2. Scroll salvage: when a large damage block is the shadow frame shifted vertically
//      (DetectVerticalScroll against the shadow), the shift is transmitted as one COPY
//      command and only the residual diff is refined.
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
  // differ from the shadow frame, then brings the shadow up to date with `fb` over the
  // whole damage region. Every damaged row is compared pixel for pixel, so the result
  // never depends on a hash. The returned rects are pairwise disjoint, contained in
  // `damage`, and cover every differing pixel (property-tested in
  // tests/damage_tracker_test.cc).
  //
  // When scroll_out is non-null and scroll_max_shift > 0, a damage block with enough
  // changed rows is first tested for a vertical scroll of the shadow; on a hit, one COPY
  // command reproducing the scroll is appended to scroll_out and applied to the shadow,
  // so the refined residual shrinks to the exposed strip. The caller must transmit
  // scroll_out's commands BEFORE the commands encoded from the refined region (the
  // refinement is relative to the post-copy shadow).
  //
  // While invalidated, refinement is suspended: damage passes through unrefined (the
  // shadow is synced from it), and the tracker revalidates once a damage region covering
  // the full frame has passed.
  Region Refine(const Framebuffer& fb, const Region& damage, int32_t scroll_max_shift = 0,
                std::vector<DisplayCommand>* scroll_out = nullptr);

  // Copies `rect` (clipped to bounds) from fb into the shadow, one memcpy per row,
  // without refining: the caller transmitted the rect's new content out of band (direct
  // FILL/COPY/CSCS commands, which bypass the encoder).
  void SyncRect(const Framebuffer& fb, const Rect& rect);

  // Forgets what the remote end displays: the next full-frame Refine passes everything
  // through. Used on console attach (a fresh console's soft state is unknown) and for
  // loss-recovery resyncs (ServerSession::ForceRepaintAll), where trusting the shadow
  // would suppress the retransmission the caller is asking for.
  void Invalidate() { valid_ = false; }

  bool valid() const { return valid_; }
  const Framebuffer& shadow() const { return shadow_; }

 private:
  Framebuffer shadow_;
  bool valid_ = true;  // shadow starts black, matching a fresh console's framebuffer
};

}  // namespace slim

#endif  // SRC_CODEC_DAMAGE_TRACKER_H_
