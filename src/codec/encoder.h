// Server-side SLIM encoder: turns framebuffer damage into display commands.
//
// This is the piece the paper implements inside the X-server's virtual device driver
// (Section 2.2): it inspects the rendered pixels and exploits their redundancy —
// solid regions become FILL, bicolor (text) regions become BITMAP, everything else is sent
// literally with SET. COPY is driven by API-level hints (scrolls / window moves arrive as
// explicit copies from the display server, exactly as X's CopyArea reaches the driver), with
// an optional pixel-search fallback for vertical scrolls.

#ifndef SRC_CODEC_ENCODER_H_
#define SRC_CODEC_ENCODER_H_

#include <vector>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"
#include "src/protocol/commands.h"

namespace slim {

struct EncoderOptions {
  // Heuristic toggles; each is an ablation point (DESIGN.md Section 5).
  bool enable_fill = true;
  bool enable_bitmap = true;

  // Rows analyzed at a time. Smaller bands find more structure but add per-command overhead.
  int32_t band_height = 32;

  // Column chunk width when a band is not uniform/bicolor as a whole.
  int32_t chunk_width = 64;

  // Maximum pixels in one SET command; larger regions are split so that commands stay below
  // the transport's reassembly limits and the console can interleave other flows.
  int64_t max_set_pixels = 128 * 1024;

  // Shadow-frame damage refinement (src/codec/damage_tracker.h): the session keeps a copy
  // of the last-transmitted frame plus per-row hashes and trims draw-op damage to the
  // pixels that actually changed before encoding, so over-broad damage (RepaintAll,
  // full-window PutImage of mostly-unchanged content) costs what it is worth. Disable for
  // ablation with SLIM_DAMAGE_TRACKER=0 (env override applied in SlimServer).
  bool damage_tracker = true;
};

// Statistics the encoder keeps per command type; the Figure 4 harness reads these.
struct EncodeStats {
  int64_t commands = 0;
  int64_t wire_bytes = 0;          // bytes on the wire, headers included
  int64_t uncompressed_bytes = 0;  // 3 bytes per affected pixel
  int64_t pixels = 0;
};

class Encoder {
 public:
  explicit Encoder(EncoderOptions options = {});

  const EncoderOptions& options() const { return options_; }

  // Encodes the current contents of fb over `damage` into commands. Applying the returned
  // commands to any framebuffer that matches fb outside the damage region makes it equal to
  // fb inside the damage region (the round-trip property tested in codec_test).
  std::vector<DisplayCommand> EncodeDamage(const Framebuffer& fb, const Region& damage) const;

  // Encodes a single rectangle (clipped to fb bounds), band_height rows at a time.
  void EncodeRect(const Framebuffer& fb, const Rect& rect,
                  std::vector<DisplayCommand>* out) const;

  // Accumulates per-type stats for a command list into a 6-slot array indexed by
  // CommandType (slot 0 unused).
  static void Accumulate(const std::vector<DisplayCommand>& cmds,
                         EncodeStats stats[6]);

  // One row of Accumulate: range-checked slot update. Aborts on a command type outside the
  // wire enum — a malformed type (e.g. decoded from a corrupted stream) must not index out
  // of bounds.
  static void AccumulateOne(CommandType type, size_t wire_bytes, int64_t uncompressed_bytes,
                            int64_t pixels, EncodeStats stats[6]);

 private:
  // Encodes one band of EncodeRect's clipped rect. Bands are analyzed independently: no
  // encoder state crosses a band boundary.
  void EncodeBand(const Framebuffer& fb, const Rect& band,
                  std::vector<DisplayCommand>* out) const;
  void EmitSet(const Framebuffer& fb, const Rect& rect, std::vector<DisplayCommand>* out) const;
  void EmitBitmap(const Framebuffer& fb, const Rect& rect, Pixel bg, Pixel fg,
                  std::vector<DisplayCommand>* out) const;

  EncoderOptions options_;
};

// Optional precomputed row hashes for DetectVerticalScroll: RowHash64 (src/codec/row_hash.h)
// of each FULL row of the respective framebuffer, indexed by absolute y. The damage
// tracker maintains exactly these for its shadow (before) and computes them for the
// current frame (after) anyway, so passing them saves the detector both hashing passes.
// Only consulted when `rect` spans the full width of both frames — a full-row hash equals
// the rect-restricted hash only then — and when both spans cover the rect's rows.
struct ScrollHashHints {
  std::span<const uint64_t> before_rows;
  std::span<const uint64_t> after_rows;
};

// Searches for a vertical scroll between `before` and `after` restricted to `rect`: a dy in
// [-max_shift, max_shift] such that after(x, y) == before(x, y - dy) over the whole shifted
// overlap. Returns 0 when none is found, and always 0 for rects narrower or shorter than
// 8 pixels — too small to distinguish a scroll from coincidence.
//
// One O(rows) pass hashes each row of the rect (skipped entirely when `hints` apply) and
// looks `after` row hashes up in an index of `before` row hashes to vote for candidate
// shifts; candidates whose votes cover the entire overlap are then confirmed by row memcmp
// in the same smallest-|dy|-first, negative-before-positive preference order the
// probe-based detector used, so the two agree on every input (property-tested in
// tests/damage_tracker_test.cc against tests/scroll_probe_reference.h). Cost does not
// scale with max_shift: there is no per-magnitude pixel probing.
int32_t DetectVerticalScroll(const Framebuffer& before, const Framebuffer& after,
                             const Rect& rect, int32_t max_shift,
                             const ScrollHashHints* hints = nullptr);

}  // namespace slim

#endif  // SRC_CODEC_ENCODER_H_
