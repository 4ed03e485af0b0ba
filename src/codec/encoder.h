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

// Searches for a vertical scroll between `before` and `after` restricted to `rect`: a dy in
// [-max_shift, max_shift] such that after(x, y) == before(x, y - dy) over the whole shifted
// overlap. Returns 0 when none is found, and always 0 for rects narrower or shorter than
// 8 pixels — too small to distinguish a scroll from coincidence.
//
// One O(rows) pass hashes each row of both frames over the rect's columns and looks
// `after` row hashes up in an index of `before` row hashes to vote for candidate shifts. A
// hash match only proposes a shift: candidates whose votes cover the entire overlap are
// confirmed by row memcmp, so a collision can cost time but never a wrong answer. They are
// tried in the same smallest-|dy|-first, negative-before-positive preference order the
// probe-based detector used, so the two agree on every input (property-tested in
// tests/damage_tracker_test.cc against tests/scroll_probe_reference.h). Cost does not
// scale with max_shift: there is no per-magnitude pixel probing.
int32_t DetectVerticalScroll(const Framebuffer& before, const Framebuffer& after,
                             const Rect& rect, int32_t max_shift);

}  // namespace slim

#endif  // SRC_CODEC_ENCODER_H_
