#include "src/codec/encoder.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/codec/kernels/kernels.h"
#include "src/codec/row_hash.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Classifies a rectangle's pixel population via the kernel layer's ColorScan: `first`
// and `second` are the first two distinct colors encountered in scan order (not the
// most common ones); for the bicolor regions BITMAP targets the two sets coincide, and
// for anything richer the scan bails out at distinct == 3 anyway.
//
// r must lie inside fb.bounds() — every caller analyzes bands/chunks that EncodeRect
// already clipped. Scanning row spans bounds-checks once per row, and a row that repeats
// the previous row byte-for-byte (solid panels, text leading, letterboxing) is skipped
// with one memcmp instead of being re-classified pixel by pixel.
ColorScan ScanColors(const Framebuffer& fb, const Rect& r) {
  const KernelOps& kernels = Kernels();
  ColorScan scan;
  const size_t row_bytes = static_cast<size_t>(r.w) * sizeof(Pixel);
  std::span<const Pixel> prev;
  for (int32_t y = r.y; y < r.bottom(); ++y) {
    const std::span<const Pixel> row = fb.Row(y, r.x, r.w);
    if (!prev.empty() && std::memcmp(row.data(), prev.data(), row_bytes) == 0) {
      continue;
    }
    kernels.scan_colors(row.data(), row.size(), &scan);
    if (scan.distinct >= 3) {
      return scan;
    }
    prev = row;
  }
  return scan;
}

// RowHash64 over one row span, treating pixels outside either framebuffer dimension as
// black (matching GetPixel's clipping semantics, which the scroll detector's contract
// inherits from the probe implementation). The out-of-bounds path materializes the span
// first so both paths hash the identical pixel sequence — a black-padded span must
// collide with a genuinely black row, exactly as pixel-by-pixel comparison would.
// `scratch` is caller-owned scratch for that padded span: scroll probing near frame
// edges calls this once per candidate row, and a per-call std::vector was a heap
// allocation inside the detector's hot loop.
uint64_t HashRowSpan(const Framebuffer& fb, int32_t y, int32_t x0, int32_t w,
                     std::vector<Pixel>* scratch) {
  if (y >= 0 && y < fb.height() && x0 >= 0 && x0 + w <= fb.width()) {
    return RowHash64(fb.Row(y, x0, w));
  }
  scratch->resize(static_cast<size_t>(w));  // reuses capacity across calls
  for (int32_t x = x0; x < x0 + w; ++x) {
    (*scratch)[static_cast<size_t>(x - x0)] = fb.GetPixel(x, y);
  }
  return RowHash64(*scratch);
}

// after(x, ya) == before(x, yb) for all x in [x0, x0+w)? memcmp when both row spans are in
// bounds (the overwhelmingly common case), GetPixel fallback otherwise.
bool RowSpansEqual(const Framebuffer& after, int32_t ya, const Framebuffer& before,
                   int32_t yb, int32_t x0, int32_t w) {
  const bool after_in = ya >= 0 && ya < after.height() && x0 >= 0 && x0 + w <= after.width();
  const bool before_in =
      yb >= 0 && yb < before.height() && x0 >= 0 && x0 + w <= before.width();
  if (after_in && before_in) {
    return std::memcmp(after.Row(ya, x0, w).data(), before.Row(yb, x0, w).data(),
                       static_cast<size_t>(w) * sizeof(Pixel)) == 0;
  }
  for (int32_t x = x0; x < x0 + w; ++x) {
    if (after.GetPixel(x, ya) != before.GetPixel(x, yb)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Encoder::Encoder(EncoderOptions options) : options_(options) {
  SLIM_CHECK(options_.band_height > 0);
  SLIM_CHECK(options_.chunk_width > 0);
  SLIM_CHECK(options_.max_set_pixels > 0);
}

std::vector<DisplayCommand> Encoder::EncodeDamage(const Framebuffer& fb,
                                                  const Region& damage) const {
  std::vector<DisplayCommand> out;
  for (const Rect& r : damage.rects()) {
    EncodeRect(fb, r, &out);
  }
  return out;
}

void Encoder::EncodeRect(const Framebuffer& fb, const Rect& rect,
                         std::vector<DisplayCommand>* out) const {
  SLIM_DCHECK(out != nullptr);
  const Rect clipped = Intersect(rect, fb.bounds());
  if (clipped.empty()) {
    return;
  }
  for (int32_t y = clipped.y; y < clipped.bottom(); y += options_.band_height) {
    const int32_t bh = std::min(options_.band_height, clipped.bottom() - y);
    EncodeBand(fb, Rect{clipped.x, y, clipped.w, bh}, out);
  }
}

void Encoder::EncodeBand(const Framebuffer& fb, const Rect& band,
                         std::vector<DisplayCommand>* out) const {
  // Whole-band fast path: uniform or bicolor bands are common (window background, text).
  const ColorScan whole = ScanColors(fb, band);
  if (whole.distinct <= 1 && options_.enable_fill) {
    out->emplace_back(std::in_place_type<FillCommand>, band, whole.first);
    return;
  }
  if (whole.distinct == 2 && options_.enable_bitmap) {
    EmitBitmap(fb, band, whole.first, whole.second, out);
    return;
  }

  // Mixed band: classify fixed-width column chunks, then merge adjacent compatible chunks so
  // a long text run still becomes a single BITMAP and a long gradient a single SET.
  enum class Kind { kFill, kBitmap, kSet };
  struct Chunk {
    Kind kind;
    Rect rect;
    Pixel a = 0;  // fill color / bitmap bg
    Pixel b = 0;  // bitmap fg
  };
  std::vector<Chunk> chunks;
  for (int32_t x = band.x; x < band.right(); x += options_.chunk_width) {
    const int32_t cw = std::min(options_.chunk_width, band.right() - x);
    const Rect r{x, band.y, cw, band.h};
    const ColorScan scan = ScanColors(fb, r);
    Chunk chunk{Kind::kSet, r, 0, 0};
    if (scan.distinct <= 1 && options_.enable_fill) {
      chunk = Chunk{Kind::kFill, r, scan.first, 0};
    } else if (scan.distinct == 2 && options_.enable_bitmap) {
      chunk = Chunk{Kind::kBitmap, r, scan.first, scan.second};
    }
    if (!chunks.empty()) {
      Chunk& prev = chunks.back();
      const bool same_fill = prev.kind == Kind::kFill && chunk.kind == Kind::kFill &&
                             prev.a == chunk.a;
      const bool same_set = prev.kind == Kind::kSet && chunk.kind == Kind::kSet;
      // Two bicolor chunks merge when their color sets are compatible.
      const bool same_bitmap =
          prev.kind == Kind::kBitmap && chunk.kind == Kind::kBitmap &&
          ((prev.a == chunk.a && prev.b == chunk.b) || (prev.a == chunk.b && prev.b == chunk.a));
      // A fill chunk extends a bitmap run when its color is one of the run's two colors.
      const bool fill_into_bitmap = prev.kind == Kind::kBitmap && chunk.kind == Kind::kFill &&
                                    (chunk.a == prev.a || chunk.a == prev.b);
      const bool bitmap_after_fill = prev.kind == Kind::kFill && chunk.kind == Kind::kBitmap &&
                                     (prev.a == chunk.a || prev.a == chunk.b);
      if (same_fill || same_set || same_bitmap || fill_into_bitmap) {
        prev.rect.w += chunk.rect.w;
        continue;
      }
      if (bitmap_after_fill) {
        prev.kind = Kind::kBitmap;
        if (prev.a == chunk.b) {
          prev.b = chunk.a;
        } else {
          prev.b = chunk.b;
        }
        prev.rect.w += chunk.rect.w;
        continue;
      }
    }
    chunks.push_back(chunk);
  }
  for (const Chunk& chunk : chunks) {
    switch (chunk.kind) {
      case Kind::kFill:
        out->emplace_back(std::in_place_type<FillCommand>, chunk.rect, chunk.a);
        break;
      case Kind::kBitmap:
        EmitBitmap(fb, chunk.rect, chunk.a, chunk.b, out);
        break;
      case Kind::kSet:
        EmitSet(fb, chunk.rect, out);
        break;
    }
  }
}

void Encoder::EmitSet(const Framebuffer& fb, const Rect& rect,
                      std::vector<DisplayCommand>* out) const {
  // Split wide and tall SETs so one command never exceeds max_set_pixels. Chunk merging in
  // EncodeBand can hand us a run wider than max_set_pixels, so a row-only split is not
  // enough: a single row of such a run would still bust the cap.
  const int32_t max_cols = static_cast<int32_t>(
      std::min<int64_t>(std::max(rect.w, 1), options_.max_set_pixels));
  for (int32_t x = rect.x; x < rect.right(); x += max_cols) {
    const int32_t w = std::min(max_cols, rect.right() - x);
    const int32_t max_rows =
        std::max<int32_t>(1, static_cast<int32_t>(options_.max_set_pixels / w));
    for (int32_t y = rect.y; y < rect.bottom(); y += max_rows) {
      const int32_t h = std::min(max_rows, rect.bottom() - y);
      const Rect part{x, y, w, h};
      std::vector<Pixel> pixels;
      fb.ReadPixels(part, &pixels);
      out->emplace_back(std::in_place_type<SetCommand>, part, PackRgb(pixels));
    }
  }
}

void Encoder::EmitBitmap(const Framebuffer& fb, const Rect& rect, Pixel bg, Pixel fg,
                         std::vector<DisplayCommand>* out) const {
  // The kernel packs MSB-first with the trailing bits of a row's final byte zero,
  // exactly the layout ExpandBitmap expects.
  const KernelOps& kernels = Kernels();
  const size_t stride = (static_cast<size_t>(rect.w) + 7) / 8;
  std::vector<uint8_t> bits(stride * static_cast<size_t>(rect.h), 0);
  for (int32_t y = rect.y; y < rect.bottom(); ++y) {
    const std::span<const Pixel> row = fb.Row(y, rect.x, rect.w);
    kernels.pack_bitmap_row(row.data(), row.size(), fg,
                            &bits[static_cast<size_t>(y - rect.y) * stride]);
  }
  out->emplace_back(std::in_place_type<BitmapCommand>, rect, fg, bg, std::move(bits));
}

void Encoder::Accumulate(const std::vector<DisplayCommand>& cmds, EncodeStats stats[6]) {
  for (const DisplayCommand& cmd : cmds) {
    AccumulateOne(TypeOf(cmd), WireSize(cmd), UncompressedBytes(cmd), AffectedPixels(cmd),
                  stats);
  }
}

void Encoder::AccumulateOne(CommandType type, size_t wire_bytes, int64_t uncompressed_bytes,
                            int64_t pixels, EncodeStats stats[6]) {
  const size_t index = static_cast<size_t>(type);
  SLIM_CHECK(index >= 1 && index < 6);
  EncodeStats& slot = stats[index];
  slot.commands += 1;
  slot.wire_bytes += static_cast<int64_t>(wire_bytes);
  slot.uncompressed_bytes += uncompressed_bytes;
  slot.pixels += pixels;
}

int32_t DetectVerticalScroll(const Framebuffer& before, const Framebuffer& after,
                             const Rect& rect, int32_t max_shift) {
  const Rect r = Intersect(rect, after.bounds());
  // Rects narrower or shorter than 8 pixels carry too few independent rows/columns for a
  // match to mean anything (and a "scroll" of a sliver saves nothing), so both dimensions
  // are guarded, not just the height.
  if (r.empty() || r.h < 8 || r.w < 8 || max_shift <= 0) {
    return 0;
  }

  // Hash every row of the rect once, then index the `before` hashes so each `after` row
  // proposes its plausible shifts in one lookup. A dy is a candidate only when every row
  // of its shifted overlap hash-matches (votes == overlap), which subsumes the old sparse
  // probe grid: any dy the probe pass would have accepted hash-matches too.
  std::vector<uint64_t> after_hash(static_cast<size_t>(r.h));
  std::vector<uint64_t> before_hash(static_cast<size_t>(r.h));
  std::vector<Pixel> scratch;  // shared pad buffer for rows hanging off the frame edge
  for (int32_t i = 0; i < r.h; ++i) {
    after_hash[static_cast<size_t>(i)] = HashRowSpan(after, r.y + i, r.x, r.w, &scratch);
    before_hash[static_cast<size_t>(i)] = HashRowSpan(before, r.y + i, r.x, r.w, &scratch);
  }
  std::unordered_map<uint64_t, std::vector<int32_t>> index;
  index.reserve(static_cast<size_t>(r.h));
  for (int32_t i = 0; i < r.h; ++i) {
    index[before_hash[static_cast<size_t>(i)]].push_back(i);  // ascending by construction
  }
  // votes[dy + max_shift] = number of after-rows i whose hash matches before-row i - dy.
  // Each (i, dy) pair is counted at most once (the source row is determined by i and dy),
  // so votes[dy] == overlap(dy) iff every overlapping row hash-matches under that shift.
  std::vector<int32_t> votes(static_cast<size_t>(2 * max_shift + 1), 0);
  for (int32_t i = 0; i < r.h; ++i) {
    const auto it = index.find(after_hash[static_cast<size_t>(i)]);
    if (it == index.end()) {
      continue;
    }
    const std::vector<int32_t>& rows = it->second;
    // Only source rows within max_shift of i matter; duplicate-row content (menus, blank
    // lines) would otherwise make this pass quadratic in the rect height.
    for (auto p = std::lower_bound(rows.begin(), rows.end(), i - max_shift);
         p != rows.end() && *p <= i + max_shift; ++p) {
      if (*p != i) {
        votes[static_cast<size_t>(i - *p + max_shift)] += 1;
      }
    }
  }

  // Same preference order as the probe detector (smallest magnitude first, negative before
  // positive), and the same exhaustive confirmation — now a memcmp per overlap row — so the
  // two detectors return identical results on every input. The probe grid's reach is also
  // preserved: a downward shift past the last grid row left the probe pass with zero
  // evidence, so the old detector never proposed it and this one must not either.
  const int32_t probes_y = std::min<int32_t>(16, r.h);
  const int32_t last_grid_row =
      static_cast<int32_t>(static_cast<int64_t>(probes_y - 1) * r.h / probes_y);
  for (int32_t magnitude = 1; magnitude <= max_shift; ++magnitude) {
    for (const int32_t dy : {-magnitude, magnitude}) {
      const int32_t overlap = r.h - magnitude;
      if (overlap <= 0 || votes[static_cast<size_t>(dy + max_shift)] != overlap ||
          (dy > 0 && dy > last_grid_row)) {
        continue;
      }
      const int32_t y0 = std::max(r.y, r.y + dy);
      const int32_t y1 = std::min(r.bottom(), r.bottom() + dy);
      bool confirmed = true;
      for (int32_t y = y0; y < y1 && confirmed; ++y) {
        confirmed = RowSpansEqual(after, y, before, y - dy, r.x, r.w);
      }
      if (confirmed) {
        return dy;
      }
    }
  }
  return 0;
}

}  // namespace slim
