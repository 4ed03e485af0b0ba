#include "src/fb/geometry.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/table.h"

namespace slim {

bool Rect::ContainsRect(const Rect& r) const {
  if (r.empty()) {
    return true;
  }
  return !empty() && r.x >= x && r.y >= y && r.right() <= right() && r.bottom() <= bottom();
}

bool Rect::Intersects(const Rect& r) const { return !Intersect(*this, r).empty(); }

std::string Rect::ToString() const { return Format("[%d,%d %dx%d]", x, y, w, h); }

Rect Intersect(const Rect& a, const Rect& b) {
  const int32_t x0 = std::max(a.x, b.x);
  const int32_t y0 = std::max(a.y, b.y);
  const int32_t x1 = std::min(a.right(), b.right());
  const int32_t y1 = std::min(a.bottom(), b.bottom());
  if (x1 <= x0 || y1 <= y0) {
    return Rect{};
  }
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

Rect BoundingUnion(const Rect& a, const Rect& b) {
  if (a.empty()) {
    return b.empty() ? Rect{} : b;
  }
  if (b.empty()) {
    return a;
  }
  const int32_t x0 = std::min(a.x, b.x);
  const int32_t y0 = std::min(a.y, b.y);
  const int32_t x1 = std::max(a.right(), b.right());
  const int32_t y1 = std::max(a.bottom(), b.bottom());
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

void SubtractRect(const Rect& a, const Rect& b, std::vector<Rect>* out) {
  SLIM_DCHECK(out != nullptr);
  if (a.empty()) {
    return;
  }
  const Rect overlap = Intersect(a, b);
  if (overlap.empty()) {
    out->push_back(a);
    return;
  }
  // Top band.
  if (overlap.y > a.y) {
    out->push_back(Rect{a.x, a.y, a.w, overlap.y - a.y});
  }
  // Bottom band.
  if (overlap.bottom() < a.bottom()) {
    out->push_back(Rect{a.x, overlap.bottom(), a.w, a.bottom() - overlap.bottom()});
  }
  // Left sliver within the overlap's rows.
  if (overlap.x > a.x) {
    out->push_back(Rect{a.x, overlap.y, overlap.x - a.x, overlap.h});
  }
  // Right sliver within the overlap's rows.
  if (overlap.right() < a.right()) {
    out->push_back(Rect{overlap.right(), overlap.y, a.right() - overlap.right(), overlap.h});
  }
}

void Region::Add(const Rect& r) {
  if (r.empty()) {
    return;
  }
  // Reduce the new rect to the parts not already covered, then append them. This is what
  // maintains the pairwise-disjoint invariant: overlapping damage reaches the encoder as
  // disjoint rects, so no pixel is encoded (or counted in wire_bytes/pixels stats) twice.
  // The fragments of r are disjoint from every existing rect by construction, and disjoint
  // from each other because SubtractRect emits disjoint pieces of disjoint inputs.
  // Property-tested in tests/property_test.cc (RegionProperty / EncoderProperty).
  std::vector<Rect> pending{r};
  for (const Rect& existing : rects_) {
    std::vector<Rect> next;
    for (const Rect& p : pending) {
      SubtractRect(p, existing, &next);
    }
    pending = std::move(next);
    if (pending.empty()) {
      return;
    }
  }
  rects_.insert(rects_.end(), pending.begin(), pending.end());
}

void Region::AddDisjoint(const Rect& r) {
  if (r.empty()) {
    return;
  }
#ifndef NDEBUG
  for (const Rect& existing : rects_) {
    SLIM_DCHECK(!existing.Intersects(r));
  }
#endif
  rects_.push_back(r);
}

void Region::Subtract(const Rect& r) {
  if (r.empty() || rects_.empty()) {
    return;
  }
  std::vector<Rect> next;
  next.reserve(rects_.size());
  for (const Rect& existing : rects_) {
    SubtractRect(existing, r, &next);
  }
  rects_ = std::move(next);
}

int64_t Region::area() const {
  int64_t total = 0;
  for (const Rect& r : rects_) {
    total += r.area();
  }
  return total;
}

Rect Region::bounds() const {
  Rect b{};
  for (const Rect& r : rects_) {
    b = BoundingUnion(b, r);
  }
  return b;
}

bool Region::Contains(Point p) const {
  return std::any_of(rects_.begin(), rects_.end(),
                     [&](const Rect& r) { return r.Contains(p); });
}

void Region::Coalesce(size_t max_rects) {
  if (rects_.size() <= max_rects) {
    return;
  }
  const Rect b = bounds();
  rects_.clear();
  rects_.push_back(b);
}

}  // namespace slim
