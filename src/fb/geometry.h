// Integer rectangle and region algebra for framebuffer damage tracking.

#ifndef SRC_FB_GEOMETRY_H_
#define SRC_FB_GEOMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace slim {

struct Point {
  int32_t x = 0;
  int32_t y = 0;
  bool operator==(const Point&) const = default;
};

// Half-open rectangle: covers columns [x, x+w) and rows [y, y+h).
struct Rect {
  int32_t x = 0;
  int32_t y = 0;
  int32_t w = 0;
  int32_t h = 0;

  bool operator==(const Rect&) const = default;

  bool empty() const { return w <= 0 || h <= 0; }
  int64_t area() const { return empty() ? 0 : static_cast<int64_t>(w) * h; }
  int32_t right() const { return x + w; }
  int32_t bottom() const { return y + h; }

  bool Contains(Point p) const {
    return !empty() && p.x >= x && p.x < right() && p.y >= y && p.y < bottom();
  }
  bool ContainsRect(const Rect& r) const;
  bool Intersects(const Rect& r) const;

  std::string ToString() const;
};

// Intersection; returns an empty rect when disjoint.
Rect Intersect(const Rect& a, const Rect& b);

// Smallest rectangle covering both (empty inputs are ignored).
Rect BoundingUnion(const Rect& a, const Rect& b);

// Subtracts b from a, appending up to four disjoint fragments to out.
void SubtractRect(const Rect& a, const Rect& b, std::vector<Rect>* out);

// A set of pixels maintained as disjoint rectangles. Exact (not a bounding approximation):
// area() is the true number of covered pixels, which the Figure 3 harness relies on.
class Region {
 public:
  Region() = default;
  explicit Region(const Rect& r) { Add(r); }

  void Add(const Rect& r);
  // Appends r without the de-overlap pass. The caller guarantees r is disjoint from every
  // rect already in the region (checked in debug builds); the damage tracker uses this for
  // its refined rects, which are disjoint by construction, so building a region of n rects
  // stays O(n) instead of O(n^2).
  void AddDisjoint(const Rect& r);
  void Subtract(const Rect& r);
  void Clear() { rects_.clear(); }

  bool empty() const { return rects_.empty(); }
  int64_t area() const;
  Rect bounds() const;
  bool Contains(Point p) const;

  const std::vector<Rect>& rects() const { return rects_; }

  // Rewrites the region as at most max_rects rectangles by merging into the bounding box
  // when fragmentation exceeds the limit. Damage tracking uses this to bound encoder work.
  void Coalesce(size_t max_rects);

 private:
  std::vector<Rect> rects_;  // Invariant: pairwise disjoint, none empty.
};

}  // namespace slim

#endif  // SRC_FB_GEOMETRY_H_
