// Scalar reference implementations of the kernels, shared by the tier translation units:
// the scalar tier exports them verbatim, and the SSE2 tier calls them for tails and
// rare-path fallbacks, so a vector body plus this tail is still bit-identical to the
// pure scalar run.

#ifndef SRC_CODEC_KERNELS_KERNELS_INTERNAL_H_
#define SRC_CODEC_KERNELS_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/codec/kernels/kernels.h"

namespace slim {

// ---- Two-color scan ------------------------------------------------------------------

inline void ScanColorsScalar(const Pixel* row, size_t n, ColorScan* scan) {
  for (size_t i = 0; i < n; ++i) {
    const Pixel p = row[i];
    if (scan->distinct == 0) {
      scan->first = p;
      scan->distinct = 1;
    } else if (p != scan->first) {
      if (scan->distinct == 1) {
        scan->second = p;
        scan->distinct = 2;
      } else if (p != scan->second) {
        scan->distinct = 3;
        return;
      }
    }
  }
}

// ---- Bitmap row packing --------------------------------------------------------------

inline void PackBitmapRowScalar(const Pixel* row, size_t n, Pixel fg, uint8_t* out) {
  size_t x = 0;
  const size_t stride = (n + 7) / 8;
  for (size_t byte = 0; byte < stride; ++byte) {
    const size_t lanes = std::min<size_t>(8, n - x);
    uint8_t packed = 0;
    for (size_t bit = 0; bit < lanes; ++bit, ++x) {
      if (row[x] == fg) {
        packed |= static_cast<uint8_t>(1u << (7 - bit));
      }
    }
    out[byte] = packed;
  }
}

// ---- Row diff span -------------------------------------------------------------------

inline bool RowDiffSpanScalar(const Pixel* a, const Pixel* b, size_t n, int32_t* lo,
                              int32_t* hi) {
  if (n == 0 || std::memcmp(a, b, n * sizeof(Pixel)) == 0) {
    return false;
  }
  size_t first = 0;
  while (a[first] == b[first]) {
    ++first;
  }
  size_t last = n;  // exclusive
  while (a[last - 1] == b[last - 1]) {
    --last;
  }
  *lo = static_cast<int32_t>(first);
  *hi = static_cast<int32_t>(last);
  return true;
}

}  // namespace slim

#endif  // SRC_CODEC_KERNELS_KERNELS_INTERNAL_H_
