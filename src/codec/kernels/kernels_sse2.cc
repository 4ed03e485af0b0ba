// SSE2 kernel tier. SSE2 is part of x86-64, so this table is compiled into every x86-64
// build with no extra ISA flags and needs no runtime CPU check. The three kernels are
// compare-shaped and map onto 4-lane cmpeq + movemask.
//
// Same contract as every tier: bit-identical to scalar on all inputs.

#include "src/codec/kernels/kernels.h"
#include "src/codec/kernels/kernels_internal.h"

#if defined(__SSE2__)

#include <array>

#include <emmintrin.h>

namespace slim {
namespace {

// movemask-style instructions put pixel 0 in bit 0, but bitmap rows are packed MSB-first
// (pixel 0 in bit 7), so the packer runs each 8-pixel mask through this table.
constexpr std::array<uint8_t, 256> kBitReverse = [] {
  std::array<uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    uint8_t r = 0;
    for (int bit = 0; bit < 8; ++bit) {
      r = static_cast<uint8_t>(r | (((i >> bit) & 1) << (7 - bit)));
    }
    table[static_cast<size_t>(i)] = r;
  }
  return table;
}();

// 4-bit mask with bit j set iff pixel j matches either color.
inline int MatchMask4(const Pixel* p, __m128i c1, __m128i c2) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i ok = _mm_or_si128(_mm_cmpeq_epi32(v, c1), _mm_cmpeq_epi32(v, c2));
  return _mm_movemask_ps(_mm_castsi128_ps(ok));
}

void ScanColorsSse2(const Pixel* row, size_t n, ColorScan* scan) {
  size_t i = 0;
  if (n == 0 || scan->distinct >= 3) {
    return;
  }
  if (scan->distinct == 0) {
    scan->first = row[0];
    scan->distinct = 1;
    i = 1;
  }
  for (;;) {
    const __m128i c1 = _mm_set1_epi32(static_cast<int32_t>(scan->first));
    const __m128i c2 = _mm_set1_epi32(
        static_cast<int32_t>(scan->distinct == 2 ? scan->second : scan->first));
    bool mismatch = false;
    for (; i + 4 <= n; i += 4) {
      const int mask = MatchMask4(row + i, c1, c2);
      if (mask != 0xf) {
        i += static_cast<size_t>(__builtin_ctz(~static_cast<unsigned>(mask) & 0xfu));
        mismatch = true;
        break;
      }
    }
    if (!mismatch) {
      ScanColorsScalar(row + i, n - i, scan);  // < 4 pixels left
      return;
    }
    if (scan->distinct == 1) {
      scan->second = row[i];
      scan->distinct = 2;
      ++i;
      continue;
    }
    scan->distinct = 3;
    return;
  }
}

void PackBitmapRowSse2(const Pixel* row, size_t n, Pixel fg, uint8_t* out) {
  const __m128i f = _mm_set1_epi32(static_cast<int32_t>(fg));
  size_t x = 0;
  size_t byte = 0;
  for (; x + 8 <= n; x += 8, ++byte) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + x));
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + x + 4));
    const int m0 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v0, f)));
    const int m1 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v1, f)));
    out[byte] = kBitReverse[static_cast<size_t>(m0 | (m1 << 4))];
  }
  if (x < n) {
    PackBitmapRowScalar(row + x, n - x, fg, out + byte);
  }
}

// 4-bit mask with bit j set iff a[j] == b[j].
inline int EqMask4(const Pixel* a, const Pixel* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb)));
}

bool RowDiffSpanSse2(const Pixel* a, const Pixel* b, size_t n, int32_t* lo, int32_t* hi) {
  size_t first = n;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = EqMask4(a + i, b + i);
    if (mask != 0xf) {
      first = i + static_cast<size_t>(__builtin_ctz(~static_cast<unsigned>(mask) & 0xfu));
      break;
    }
  }
  if (first == n) {
    for (; i < n; ++i) {
      if (a[i] != b[i]) {
        first = i;
        break;
      }
    }
    if (first == n) {
      return false;
    }
  }
  // Terminates because the block containing `first` cannot be all-equal.
  size_t last = first + 1;
  for (size_t j = n;;) {
    if (j >= 4) {
      const int mask = EqMask4(a + j - 4, b + j - 4);
      if (mask == 0xf) {
        j -= 4;
        continue;
      }
      const unsigned mismatches = ~static_cast<unsigned>(mask) & 0xfu;
      last = j - 4 + static_cast<size_t>(31 - __builtin_clz(mismatches)) + 1;
      break;
    }
    if (a[j - 1] != b[j - 1]) {
      last = j;
      break;
    }
    --j;
  }
  *lo = static_cast<int32_t>(first);
  *hi = static_cast<int32_t>(last);
  return true;
}

const KernelOps kSse2Kernels{
    KernelTier::kSse2,
    ScanColorsSse2,
    PackBitmapRowSse2,
    RowDiffSpanSse2,
};

}  // namespace

const KernelOps* GetSse2Kernels() { return &kSse2Kernels; }

}  // namespace slim

#else  // !__SSE2__

namespace slim {
const KernelOps* GetSse2Kernels() { return nullptr; }
}  // namespace slim

#endif
