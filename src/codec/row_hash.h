// The row hash shared by the damage tracker's shadow-frame diffing and the scroll
// detector's row index.
//
// A straight FNV-1a over a row is a serial multiply chain — ~5 cycles of latency per
// pixel, which dominates the whole damage pipeline once every flushed row gets hashed.
// Splitting the row across four independent FNV-1a lanes breaks the chain (the four
// multiplies retire in parallel) and folds the lanes at the end, roughly quadrupling
// throughput while keeping the mixing quality of the underlying FNV step.
//
// Every comparison in the pipeline is hash-to-hash with BOTH sides produced by this
// function (shadow row hashes vs current-frame row hashes, before vs after scroll rows),
// so the exact constants only need to mix well — but producers and consumers must agree
// on this one definition, which is why it lives in a shared header. The output is pinned
// by bench_kernels' parity.row_hash.checksum.

#ifndef SRC_CODEC_ROW_HASH_H_
#define SRC_CODEC_ROW_HASH_H_

#include <cstdint>
#include <span>

#include "src/fb/framebuffer.h"

namespace slim {

inline uint64_t RowHash64(std::span<const Pixel> row) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ull;  // == (1 << 40) + 0x1b3
  uint64_t h0 = 0xcbf29ce484222325ull;
  uint64_t h1 = 0x9e3779b97f4a7c15ull;
  uint64_t h2 = 0xbf58476d1ce4e5b9ull;
  uint64_t h3 = 0x94d049bb133111ebull;
  const Pixel* p = row.data();
  const size_t n = row.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = (h0 ^ p[i]) * kFnvPrime;
    h1 = (h1 ^ p[i + 1]) * kFnvPrime;
    h2 = (h2 ^ p[i + 2]) * kFnvPrime;
    h3 = (h3 ^ p[i + 3]) * kFnvPrime;
  }
  for (; i < n; ++i) {
    h0 = (h0 ^ p[i]) * kFnvPrime;
  }
  // Lane fold + SplitMix64-style avalanche.
  uint64_t h = (((h0 ^ h1) * kFnvPrime ^ h2) * kFnvPrime ^ h3) * kFnvPrime;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace slim

#endif  // SRC_CODEC_ROW_HASH_H_
