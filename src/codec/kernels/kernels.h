// Pixel-kernel layer with one dispatch choice per process.
//
// The encoder's and damage tracker's compare-shaped hot loops (two-color scanning, bitmap
// bit-packing, row diffing) funnel through the function pointers in KernelOps. A tier is
// one complete implementation of that table: scalar (the portable reference) and SSE2,
// which is part of x86-64 and so is compiled whenever the build targets it. Dispatch is
// fixed by the build (BestSupportedTier) and published through the metric registry as
// `codec.kernels.tier`; only tests swap the table, through ScopedKernelsForTest.
//
// The load-bearing invariant: EVERY tier is bit-identical to the scalar reference on
// every input (same first/second color choice, same packed bits, same diff span). The
// encoder's wire output therefore does not depend on the machine the server runs on.
// tests/kernels_test.cc fuzzes each tier against scalar across widths 0..257 and
// unaligned offsets; never add a tier function that "almost" matches.

#ifndef SRC_CODEC_KERNELS_KERNELS_H_
#define SRC_CODEC_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/fb/framebuffer.h"

namespace slim {

enum class KernelTier : uint8_t {
  kScalar = 0,
  kSse2 = 1,
};

const char* KernelTierName(KernelTier tier);

// Incremental state for the encoder's two-color classification. `distinct` saturates at
// 3 (meaning "more than two"); `first`/`second` are the first two distinct pixel values
// in scan order, exactly as the scalar loop would have picked them.
struct ColorScan {
  int distinct = 0;
  Pixel first = 0;
  Pixel second = 0;
};

struct KernelOps {
  KernelTier tier = KernelTier::kScalar;

  // Feeds n pixels into `scan`, early-exiting as soon as distinct hits 3. Safe to call
  // row by row with the same state.
  void (*scan_colors)(const Pixel* row, size_t n, ColorScan* scan);

  // Packs one row to 1bpp MSB-first: bit (7 - i%8) of out[i/8] is 1 iff row[i] == fg.
  // Writes exactly (n+7)/8 bytes; trailing bits of the last byte are zero.
  void (*pack_bitmap_row)(const Pixel* row, size_t n, Pixel fg, uint8_t* out);

  // Returns false when a[0..n) == b[0..n); otherwise true with *lo / *hi set to the
  // first differing index and one past the last differing index.
  bool (*row_diff_span)(const Pixel* a, const Pixel* b, size_t n, int32_t* lo,
                        int32_t* hi);
};

// The dispatch table for `tier`, or nullptr when that tier is not compiled in.
// KernelTier::kScalar never returns nullptr.
const KernelOps* KernelsForTier(KernelTier tier);

// What dispatch picks, fixed at compile time: kSse2 when the build targets SSE2 (every
// x86-64 build), otherwise kScalar.
KernelTier BestSupportedTier();

// The process-wide kernel table: BestSupportedTier()'s, unless a ScopedKernelsForTest
// is alive.
const KernelOps& Kernels();

// Test-only: overrides Kernels() for the scope of the object (tests/kernels_test.cc uses
// it to prove wire-stream equality per tier, and tests/forced_kernels.h to pin a whole
// test binary to one tier).
class ScopedKernelsForTest {
 public:
  explicit ScopedKernelsForTest(const KernelOps* ops);
  ~ScopedKernelsForTest();
  ScopedKernelsForTest(const ScopedKernelsForTest&) = delete;
  ScopedKernelsForTest& operator=(const ScopedKernelsForTest&) = delete;

 private:
  const KernelOps* saved_;
};

// The SSE2 table (kernels_sse2.cc), or nullptr when the build does not target SSE2.
const KernelOps* GetSse2Kernels();

}  // namespace slim

#endif  // SRC_CODEC_KERNELS_KERNELS_H_
