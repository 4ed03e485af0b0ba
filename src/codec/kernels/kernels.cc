#include "src/codec/kernels/kernels.h"

#include <atomic>

#include "src/codec/kernels/kernels_internal.h"

namespace slim {

namespace {

const KernelOps kScalarKernels{
    KernelTier::kScalar,
    ScanColorsScalar,
    PackBitmapRowScalar,
    RowDiffSpanScalar,
};

// Resolved-once dispatch table. Resolution races are benign: every racer computes the
// same value, and the pointer is only ever swapped afterwards by ScopedKernelsForTest.
std::atomic<const KernelOps*> g_kernels{nullptr};

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kSse2:
      return "sse2";
  }
  return "unknown";
}

const KernelOps* KernelsForTier(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return &kScalarKernels;
    case KernelTier::kSse2:
      return GetSse2Kernels();
  }
  return nullptr;
}

KernelTier BestSupportedTier() {
#if defined(__SSE2__)
  return KernelTier::kSse2;
#else
  return KernelTier::kScalar;
#endif
}

const KernelOps& Kernels() {
  const KernelOps* ops = g_kernels.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = KernelsForTier(BestSupportedTier());
    g_kernels.store(ops, std::memory_order_release);
  }
  return *ops;
}

ScopedKernelsForTest::ScopedKernelsForTest(const KernelOps* ops) {
  saved_ = &Kernels();  // force resolution so the restore puts back a real table
  g_kernels.store(ops, std::memory_order_release);
}

ScopedKernelsForTest::~ScopedKernelsForTest() {
  g_kernels.store(saved_, std::memory_order_release);
}

}  // namespace slim
