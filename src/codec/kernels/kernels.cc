#include "src/codec/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

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

const KernelOps* Resolve() {
  const KernelTier best = BestSupportedTier();
  const char* value = std::getenv("SLIM_KERNELS");
  if (value == nullptr || *value == '\0') {
    return KernelsForTier(best);
  }
  const std::optional<KernelTier> forced = KernelTierFromName(value);
  if (!forced.has_value()) {
    std::fprintf(stderr,
                 "slim: ignoring SLIM_KERNELS='%s' (want scalar or sse2); using %s\n",
                 value, KernelTierName(best));
    return KernelsForTier(best);
  }
  const KernelOps* ops = KernelsForTier(*forced);
  if (ops == nullptr) {
    std::fprintf(stderr, "slim: SLIM_KERNELS=%s is not in this build; using %s\n",
                 KernelTierName(*forced), KernelTierName(best));
    return KernelsForTier(best);
  }
  return ops;
}

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

std::optional<KernelTier> KernelTierFromName(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (lower == "scalar") {
    return KernelTier::kScalar;
  }
  if (lower == "sse2") {
    return KernelTier::kSse2;
  }
  return std::nullopt;
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
    ops = Resolve();
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
