// Pins a whole test binary to one kernel tier when SLIM_KERNELS names it.
//
// The library has no tier override; dispatch is fixed by the build. The tier-forced
// ctest entries (kernels_test_scalar / _sse2, damage_tracker_test_scalar_kernels) set
// SLIM_KERNELS=scalar|sse2, and a test file that includes this header installs that
// tier through ScopedKernelsForTest for the run, before any test starts. Unset leaves
// dispatch alone. A name no tier has fails the run; a tier this build lacks leaves
// dispatch alone too, and KernelsTest.DispatchHonorsForcedTier skips on it.

#ifndef TESTS_FORCED_KERNELS_H_
#define TESTS_FORCED_KERNELS_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>

#include "src/codec/kernels/kernels.h"

namespace slim {

// The tier SLIM_KERNELS names (spelled as KernelTierName spells it), or nullopt when unset.
inline std::optional<KernelTier> ForcedKernelTier() {
  const char* name = std::getenv("SLIM_KERNELS");
  if (name == nullptr || *name == '\0') {
    return std::nullopt;
  }
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kSse2}) {
    if (std::strcmp(name, KernelTierName(tier)) == 0) {
      return tier;
    }
  }
  ADD_FAILURE() << "SLIM_KERNELS='" << name << "' names no kernel tier";
  return std::nullopt;
}

class ForcedKernelsEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const std::optional<KernelTier> tier = ForcedKernelTier();
    if (tier.has_value() && KernelsForTier(*tier) != nullptr) {
      scope_.emplace(KernelsForTier(*tier));
    }
  }
  void TearDown() override { scope_.reset(); }

 private:
  std::optional<ScopedKernelsForTest> scope_;
};

inline ::testing::Environment* const kForcedKernelsEnvironment =
    ::testing::AddGlobalTestEnvironment(new ForcedKernelsEnvironment);

}  // namespace slim

#endif  // TESTS_FORCED_KERNELS_H_
