// The hash dispatch levels a test can force on this host, and a guard that
// forces one for a scope.
#pragma once

#include <vector>

#include "hash/cpu_features.hpp"

namespace rbc::simd_levels {

using hash::SimdLevel;

/// Every rung of the dispatch ladder up to detected_simd_level().
inline std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= hash::detected_simd_level()) levels.push_back(level);
  }
  return levels;
}

/// Restores the process-wide dispatch level when a forced-level test exits.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : saved_(hash::active_simd_level()) {
    hash::force_simd_level(level);
  }
  ~ScopedSimdLevel() { hash::force_simd_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel saved_;
};

}  // namespace rbc::simd_levels
