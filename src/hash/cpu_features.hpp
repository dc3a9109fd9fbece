// Runtime CPU-feature dispatch for the multi-lane seed-hash kernels.
//
// The batched hash pipeline dispatches on one ladder of three levels, each a
// superset of the one below:
//   * kScalar — one seed per call through the fixed-padding path (the
//               reference; always available);
//   * kAvx2   — 8x32-bit (SHA-1) / 4x64-bit (Keccak) vector lanes using AVX2
//               intrinsics, compiled with a per-function target attribute so
//               the rest of the binary needs no special -m flags;
//   * kAvx512 — 8x64-bit Keccak lanes in zmm registers (AVX-512F+VL:
//               vprolq rotations, vpternlogq parities and chi). SHA-1 has no
//               AVX-512 kernel and runs its AVX2 one at this level; a call's
//               Keccak remainder below 8 seeds takes the AVX2 4-lane group.
// The numeric values are the dispatch benches' row arguments; 1 stays
// unused so that archived /2 and /3 rows keep naming AVX2 and AVX-512.
//
// The level is picked once per process: the strongest ISA the host and its OS
// support, clamped by the RBC_HASH_SIMD environment knob (scalar|avx2|auto)
// that CI uses to run the equivalence suite under every dispatch outcome —
// `avx2` caps an AVX-512 host at the AVX2 kernels. Any other value stops the
// process. Tests may also force a level programmatically.
#pragma once

#include <string_view>

#include "common/types.hpp"

// x86-64 GCC/Clang accept both per-function targets, so one guard covers the
// AVX2 and the AVX-512 kernels.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RBC_HAVE_AVX2_TARGET 1
#define RBC_TARGET_AVX2 __attribute__((target("avx2")))
#define RBC_TARGET_AVX512 __attribute__((target("avx512f,avx512vl")))
#else
#define RBC_HAVE_AVX2_TARGET 0
#define RBC_TARGET_AVX2
#define RBC_TARGET_AVX512
#endif

namespace rbc::hash {

enum class SimdLevel : u8 { kScalar = 0, kAvx2 = 2, kAvx512 = 3 };

constexpr std::string_view to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

/// Strongest level this host can execute (CPUID probe; ignores the env).
SimdLevel detected_simd_level() noexcept;

/// Level the multi-lane kernels dispatch to: detected_simd_level() clamped
/// by RBC_HASH_SIMD and by any force_simd_level() override. The first call
/// reads RBC_HASH_SIMD and exits the process on a value it does not know.
SimdLevel active_simd_level() noexcept;

/// Test hook: pin the dispatch level for this process (clamped to what the
/// host supports). Pass detected_simd_level() to restore auto behaviour.
void force_simd_level(SimdLevel level) noexcept;

}  // namespace rbc::hash
