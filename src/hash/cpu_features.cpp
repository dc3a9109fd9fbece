#include "hash/cpu_features.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rbc::hash {

namespace {

SimdLevel probe_host() noexcept {
#if RBC_HAVE_AVX2_TARGET
  // libgcc and compiler-rt clear the AVX-512 bits unless XCR0 shows the OS
  // saves the ZMM state, so this also covers OS support.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

/// RBC_HASH_SIMD caps (never raises) the dispatch level; "auto" and the
/// unset variable leave the probed level untouched. Any other value exits
/// the process, so a typo never runs a level nobody asked for.
SimdLevel apply_env(SimdLevel probed) noexcept {
  const char* env = std::getenv("RBC_HASH_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0) return probed;
  if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(env, "avx2") == 0)
    return probed < SimdLevel::kAvx2 ? probed : SimdLevel::kAvx2;
  std::fprintf(stderr,
               "RBC_HASH_SIMD=%s: unknown level; use scalar, avx2 or auto\n",
               env);
  std::exit(EXIT_FAILURE);
}

std::atomic<SimdLevel>& active_level() noexcept {
  static std::atomic<SimdLevel> level{apply_env(probe_host())};
  return level;
}

}  // namespace

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel probed = probe_host();
  return probed;
}

SimdLevel active_simd_level() noexcept {
  return active_level().load(std::memory_order_relaxed);
}

void force_simd_level(SimdLevel level) noexcept {
  const SimdLevel cap = detected_simd_level();
  active_level().store(level < cap ? level : cap, std::memory_order_relaxed);
}

}  // namespace rbc::hash
