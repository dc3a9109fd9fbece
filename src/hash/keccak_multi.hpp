// Multi-lane SHA3-256 over fixed 32-byte seeds — the batched half of the
// §3.2.2 fixed-padding fast path in keccak.hpp.
//
// One call runs Keccak-f[1600] over several independent sponge states at
// once: the SWAR kernel carries 4 states as per-lane arrays (unrollable /
// auto-vectorizable), the AVX2 kernel packs one 64-bit Keccak lane position
// of 4 states per ymm register — the classic "times-4" construction — and
// the AVX-512 kernel does the same for 8 states per zmm register. At the
// AVX-512 level a call runs 8-lane groups, then one 4-lane AVX2 group, then
// the scalar tail. Each lane computes exactly sha3_256_seed() of its seed:
// the fixed single-block absorb (4 word stores + 2 pad constants) is
// replicated per lane, so no padding logic runs on the hot path.
//
// Entry points mirror sha1_multi.hpp: a dispatching form plus a forced-level
// form for the equivalence tests and dispatch benches.
#pragma once

#include "bits/seed256.hpp"
#include "hash/cpu_features.hpp"
#include "hash/digest.hpp"

namespace rbc::hash {

/// out[i] = sha3_256_seed(seeds[i]) for i in [0, count).
void sha3_256_seed_multi(const Seed256* seeds, std::size_t count,
                         Digest256* out) noexcept;

/// Forced-level variant. `level` must be supported by this host.
void sha3_256_seed_multi_level(SimdLevel level, const Seed256* seeds,
                               std::size_t count, Digest256* out) noexcept;

}  // namespace rbc::hash
