// Multi-lane SHA-1 over fixed 32-byte seeds — the batched half of the
// fixed-padding fast path in sha1.hpp.
//
// One call compresses a whole block of candidate seeds: at AVX2 and above
// the 80-round compression runs over 8 independent message lanes at once,
// so the per-round dependent chain of one hash overlaps with its
// neighbours'; the remainder below 8 seeds, and every seed at the scalar
// level, takes sha1_seed(). This is the standard multi-buffer construction
// used by high-throughput hashing stacks; it changes nothing about the
// digest — each lane computes exactly sha1_seed() of its seed.
//
// The one entry point, sha1_seed_multi_level, hashes `count` seeds (any
// count, ragged tails included) at an explicit level, which must not exceed
// detected_simd_level(): the scan's SHA-1 block form
// (Sha1BatchSeedHash::hash_heads_producing, batch.hpp) passes the scan's
// level, and the equivalence tests and dispatch benches force one.
#pragma once

#include "bits/seed256.hpp"
#include "hash/cpu_features.hpp"
#include "hash/digest.hpp"

namespace rbc::hash {

/// out[i] = sha1_seed(seeds[i]) for i in [0, count), at `level`, which
/// must be supported by this host.
void sha1_seed_multi_level(SimdLevel level, const Seed256* seeds,
                           std::size_t count, Digest160* out) noexcept;

}  // namespace rbc::hash
