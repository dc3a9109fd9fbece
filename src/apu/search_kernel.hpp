// The complete SALTED-APU search pipeline in the bit-sliced execution model:
// load a batch of 64 candidate seeds, hash them all at once, and detect a
// match with an ASSOCIATIVE COMPARE — the operation the APU is named for:
// every digest bit-plane is XNORed against the broadcast target bit and the
// planes are ANDed into a one-bit-per-lane match mask, all in column cycles.
//
// This is the §3.3 execution shape: "each combination is used to generate
// 256 seed permutations, after which a new startup seed is loaded"; the
// early-exit flag is checked once per batch. Here the batch is 64 lanes
// (one plane word) — the host-model granularity; the cost accounting scales
// to the device's 65k/26k PEs through sim::ApuModel.
#pragma once

#include <optional>

#include "apu/keccak_kernel.hpp"
#include "apu/sha1_kernel.hpp"
#include "combinatorics/shell.hpp"
#include "common/types.hpp"

namespace rbc::apu {

struct ApuSearchResult {
  bool found = false;
  Seed256 seed;
  int distance = -1;
  u64 seeds_hashed = 0;
  /// Total column cycles spent (hashing + associative compares).
  u64 column_cycles = 0;
};

/// Plane-wise associative compare: returns a mask with bit l set iff lane
/// l's digest equals `target`. Costs 2 column ops per digest bit.
template <std::size_t N>
Plane associative_match(const std::array<hash::Digest<N>, kLanes>& digests,
                        const hash::Digest<N>& target, VectorUnit& vu) {
  // Transpose digests into planes on demand (byte-serial, charged as
  // broadcast/load traffic rather than compute).
  Plane match = ~0ULL;
  for (std::size_t byte = 0; byte < N; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Plane plane = 0;
      for (int l = 0; l < kLanes; ++l) {
        const unsigned lane_byte =
            digests[static_cast<unsigned>(l)].bytes[byte];
        plane |= static_cast<u64>((lane_byte >> bit) & 1u) << l;
      }
      const unsigned target_byte = target.bytes[byte];
      const Plane target_plane = ((target_byte >> bit) & 1u) ? ~0ULL : 0ULL;
      // XNOR then accumulate: two column ops per digest bit.
      match = vu.vand(match, vu.vnot(vu.vxor(plane, target_plane)));
    }
  }
  return match;
}

/// Searches the Hamming ball of radius d around s_init for a seed whose
/// hash (SHA-1 or SHA3-256, chosen by Hash policy x64 kernel) matches the
/// target digest, in 64-lane bit-sliced batches with per-batch exit checks.
template <typename Digest,
          void (*KernelX64)(const std::array<Seed256, kLanes>&,
                            std::array<Digest, kLanes>&, VectorUnit&),
          comb::SeedIteratorFactory Factory>
ApuSearchResult apu_bitsliced_search(const Seed256& s_init,
                                     const Digest& target, int d,
                                     const Factory& factory,
                                     VectorUnit& vu) {
  ApuSearchResult result;

  std::array<Seed256, kLanes> batch;
  std::array<Digest, kLanes> digests;

  auto flush_batch = [&](int filled, int shell) -> bool {
    // Unused lanes repeat lane 0 so kernel cost stays uniform; they cannot
    // produce spurious matches ahead of lane 0 itself.
    for (int l = filled; l < kLanes; ++l) batch[static_cast<unsigned>(l)] = batch[0];
    KernelX64(batch, digests, vu);
    const Plane match = associative_match(digests, target, vu);
    result.seeds_hashed += static_cast<u64>(filled);
    if (match != 0) {
      const int lane = std::countr_zero(match);
      if (lane < filled) {
        result.found = true;
        result.seed = batch[static_cast<unsigned>(lane)];
        result.distance = shell;
        return true;
      }
    }
    return false;
  };

  // Distance 0.
  batch[0] = s_init;
  if (flush_batch(1, 0)) {
    result.column_cycles = vu.counts().total();
    return result;
  }

  for (int shell = 1; shell <= d && !result.found; ++shell) {
    auto it = comb::shell_iterator(factory, shell);
    Seed256 mask;
    int filled = 0;
    while (it.next(mask)) {
      batch[static_cast<unsigned>(filled++)] = s_init ^ mask;
      if (filled == kLanes) {
        if (flush_batch(filled, shell)) break;
        filled = 0;
      }
    }
    if (!result.found && filled > 0) flush_batch(filled, shell);
  }
  result.column_cycles = vu.counts().total();
  return result;
}

}  // namespace rbc::apu
