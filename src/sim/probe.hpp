// Host throughput probe: measures the REAL per-candidate cost of this
// build's hash/iterator/keygen implementations on the machine running the
// benches.
//
// Every bench prints three columns: the paper's published number, the
// calibrated device-model number, and a host-measured number produced with
// these probes (scaled-down workloads, real code). The probe keeps the
// simulation honest — e.g. the SHA-3/SHA-1 cost ratio and the
// keygen-vs-hash gap must emerge from the real implementations, not just
// from calibration constants.
#pragma once

#include <string>

#include "common/types.hpp"
#include "crypto/pqc_keygen.hpp"
#include "hash/traits.hpp"
#include "sim/calibration.hpp"

namespace rbc::sim {

struct ProbeResult {
  std::string what;
  u64 operations = 0;
  double seconds = 0.0;

  double ns_per_op() const noexcept {
    return operations == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(operations);
  }
  double ops_per_second() const noexcept {
    return seconds == 0.0 ? 0.0 : static_cast<double>(operations) / seconds;
  }
};

/// Seed hashing throughput (fast fixed-input path).
ProbeResult probe_hash(hash::HashAlgo algo, u64 iterations);

/// Seed hashing throughput through the generic streaming path
/// (the "before" side of the §3.2.2 ablation).
ProbeResult probe_hash_generic(hash::HashAlgo algo, u64 iterations);

// The Table 4 probes walk the first `max_seeds` candidates of shell k
// around one random base, in the family's order from rank 0 (Algorithm 515
// in unrank-each mode), and stop at the end of the shell.

/// Iterate, then hash each candidate with the scalar hash: the unfused loop
/// §4.5's fused kernel is compared against.
ProbeResult probe_iterate_and_hash(IterAlgo iter, hash::HashAlgo hash, int k,
                                   u64 max_seeds);

/// The search's own scan: hash::SeedScan (SHA-3, the active dispatch level)
/// over the family's candidate source, with no match — at AVX-512 the Chase
/// source steps inside the Keccak rounds (§4.5's fused kernel).
ProbeResult probe_scan(IterAlgo iter, int k, u64 max_seeds);

/// The same scan over the same candidates replayed from an array, built
/// before the timer starts. probe_scan minus this is the iterator's share.
ProbeResult probe_scan_replay(IterAlgo iter, int k, u64 max_seeds);

/// Public-key generation throughput (legacy RBC per-candidate cost).
ProbeResult probe_keygen(crypto::KeygenAlgo algo, u64 iterations);

}  // namespace rbc::sim
