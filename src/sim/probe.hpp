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

/// Iterate+hash throughput for one seed-iterator family over shell k —
/// the quantity Table 4 compares. Runs the real iterator + real hash.
ProbeResult probe_iterate_and_hash(IterAlgo iter, hash::HashAlgo hash, int k,
                                   u64 max_seeds);

/// Same loop shape as the batched search hot loop: refill a candidate block
/// from the iterator by XOR-delta, then hash all lanes at once.
ProbeResult probe_iterate_and_hash_batched(IterAlgo iter, hash::HashAlgo hash,
                                           int k, u64 max_seeds);

/// Public-key generation throughput (legacy RBC per-candidate cost).
ProbeResult probe_keygen(crypto::KeygenAlgo algo, u64 iterations);

}  // namespace rbc::sim
