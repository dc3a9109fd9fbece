// Legacy algorithm-aware RBC search — the prior-work baseline of Table 7.
//
// Before RBC-SALTED, the server search generated a PUBLIC KEY for every
// candidate seed and compared it to the client's public key [29, 36, 39,
// 40]. The control structure is identical to Algorithm 1; only the
// per-candidate operation differs (keygen instead of hash), which is exactly
// the cost gap the paper exploits. This engine exists so the benches can
// measure that gap with real implementations (AES-128, LightSABER-like,
// Dilithium3-like) rather than quoting it.
#pragma once

#include <functional>
#include <mutex>
#include <optional>

#include "bits/seed256.hpp"
#include "combinatorics/shell.hpp"
#include "common/timer.hpp"
#include "crypto/pqc_keygen.hpp"
#include "parallel/early_exit.hpp"
#include "parallel/search_context.hpp"
#include "parallel/worker_group.hpp"
#include "rbc/search.hpp"

namespace rbc {

/// Same contract as rbc_search(), but the per-candidate operation is
/// public-key generation and the target is the client's public key bytes.
/// Each shell is one SPMD round in the prior-work shape: worker r walks
/// tile r of a plan cut into p equal tiles, with a barrier between shells.
template <crypto::SeedKeygen Keygen, comb::SeedIteratorFactory Factory>
SearchResult legacy_rbc_search(const Seed256& s_init, const Bytes& target_pk,
                               const Factory& factory,
                               par::WorkerGroup& workers,
                               const SearchOptions& opts,
                               const Keygen& keygen = {},
                               par::SearchContext* session = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  RBC_CHECK(opts.num_threads >= 1);

  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;

  // seeds_hashed counts keys generated for this engine.
  SearchResult result;
  WallTimer timer;
  if (detail::matches_at_distance_zero(s_init, target_pk, keygen, ctx, result,
                                       timer)) {
    return result;
  }
  std::mutex found_mutex;
  detail::Match found;

  const int p = opts.num_threads;
  std::vector<u64> generated(static_cast<std::size_t>(p), 0);
  const std::function<bool()> stop = [&ctx, &opts] {
    return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
  };

  for (int k = 1; k <= opts.max_distance; ++k) {
    if (stop()) break;
    const auto plan = factory.plan(
        k, comb::equal_split_stride(factory.n_bits(), k, static_cast<u64>(p)),
        stop);
    if (plan == nullptr) break;

    workers.parallel_workers(p, [&](int worker) {
      if (static_cast<u64>(worker) >= plan->tiles()) return;
      auto it = plan->make_tile(static_cast<u64>(worker));
      par::CheckThrottle throttle(opts.check_interval);
      u64 keys = 0;
      Seed256 mask;
      while (it.next(mask)) {
        if (throttle.due() && ctx.should_stop(opts.early_exit)) break;
        const Seed256 candidate = s_init ^ mask;
        ++keys;
        if (keygen(candidate) == target_pk) {
          {
            std::lock_guard lock(found_mutex);
            if (!found) found = {candidate, k};
          }
          ctx.signal_match();
          if (opts.early_exit) break;
        }
        // Keygen is orders of magnitude slower than hashing, so the
        // deadline is polled much more often relative to work done.
        if ((keys & 0xff) == 0) ctx.check_deadline();
      }
      generated[static_cast<std::size_t>(worker)] += keys;
      ctx.add_progress(keys);
    });

    ctx.check_deadline();
  }

  for (u64 g : generated) result.seeds_hashed += g;
  detail::finish(result, found, ctx, timer);
  return result;
}

}  // namespace rbc
