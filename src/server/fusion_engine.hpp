// Lane fusion: one pump thread per shard runs every small search in turns.
//
// A small session (d <= 2: a few hundred to ~33k candidates) costs little
// to hash, so on the solo path most of its serving cost is per-session
// setup and a driver thread per search. FusionEngine is the serving-side
// fix: one engine per shard implements rbc::SearchOffload. Driver threads
// submit a session's search and block; a single pump thread runs every
// admitted search and gives each one turn per round. A search is the solo
// search's own scan (detail::scan_stream in rbc/search.hpp): one
// hash::SeedScan over each shell's candidate source, shell_candidates(k)
// of a BallStream over the iterator family the CA passes in (its
// backend's), or of an OrderedBallStream when the CA attached a
// reliability order. For SHA-3 at AVX-512 a Chase source steps inside the
// Keccak rounds (§4.5's fused kernel), as on every other search path.
//
//   * admission  — try_search accepts a search when its modeled ball size
//     is at or below kMaxBallSeeds; anything larger, exhaustive-mode
//     searches, and post-shutdown calls decline and fall through to the
//     session's normal backend path. There is no bound of its own: each
//     caller blocks on its one search, so a shard's run queue never holds
//     more searches than the shard has drivers.
//   * turns      — a search's first turn hashes S_init alone with the
//     scalar policy, as the solo search's distance 0 does; each later turn
//     scans up to ceil(lanes / 8) 8-lane blocks and ends at a match.
//   * fairness   — each round sorts the active searches earliest deadline
//     first (admission order breaks ties) and reads the clock once; it
//     stops every started search that is cancelled or past its deadline
//     and gives every other search one turn, so none starves.
//   * retirement — a search leaves the round on match, ball exhaustion,
//     deadline expiry or cancel.
//
// Equivalence contract (tested in tests/fusion_test.cpp): for a given
// (S_init, digest) the fused path reports the same verdict, seed, distance
// and the exact same seeds_hashed as the solo single-thread search — both
// scan the same sources in the same order and count through the match;
// the verdict is written by the solo search's detail::finish.
#pragma once

#include <memory>

#include "rbc/engines.hpp"

namespace rbc::server {

/// Counters behind ServerStats' fusion fields. Fused searches hash 8-lane
/// blocks; occupancy is lanes_filled / lanes_issued, the fraction of hashed
/// lanes that were judged (the rest are the lanes past a match).
struct FusionStats {
  u64 fused_sessions = 0;  // searches the pump ran
  u64 declined = 0;        // try_search offers that fell through to solo
  u64 batch_count = 0;     // pump rounds that hashed a block
  u64 lanes_filled = 0;    // candidates judged in the hashed blocks
  u64 lanes_issued = 0;    // 8 x blocks hashed
};

class FusionEngine final : public SearchOffload {
 public:
  /// Largest ball (candidate count through max_distance, d0 included) the
  /// engine absorbs; larger searches decline to the solo path. Admits
  /// balls through d = 2 (32 897 candidates over 256 bits) and declines
  /// d >= 3, whose 2.8M-candidate balls belong on the tiled path.
  static constexpr u64 kMaxBallSeeds = u64{1} << 16;

  /// `lanes`: candidates a search's turn may hash, rounded up to whole
  /// 8-lane blocks (at least one). Longer turns take the pump's round
  /// overhead less often; shorter ones rotate between searches sooner.
  explicit FusionEngine(int lanes = 32);
  ~FusionEngine() override;

  FusionEngine(const FusionEngine&) = delete;
  FusionEngine& operator=(const FusionEngine&) = delete;

  /// Blocking: enqueues the search over `family` (or the reliability order
  /// in `opts`) and waits for the pump to retire it. Returns nullopt to
  /// decline (see header comment); the caller then runs its own backend.
  std::optional<EngineReport> try_search(const Seed256& s_init,
                                         ByteSpan digest, hash::HashAlgo algo,
                                         sim::IterAlgo family,
                                         const SearchOptions& opts,
                                         par::SearchContext* session) override;

  FusionStats stats() const;

  /// Declines new work, retires in-flight searches as cancelled, joins the
  /// pump. Idempotent; the destructor calls it. Shards call this AFTER
  /// joining their drivers so in-flight sessions drain normally first.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rbc::server
