// Cross-session lane fusion: continuous batching of hash work.
//
// The PR-3 batch layer fills a PRIVATE 16-lane block per search, so a small
// session (d <= 2: a few hundred to ~33k candidates) spends most of its
// serving cost on per-session setup — shell iterators, WorkerGroup
// round-trips — and its final ragged block leaves lanes idle exactly when
// the server is busiest. The multi-buffer kernels hash unrelated buffers
// per lane, so nothing requires a batch's lanes to belong to one session.
//
// FusionEngine is the serving-side fix: one engine per shard implements
// rbc::SearchOffload. Driver threads submit a session's search; the engine
// turns it into a resumable candidate stream and a single pump thread deals
// lane slots of shared full-width sha1_seed_multi / sha3_256_seed_multi
// batches across every in-flight stream. The stream follows the same rule
// as the solo search: an OrderedBallStream when the CA attached a
// reliability order, otherwise a TableCandidateStream (O(1) setup against
// process-wide shell mask tables) over the iterator family the CA passes
// in — its backend's.
//
//   * admission  — try_search accepts a search when its modeled ball size
//     is at or below kMaxBallSeeds; anything larger, exhaustive-mode
//     searches, and post-shutdown calls decline and fall through to the
//     session's normal backend path. There is no bound of its own: each
//     caller blocks on its one search, so a shard's run queue never holds
//     more streams than the shard has drivers.
//   * fairness   — each batch deals lane slots round-robin over the active
//     streams in earliest-deadline-first order, so a tight-deadline stream
//     is served first every batch and no stream starves.
//   * retirement — a stream leaves the batch on match, ball exhaustion,
//     deadline expiry or cancel; its lane slots are backfilled from the
//     remaining streams and the pending queue within the same batch.
//
// Equivalence contract (tested in tests/fusion_test.cpp): for a given
// (S_init, digest) the fused path reports the same verdict, seed, distance
// and the exact same seeds_hashed as the solo single-thread search — the
// stream enumerates in the solo search's order and counting stops at the
// match, mirroring the solo loop's `counted = i + 1`; the verdict is
// written by the solo search's detail::finish.
#pragma once

#include <memory>

#include "rbc/engines.hpp"

namespace rbc::server {

/// Counters behind ServerStats' fusion fields. Occupancy is
/// lanes_filled / lanes_issued: the fraction of dealt lane slots that
/// carried a candidate (idle slots appear only when every stream drained
/// mid-batch with nothing left to backfill from).
struct FusionStats {
  u64 fused_sessions = 0;  // searches absorbed into shared batches
  u64 declined = 0;        // try_search offers that fell through to solo
  u64 batch_count = 0;     // fused multi-lane batches issued
  u64 lanes_filled = 0;    // lane slots that carried a candidate
  u64 lanes_issued = 0;    // lane slots available across issued batches
};

class FusionEngine final : public SearchOffload {
 public:
  /// Largest ball (candidate count through max_distance, d0 included) the
  /// engine absorbs; larger searches decline to the solo path. Admits
  /// balls through d = 2 (32 897 candidates over 256 bits) and declines
  /// d >= 3, which also bounds the shell mask tables to ~65 KiB.
  static constexpr u64 kMaxBallSeeds = u64{1} << 16;

  /// `batch_lanes`: lane slots per fused batch, clamped to
  /// 1..hash::kMaxTaggedLanes. Wider batches amortize dispatch across more
  /// sessions; 32 = two full kernel blocks.
  explicit FusionEngine(int batch_lanes = 32);
  ~FusionEngine() override;

  FusionEngine(const FusionEngine&) = delete;
  FusionEngine& operator=(const FusionEngine&) = delete;

  /// Blocking: enqueues the search as a candidate stream over `family`
  /// (or the reliability order in `opts`) and waits for the pump to retire
  /// it. Returns nullopt to decline (see header comment); the caller then
  /// runs its own backend.
  std::optional<EngineReport> try_search(const Seed256& s_init,
                                         ByteSpan digest, hash::HashAlgo algo,
                                         sim::IterAlgo family,
                                         const SearchOptions& opts,
                                         par::SearchContext* session) override;

  FusionStats stats() const;

  /// Declines new work, retires in-flight streams as cancelled, joins the
  /// pump. Idempotent; the destructor calls it. Shards call this AFTER
  /// joining their drivers so in-flight sessions drain normally first.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rbc::server
