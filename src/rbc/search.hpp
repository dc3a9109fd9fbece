// The RBC-SALTED search core — Algorithm 1 of the paper.
//
// Given the enrolled seed S_init and the client's message digest M1, search
// the Hamming ball around S_init shell by shell: work units XOR each shell
// mask into S_init, hash, and compare against M1. The first match signals
// the session's SearchContext (lines 7/15); the context's deadline bounds
// the whole search (§3: "RBC uses a time threshold for which it must
// authenticate a client").
//
// Every path runs one inner loop, hash::SeedScan (hash/batch.hpp): a
// candidate source (comb::candidates: S_init ^ each mask of a tile or
// shell) writes 8-candidate blocks in the hash kernels' lane layout, each
// block is hashed to 64-bit digest heads while the source writes the next
// one, a head match is confirmed on the full digest, and the visit-order
// prefix is counted (through the match under early exit). For SHA-3 at
// AVX-512, a Chase source steps inside the Keccak rounds (§4.5's fused
// kernel, hash/keccak_lanes.hpp). Two drivers feed it (see
// docs/scheduler.md):
//
//   * Multi-unit searches tile: the ball is decomposed into fixed-size
//     tiles (comb::ShellTiler) that par::TileScheduler's one cursor hands
//     out in shell order, one per claim, and detail::drain_tiles drains;
//     the GPU-emu kernels and the hetero co-search share that loop. Chase
//     tile plans are walked once per process; on a cold cache, one extra
//     pipeline unit fetches shell k+1's plan while shell k's tiles drain,
//     so workers flow across shell boundaries instead of parking at a
//     barrier. Exhaustive mode records the MINIMAL shell containing a
//     match (shells overlap in flight), and per-tile accounting keeps
//     `seeds_hashed` visit-order exact.
//   * Single-unit searches stream: the calling thread scans a BallStream
//     (candidate_stream.hpp) shell by shell in canonical order
//     (detail::scan_stream). A reliability order streams an
//     OrderedBallStream instead, at any unit count; the fused engine picks
//     its streams by the same rule.
//
// tests/search_oracle_test.cpp checks every path against brute force.
//
// Concurrency: rounds run on a WorkerGroup, so any number of sessions can
// search at once over one set of worker threads. All stop conditions flow
// through the SearchContext:
//   * match found   — stops the round under the early-exit policy only;
//   * cancellation  — deadline expiry or an external cancel(); honored
//                     UNCONDITIONALLY, including in exhaustive mode.
//
// The function template is monomorphized over the hash policy and the seed
// iterator factory so the hot loop compiles to straight-line code — the same
// reason the paper fuses seed iteration and hashing into one GPU kernel
// (§4.5). Scalar policies run the loop with a block of one, so results and
// accounting are identical across policies. A stop (match under early exit,
// deadline, cancel) leaves the block produced ahead uncounted.
#pragma once

#include <functional>
#include <mutex>
#include <optional>

#include "bits/seed256.hpp"
#include "combinatorics/shell.hpp"
#include "combinatorics/tiler.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "hash/batch.hpp"
#include "hash/traits.hpp"
#include "obs/trace.hpp"
#include "parallel/early_exit.hpp"
#include "parallel/search_context.hpp"
#include "parallel/tile_scheduler.hpp"
#include "parallel/worker_group.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc {

struct SearchOptions {
  /// Maximum Hamming distance d to search (inclusive).
  int max_distance = 3;
  /// Work units (p in Algorithm 1). Units multiplex onto the worker group,
  /// so this may exceed the group's thread count. A multi-unit search adds
  /// one pipeline unit on top; a single-unit search runs on the calling
  /// thread.
  int num_threads = 1;
  /// Seeds iterated between stop-condition checks (§4.4 knob): both the
  /// early-exit flag and the deadline are consulted at this cadence, rounded
  /// up to whole hash batches. §4.4 found intervals 1..64 indistinguishable;
  /// 256 keeps the clock read and flag poll far off the per-seed fast path
  /// while still bounding stop latency to microseconds.
  u32 check_interval = 256;
  /// When false, the search visits every seed up to d even after a match —
  /// the "exhaustive" timing scenario of the evaluation. Cancellation and
  /// deadlines still apply.
  bool early_exit = true;
  /// Authentication time threshold T, seconds of host wall clock. Used to
  /// build a local SearchContext when the caller does not provide one; a
  /// caller-provided session context carries its own deadline instead.
  double timeout_s = 20.0;
  /// Candidate seeds per scheduler tile of a multi-unit search; 0 picks
  /// comb::ShellTiler::kDefaultTileSeeds.
  u64 tile_seeds = 0;
  /// Bench/test instrumentation: when set, each work unit calls
  /// hook(unit, seeds) after every scheduling quantum — a tile of a
  /// multi-unit search, a check-interval batch of a single-unit one — with
  /// the seeds it just hashed. The skewed-workload bench injects a sleeping
  /// straggler through this. Leave empty in production; it runs on the hot
  /// path.
  std::function<void(int unit, u64 seeds)> quantum_hook;
  /// Per-bit reliability order, built by the CA from the device's
  /// enrollment profile when CaConfig::search_order asks for it (shared
  /// with the session that fetched the record). When set, each shell is
  /// walked maximum-likelihood-first (OrderedBallStream); the ordered walk
  /// is inherently sequential, so it runs single-unit regardless of
  /// num_threads. Null walks the iterator family's canonical order.
  std::shared_ptr<const comb::ReliabilityOrder> reliability;
  /// Likelihood-ordered head size per shell (masks). Shells no larger than
  /// this are fully likelihood-ordered; bigger shells emit this many
  /// most-likely masks first, then fall back to a canonical tail that skips
  /// them (see OrderedBallStream). Bounds the enumerator frontier memory.
  u64 ordered_budget = OrderedBallStream::kDefaultOrderedBudget;
};

struct SearchResult {
  bool found = false;
  Seed256 seed;              // the matching candidate, when found
  int distance = -1;         // shell where the match occurred
  u64 seeds_hashed = 0;      // total candidates hashed across threads
  double host_seconds = 0.0; // wall-clock duration of the search
  bool timed_out = false;    // deadline hit before the ball was exhausted
  bool cancelled = false;    // externally cancelled before completion
  /// 1-based position the match would have held in the canonical ball order
  /// (S_init = 1, then shells in colex order). Only set when found; lets the
  /// server report how much the reliability order saved — in canonical
  /// order with early exit it simply equals seeds_hashed.
  u64 canonical_rank = 0;
};

namespace detail {

/// A search's match: the candidate and its shell.
using Match = std::optional<std::pair<Seed256, int>>;

/// A match concurrent units record into. Shells overlap in flight, so it
/// keeps the minimal shell: exhaustive mode still reports the true
/// distance.
struct MatchSlot {
  std::mutex mutex;
  Match match;

  void record(const Seed256& seed, int shell) {
    std::lock_guard lock(mutex);
    if (!match || shell < match->second) match = {seed, shell};
  }
};

/// Lines 4-8: distance 0, S_init itself (unit r = 0's job), checked with
/// `op` before any shell is opened. Counts it; on a match `result` is final.
template <typename Op, typename Target>
bool matches_at_distance_zero(const Seed256& s_init, const Target& target,
                              const Op& op, par::SearchContext& ctx,
                              SearchResult& result, const WallTimer& timer) {
  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (!(op(s_init) == target)) return false;
  result.found = true;
  result.seed = s_init;
  result.distance = 0;
  result.host_seconds = timer.elapsed_s();
  return true;
}

/// Writes a finished search's verdict: its match, or why it stopped short.
inline void finish(SearchResult& result, const Match& found,
                   const par::SearchContext& ctx, const WallTimer& timer) {
  if (found) {
    result.found = true;
    result.seed = found->first;
    result.distance = found->second;
  } else {
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
}

/// The stop cadence in whole scan blocks: `check_interval` seeds rounded up
/// to SeedScan blocks of policy Hash, so a poll never splits a block.
template <hash::SeedHash Hash>
u32 blocks_per_check(u32 check_interval) {
  constexpr u64 kBlock = hash::SeedScan<Hash>::kLanes;
  return static_cast<u32>((std::max<u64>(check_interval, 1) + kBlock - 1) /
                          kBlock);
}

/// One search's shell plans, fetched on first need and kept until it ends.
/// Chase plans come from the process-wide single-flight cache: a unit
/// needing a shell that another unit (or another search) is walking waits
/// for that walk while polling `stop`, so a deadline, cancel or match still
/// ends it promptly. A walk `stop` cut short yields nullptr.
template <comb::SeedIteratorFactory Factory>
class ShellPlans {
 public:
  using Ptr = std::shared_ptr<const typename Factory::shell_plan>;

  ShellPlans(const Factory& factory, const comb::ShellTiler& tiler,
             std::function<bool()> stop)
      : factory_(factory),
        tiler_(tiler),
        stop_(std::move(stop)),
        plans_(static_cast<std::size_t>(tiler.max_distance()) + 1) {}

  Ptr get(int k) {
    const auto slot = static_cast<std::size_t>(k);
    {
      std::lock_guard lock(mutex_);
      if (plans_[slot] != nullptr) return plans_[slot];
    }
    Ptr plan = factory_.plan(k, tiler_.stride(k), stop_);
    std::lock_guard lock(mutex_);
    if (plans_[slot] == nullptr) plans_[slot] = plan;
    return plan;
  }

  /// A claimed tile's iterator; empty when `stop` cut its plan short.
  std::optional<typename Factory::iterator> open(
      const par::TileScheduler::Tile& tile) {
    const Ptr plan = get(tile.shell);
    if (plan == nullptr) return std::nullopt;
    return plan->make_tile(tile.index);
  }

 private:
  const Factory& factory_;
  const comb::ShellTiler& tiler_;
  const std::function<bool()> stop_;
  std::vector<Ptr> plans_;
  std::mutex mutex_;
};

/// The tile loop of every tiled path: the multi-unit search below, the
/// GPU-emu shell kernel and both sides of the hetero co-search
/// (gpu/salted_kernel.hpp). The calling unit claims tiles until none is
/// left or `stop()` fires; `open(tile)` turns a claimed tile into a mask
/// iterator, and an empty optional ends the unit. Each tile's candidates
/// are scanned block by block, `stop()` polled every `check_blocks` blocks;
/// a fully visited tile completes on the scheduler. A match goes to
/// `record(seed, shell)`; under `early_exit` the lanes past it are not
/// counted and the unit ends. `on_tile(seeds)` sees each tile's count.
/// Returns the seeds the unit hashed.
template <hash::SeedHash Hash, typename Open, typename Stop, typename Record,
          typename OnTile>
u64 drain_tiles(par::TileScheduler& sched, const Seed256& s_init,
                const typename Hash::digest_type& target, const Hash& hash,
                bool early_exit, u32 check_blocks, Open&& open, Stop&& stop,
                Record&& record, OnTile&& on_tile) {
  hash::SeedScan<Hash> scan(hash, target, early_exit);
  u64 hashed = 0;
  bool matched = false;
  par::TileScheduler::Tile tile;
  while (!matched && !stop() && sched.acquire(tile)) {
    auto it = open(tile);
    if (!it) break;
    auto source = comb::candidates(*it, s_init);
    scan.start(source);
    par::CheckThrottle throttle(check_blocks);
    u64 tile_hashed = 0;
    bool tile_done = true;  // fully visited (completes the watermark)
    while (scan.pending()) {
      if (throttle.due() && stop()) {
        tile_done = false;
        break;
      }
      const hash::BlockScan block = scan.step(source);
      tile_hashed += block.counted;
      if (!block.found()) continue;
      record(*block.match, tile.shell);
      if (early_exit) {
        matched = true;
        tile_done = false;
        break;
      }
    }
    hashed += tile_hashed;
    if (tile_done) sched.complete(tile);
    on_tile(tile_hashed);
  }
  return hashed;
}

/// Tiled driver. Assumes distance 0 was already checked and missed; fills
/// everything but host_seconds / the d0 contribution.
template <hash::SeedHash Hash, comb::SeedIteratorFactory Factory>
void rbc_search_tiled(const Seed256& s_init,
                      const typename Hash::digest_type& target,
                      const Factory& factory, par::WorkerGroup& workers,
                      const SearchOptions& opts, const Hash& hash,
                      par::SearchContext& ctx, SearchResult& result,
                      Match& found) {
  const int d = opts.max_distance;
  if (d == 0) return;
  MatchSlot slot;

  const u64 tile_seeds = opts.tile_seeds != 0
                             ? opts.tile_seeds
                             : comb::ShellTiler::kDefaultTileSeeds;
  comb::ShellTiler tiler(d, tile_seeds, factory.n_bits());
  // +1: a pipeline unit that publishes upcoming shell plans ahead of the
  // hashing front, then joins the tile loop as one more worker.
  const int units = opts.num_threads + 1;
  par::TileScheduler sched(tiler.tiles_per_shell(), /*first_shell=*/1);

  const std::function<bool()> stop = [&ctx, &opts] {
    return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
  };
  ShellPlans<Factory> plans(factory, tiler, stop);

  std::vector<u64> hashed_per_unit(static_cast<std::size_t>(units), 0);
  const u32 check_blocks = blocks_per_check<Hash>(opts.check_interval);

  workers.parallel_workers(units, [&](int unit) {
    if (unit == units - 1) {
      // Pipeline unit: fetch plans front to back, so a cold cache walks
      // shell k+1 while shell k's tiles drain; then fall through and hash
      // like everyone else. Workers fetch for themselves if they outrun it.
      for (int k = 1; k <= d; ++k) {
        if (stop() || plans.get(k) == nullptr) break;
      }
    }
    const u64 unit_hashed = drain_tiles(
        sched, s_init, target, hash, opts.early_exit, check_blocks,
        [&](const par::TileScheduler::Tile& tile) { return plans.open(tile); },
        stop,
        [&](const Seed256& seed, int shell) {
          slot.record(seed, shell);
          ctx.signal_match();  // line 15: NotifyAllThreadsToExitSearch
        },
        [&](u64 tile_hashed) {
          if (opts.quantum_hook) opts.quantum_hook(unit, tile_hashed);
        });
    hashed_per_unit[static_cast<std::size_t>(unit)] += unit_hashed;
    ctx.add_progress(unit_hashed);
  });

  ctx.check_deadline();
  for (u64 h : hashed_per_unit) result.seeds_hashed += h;
  found = slot.match;

  // Structural invariant: an undisturbed run must have completed every
  // shell — the watermark is what certifies full-ball coverage now that no
  // barrier does.
  if (!ctx.cancel_requested() && !(opts.early_exit && found)) {
    RBC_CHECK_MSG(sched.completed_through() == d,
                  "tiled schedule left a shell incomplete");
  }
}

/// Single-unit scan of a ball stream's shells 1..d (distance 0 is the
/// caller's): SeedScan over each shell's candidate source
/// (`stream.shell_candidates(k)`, no virtual call per block). This is the
/// reference enumeration the fusion engine's interleaved execution must
/// reproduce candidate-for-candidate: shells in order, each in the
/// stream's order, and the counted prefix stops at the match.
///
/// The deadline/early-exit poll fires at the check-interval cadence AND
/// before each shell's first block; a stop discards the block produced
/// ahead uncounted.
template <hash::SeedHash Hash, typename Stream>
void scan_stream(Stream& stream, const typename Hash::digest_type& target,
                 const Hash& hash, const SearchOptions& opts,
                 par::SearchContext& ctx, Match& found, u64& hashed_out) {
  hash::SeedScan<Hash> scan(hash, target, opts.early_exit);
  par::CheckThrottle throttle(blocks_per_check<Hash>(opts.check_interval));

  u64 local_hashed = 0;
  u64 since_hook = 0;
  // Per-shell trace spans (obs/trace.hpp): opened/closed only at shell
  // transitions, so the hook cost is one null test per shell and nothing
  // per candidate. Null trace (the untraced default) records nothing.
  obs::SessionTrace* trace = ctx.trace();
  bool stopped = false;
  for (int k = 1; k <= stream.max_distance() && !stopped; ++k) {
    const double span_open_s = trace != nullptr ? trace->now_s() : 0.0;
    auto source = stream.shell_candidates(k);
    scan.start(source);
    if (!scan.pending()) continue;  // an empty shell opens no span
    u64 span_hashed = 0;
    bool check_now = true;  // between-shell poll point
    while (scan.pending()) {
      if (throttle.due()) {
        if (opts.quantum_hook) {
          opts.quantum_hook(0, since_hook);
          since_hook = 0;
        }
        check_now = true;
      }
      if (check_now &&
          (ctx.check_deadline() || ctx.should_stop(opts.early_exit))) {
        stopped = true;  // the block produced ahead is discarded unhashed
        break;
      }
      check_now = false;
      const hash::BlockScan block = scan.step(source);
      local_hashed += block.counted;
      since_hook += block.counted;
      span_hashed += block.counted;
      if (!block.found()) continue;
      if (!found) found = {*block.match, k};
      ctx.signal_match();
      if (opts.early_exit) {
        stopped = true;
        break;
      }
    }
    if (trace != nullptr) {
      trace->span(obs::SpanKind::kSearchShell, span_open_s, trace->now_s(),
                  static_cast<u32>(k), span_hashed);
    }
  }
  if (opts.quantum_hook && since_hook > 0) opts.quantum_hook(0, since_hook);
  ctx.add_progress(local_hashed);
  hashed_out += local_hashed;
}

}  // namespace detail

/// Searches for a seed whose hash equals `target`, running work units on
/// `workers`. The factory provides iterators over each shell (Gosper /
/// Algorithm 515 / Chase 382 all model comb::SeedIteratorFactory).
///
/// `session`, when non-null, is the authentication session's context: its
/// deadline (set at admission, so queue time counts against the threshold)
/// and cancellation govern the search, and progress is published to it. It
/// must be fresh for this search — the match flag is per-search state. When
/// null, a local context with an opts.timeout_s budget is used.
template <hash::SeedHash Hash, comb::SeedIteratorFactory Factory>
SearchResult rbc_search(const Seed256& s_init,
                        const typename Hash::digest_type& target,
                        const Factory& factory, par::WorkerGroup& workers,
                        const SearchOptions& opts, const Hash& hash = {},
                        par::SearchContext* session = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  RBC_CHECK(opts.num_threads >= 1);

  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;

  SearchResult result;
  WallTimer timer;
  if (detail::matches_at_distance_zero(s_init, target, hash, ctx, result,
                                       timer)) {
    result.canonical_rank = 1;
    return result;
  }
  detail::Match found;

  // The single-unit streams scan shells 1..d; distance 0 was hashed above.
  const auto scan = [&](auto&& stream) {
    detail::scan_stream<Hash>(stream, target, hash, opts, ctx, found,
                              result.seeds_hashed);
    ctx.check_deadline();
  };
  if (opts.reliability != nullptr) {
    // Reliability-ordered sessions drive the likelihood-first stream on the
    // calling thread regardless of num_threads: the best-first enumeration
    // is inherently sequential, and silently falling through to an
    // order-ignoring parallel search would discard the requested order.
    scan(OrderedBallStream(s_init, opts.max_distance, opts.reliability,
                           opts.ordered_budget, factory.n_bits()));
  } else if (opts.num_threads == 1) {
    // A single unit has nobody to share tiles with and nothing to pipeline
    // into, so it streams the ball on the calling thread (e.g. per-session
    // server searches).
    scan(BallStream<Factory>(s_init, opts.max_distance, factory));
  } else {
    // Tiled shells overlap in flight, so a per-shell span would lie about
    // exclusivity; record one span over the whole tiled scan instead
    // (detail = d, value = candidates hashed by it).
    obs::SessionTrace* trace = ctx.trace();
    const double tiled_open_s = trace != nullptr ? trace->now_s() : 0.0;
    const u64 tiled_start_progress = ctx.progress();
    detail::rbc_search_tiled<Hash>(s_init, target, factory, workers, opts,
                                   hash, ctx, result, found);
    if (trace != nullptr) {
      trace->span(obs::SpanKind::kSearchShell, tiled_open_s, trace->now_s(),
                  static_cast<u32>(opts.max_distance),
                  ctx.progress() - tiled_start_progress);
    }
  }

  if (found) {
    result.canonical_rank =
        comb::canonical_ball_rank(found->first ^ s_init, factory.n_bits());
  }
  detail::finish(result, found, ctx, timer);
  return result;
}

}  // namespace rbc
