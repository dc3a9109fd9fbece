// The SALTED-GPU search kernel in the paper's §3.2 shape, on the emulator.
//
// One kernel launch processes one Hamming shell (the host drives the loop
// over distances, launching a kernel per shell and checking the unified-
// memory flag in between — exactly the structure §3.2 describes). Each
// thread:
//   1. computes its global id r,
//   2. claims snapshot tiles off the shell's TileScheduler cursor instead
//      of owning a fixed slice, so a thread that finishes its tile keeps
//      pulling tiles instead of idling at the end of the launch,
//   3. stages each tile's Chase Algorithm-382 snapshot into the block's
//      SHARED MEMORY arena (§3.2.3 optimization) before iterating,
//   4. runs the host search's tile loop (rbc::detail::drain_tiles, whose
//      inner step is hash::SeedScan: the fused iterator+hash kernel of
//      §4.5) and polls the unified flag between blocks,
//   5. on a match, atomically publishes the result and raises the flag.
//
// hetero_cosearch() goes one step further: host worker units and one
// emulated device consume tiles of the SAME ball from one shared scheduler,
// so CPU and GPU co-search a single authentication instead of owning
// disjoint phases. Both sides drain tiles with that same loop; they differ
// only in how a claimed tile becomes an iterator.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "combinatorics/chase382.hpp"
#include "combinatorics/shell.hpp"
#include "combinatorics/tiler.hpp"
#include "common/timer.hpp"
#include "gpu/launch.hpp"
#include "hash/batch.hpp"
#include "hash/traits.hpp"
#include "parallel/tile_scheduler.hpp"
#include "rbc/search.hpp"

namespace rbc::gpu {

/// Result slot in "unified memory", shared by all blocks and the host.
using FoundSlot = rbc::detail::MatchSlot;

/// Shared memory per block: one ChaseState slot per thread (§3.2.3).
inline std::size_t chase_shared_bytes(u32 threads_per_block) {
  return sizeof(comb::ChaseState) * threads_per_block;
}

/// Stages a claimed tile's Chase snapshot into the calling thread's slot of
/// its block's shared-memory arena and resumes the walk from the staged
/// copy.
inline std::optional<comb::ChaseIterator> staged_tile(
    const comb::ChaseShellPlan& plan, u64 tile, const KernelCtx& kctx) {
  comb::ChaseState& shared = reinterpret_cast<comb::ChaseState*>(
      kctx.shared.data())[kctx.threadIdx.x];
  shared = plan.snapshot(tile);
  return comb::ChaseIterator(shared, plan.tile_count(tile));
}

/// Searches one Hamming shell with a single kernel launch and returns the
/// seeds it hashed. `plan` cuts the shell's Chase sequence into tiles; the
/// launch spawns plan.tiles() logical threads rounded up to whole blocks,
/// and the tiles are handed out dynamically by one scheduler cursor rather
/// than bound one-to-one to threads, so an uneven schedule (or an early
/// straggler block) cannot leave the tail of the shell on one thread.
///
/// `ctx`, when non-null, is the session's cancellation context: device
/// threads poll it and its deadline alongside the unified flag (the CUDA
/// analogue is the host raising the flag from another stream), so a session
/// budget can stop a kernel mid-shell instead of only between launches.
template <hash::SeedHash Hash>
u64 launch_salted_shell(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, int shell,
    const comb::ChaseShellPlan& plan, u32 threads_per_block,
    UnifiedFlag& flag, FoundSlot& slot, const Hash& hash = {},
    par::SearchContext* ctx = nullptr) {
  const u64 p = plan.tiles();
  RBC_CHECK(p >= 1);
  const Dim3 grid = grid_for(p, threads_per_block);
  const Dim3 block{threads_per_block, 1, 1};

  std::atomic<u64> seeds_hashed{0};
  // One shell of p snapshot tiles, claimed in order by whichever logical
  // thread asks next.
  par::TileScheduler sched(std::vector<u64>{p}, shell);
  launch_kernel(
      workers, grid, block, chase_shared_bytes(threads_per_block),
      [&](const KernelCtx& kctx) {
        const u64 r = kctx.global_thread_id();
        if (r >= p) return;  // guard threads beyond the last partition
        // The unified flag (and the session) is polled once per block — the
        // device-side analogue of the §4.4 check interval.
        const u64 hashed = rbc::detail::drain_tiles(
            sched, s_init, target, hash,
            /*early_exit=*/true, /*check_blocks=*/1,
            [&](const par::TileScheduler::Tile& tile) {
              return staged_tile(plan, tile.index, kctx);
            },
            [&] {
              return flag.get() || (ctx != nullptr && ctx->check_deadline());
            },
            [&](const Seed256& seed, int) {
              slot.record(seed, shell);
              flag.set();
            },
            [](u64) {});
        seeds_hashed.fetch_add(hashed, std::memory_order_relaxed);
        if (ctx != nullptr) ctx->add_progress(hashed);
      });
  return seeds_hashed.load();
}

/// Host-side driver (§3.2: "the loop on line 9 is executed on the host,
/// where a kernel is launched to process a single Hamming distance").
/// `threads_for_shell(k)` decides the partition width p per shell, mirroring
/// the n = seeds/p tuning of §4.4: shell k runs on a plan of at most p equal
/// tiles from the process-wide plan cache, so each width's snapshot walk
/// runs once per process, and the session's deadline can cut it short.
template <hash::SeedHash Hash>
rbc::SearchResult gpu_emulated_search(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, int max_distance,
    const std::function<int(int)>& threads_for_shell, u32 threads_per_block,
    const Hash& hash = {}, double timeout_s = 1e30,
    par::SearchContext* session = nullptr) {
  rbc::SearchResult result;
  WallTimer timer;
  par::SearchContext local = par::SearchContext::with_budget(timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;
  if (rbc::detail::matches_at_distance_zero(s_init, target, hash, ctx, result,
                                            timer)) {
    return result;
  }
  UnifiedFlag flag;
  FoundSlot slot;
  const comb::ChaseFactory factory;
  const std::function<bool()> stop = [&ctx] { return ctx.check_deadline(); };
  for (int k = 1; k <= max_distance; ++k) {
    if (flag.get()) break;  // host checks the unified flag between launches
    // The host enforces the deadline between kernel launches; within one,
    // the kernel threads poll the context themselves (above).
    if (ctx.check_deadline()) break;
    const u64 p = static_cast<u64>(std::max(1, threads_for_shell(k)));
    const auto plan = factory.plan(
        k, comb::equal_split_stride(comb::kSeedBits, k, p), stop);
    if (plan == nullptr) break;
    result.seeds_hashed += launch_salted_shell<Hash>(
        workers, s_init, target, k, *plan, threads_per_block, flag, slot,
        hash, &ctx);
  }
  if (!slot.match) ctx.check_deadline();
  rbc::detail::finish(result, slot.match, ctx, timer);
  return result;
}

/// Heterogeneous CPU+GPU co-search: `host_units` host worker units and one
/// emulated device (device_threads logical threads) drain tiles of the SAME
/// Hamming ball from one shared tile scheduler. Shell plans are the
/// tiled ChaseFactory plans the host engine uses, so every tile is exactly a
/// slice of the rank-0 Chase walk and results are byte-identical to a
/// CPU-only tiled search over the same ball: same found/seed/distance, and
/// in exhaustive mode the same seeds_hashed (the full ball).
///
/// Device threads stage each claimed tile's snapshot into their block's
/// shared-memory arena (§3.2.3) before iterating, exactly like the per-shell
/// kernel above; host units construct tile iterators directly. Shell plans
/// are fetched on first need under the session's deadline, as in the
/// tiled search.
///
/// `device_seeds_out`, when non-null, receives the device's share of the
/// hashed seeds (for load-split reporting in benches). opts.quantum_hook,
/// when set, sees every tile: host units are units 0..host_units-1 and
/// the device (any of its threads) is unit host_units.
template <hash::SeedHash Hash>
rbc::SearchResult hetero_cosearch(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, const rbc::SearchOptions& opts,
    int host_units, int device_threads, u32 threads_per_block,
    const Hash& hash = {}, par::SearchContext* session = nullptr,
    u64* device_seeds_out = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  RBC_CHECK(host_units >= 1);
  RBC_CHECK(device_threads >= 1);

  rbc::SearchResult result;
  WallTimer timer;
  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;
  if (device_seeds_out != nullptr) *device_seeds_out = 0;
  if (rbc::detail::matches_at_distance_zero(s_init, target, hash, ctx, result,
                                            timer)) {
    return result;
  }
  UnifiedFlag flag;
  FoundSlot slot;

  const int d = opts.max_distance;
  if (d >= 1) {
    const u64 tile_seeds = opts.tile_seeds != 0
                               ? opts.tile_seeds
                               : comb::ShellTiler::kDefaultTileSeeds;
    const comb::ShellTiler tiler(d, tile_seeds);
    const comb::ChaseFactory factory;
    const std::function<bool()> stop = [&ctx, &opts, &flag] {
      return ctx.check_deadline() || ctx.should_stop(opts.early_exit) ||
             flag.get();
    };
    // The tiled search's plans: each shell's snapshot walk (the one-time
    // cost §3.2.1 excludes from timings) runs once per process.
    rbc::detail::ShellPlans plans(factory, tiler, stop);
    par::TileScheduler sched(tiler.tiles_per_shell(), /*first_shell=*/1);
    std::atomic<u64> hashed{0};
    std::atomic<u64> device_hashed{0};
    const u32 check_blocks =
        rbc::detail::blocks_per_check<Hash>(opts.check_interval);
    // Host units and device threads run the same tile loop; they differ
    // only in how a claimed tile becomes an iterator (`open`).
    const auto drain = [&](int unit, auto&& open) {
      const u64 h = rbc::detail::drain_tiles(
          sched, s_init, target, hash, opts.early_exit, check_blocks,
          open, stop,
          [&](const Seed256& seed, int shell) {
            slot.record(seed, shell);
            ctx.signal_match();
            // Unified-memory exit for the device side.
            if (opts.early_exit) flag.set();
          },
          [&](u64 tile_hashed) {
            if (opts.quantum_hook) opts.quantum_hook(unit, tile_hashed);
          });
      hashed.fetch_add(h, std::memory_order_relaxed);
      ctx.add_progress(h);
      return h;
    };

    workers.parallel_workers(host_units + 1, [&](int unit) {
      if (unit < host_units) {
        drain(unit, [&](const par::TileScheduler::Tile& tile) {
          return plans.open(tile);
        });
        return;
      }
      // The last unit drives the device: one grid over device_threads
      // logical threads, nested on the same worker group.
      const Dim3 grid =
          grid_for(static_cast<u64>(device_threads), threads_per_block);
      const Dim3 block{threads_per_block, 1, 1};
      launch_kernel(
          workers, grid, block, chase_shared_bytes(threads_per_block),
          [&](const KernelCtx& kctx) {
            const u64 t = kctx.global_thread_id();
            if (t >= static_cast<u64>(device_threads)) return;
            const u64 h = drain(
                host_units,
                [&](const par::TileScheduler::Tile& tile)
                    -> std::optional<comb::ChaseIterator> {
                  const auto plan = plans.get(tile.shell);
                  if (plan == nullptr) return std::nullopt;
                  return staged_tile(*plan, tile.index, kctx);
                });
            device_hashed.fetch_add(h, std::memory_order_relaxed);
          });
    });

    result.seeds_hashed += hashed.load();
    if (device_seeds_out != nullptr) *device_seeds_out = device_hashed.load();
    if (!ctx.cancel_requested() && !(opts.early_exit && slot.match)) {
      RBC_CHECK_MSG(sched.completed_through() == d,
                    "hetero co-search left a shell incomplete");
    }
  }

  if (!slot.match) ctx.check_deadline();
  rbc::detail::finish(result, slot.match, ctx, timer);
  return result;
}

}  // namespace rbc::gpu
