// The SALTED-GPU search kernel in the paper's §3.2 shape, on the emulator.
//
// One kernel launch processes one Hamming shell (the host drives the loop
// over distances, launching a kernel per shell and checking the unified-
// memory flag in between — exactly the structure §3.2 describes). Each
// thread:
//   1. computes its global id r,
//   2. claims snapshot tiles off a work-stealing TileScheduler (PR 4: the
//      static thread->slice assignment became dynamic, so a thread that
//      drains its share keeps pulling tiles instead of idling at the end of
//      the launch),
//   3. stages each tile's Chase Algorithm-382 snapshot into the block's
//      SHARED MEMORY arena (§3.2.3 optimization) before iterating,
//   4. hashes candidate blocks with the fixed-padding multi-lane SHA kernels
//      and polls the unified flag between blocks,
//   5. on a match, atomically publishes the result and raises the flag.
//
// hetero_cosearch() goes one step further: host worker units and one
// emulated device consume tiles of the SAME ball from one shared scheduler,
// so CPU and GPU co-search a single authentication instead of owning
// disjoint phases.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>

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
struct FoundSlot {
  std::mutex mutex;
  bool found = false;
  Seed256 seed;
  int distance = -1;
};

struct ShellLaunchStats {
  u64 threads = 0;
  u64 blocks = 0;
  u64 seeds_hashed = 0;
};

/// Searches one Hamming shell with a single kernel launch. `plan` cuts the
/// shell's Chase sequence into tiles; the launch spawns plan.tiles()
/// logical threads rounded up to whole blocks, and the tiles are handed out
/// dynamically by a work-stealing scheduler rather than bound one-to-one to
/// threads, so an uneven schedule (or an early straggler block) cannot
/// leave the tail of the shell on one thread.
///
/// `ctx`, when non-null, is the session's cancellation context: device
/// threads poll it alongside the unified flag (the CUDA analogue is the
/// host raising the flag from another stream) and latch its deadline at a
/// coarse cadence, so a session budget can stop a kernel mid-shell instead
/// of only between launches.
template <hash::SeedHash Hash>
ShellLaunchStats launch_salted_shell(
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
  // One shell of p snapshot tiles; every logical thread owns one scheduler
  // slot and starts at its own tile id, so an undisturbed launch gives
  // thread r tile r.
  par::TileScheduler sched(std::vector<u64>{p}, shell, static_cast<int>(p));
  // Shared memory: one ChaseState slot per thread in the block (§3.2.3).
  const std::size_t shared_bytes = sizeof(comb::ChaseState) * threads_per_block;

  launch_kernel(workers, grid, block, shared_bytes, [&](const KernelCtx& kctx) {
    const u64 r = kctx.global_thread_id();
    if (r >= p) return;  // guard threads beyond the last partition

    auto* shared_states =
        reinterpret_cast<comb::ChaseState*>(kctx.shared.data());
    comb::ChaseState& state = shared_states[kctx.threadIdx.x];

    constexpr std::size_t kBlock = hash::seed_hash_batch<Hash>();
    std::array<Seed256, kBlock> candidates;
    std::array<typename Hash::digest_type, kBlock> digests;
    u32 target_head;
    std::memcpy(&target_head, target.bytes.data(), sizeof(target_head));

    u64 local = 0;
    bool running = true;
    par::TileScheduler::Tile tile;
    while (running && sched.acquire(static_cast<int>(r), tile)) {
      // Copy this tile's iterator state into the block's shared arena.
      state = plan.snapshot(tile.index);
      u64 i = 0;
      const u64 end = plan.tile_count(tile.index);

      // Same batched shape as the host search: refill a candidate block from
      // the Chase walk, hash all lanes per multi-buffer call, reject on the
      // digest head before the full compare. The unified flag is polled once
      // per block — the device-side analogue of the §4.4 check interval.
      comb::ChaseSequence seq(state);
      while (running && i < end) {
        // Unified-memory early exit (§3.2), plus session cancellation.
        if (flag.get() || (ctx != nullptr && ctx->cancel_requested())) {
          running = false;
          break;
        }
        std::size_t n = 0;
        while (n < kBlock && i + n < end) {
          candidates[n] = s_init ^ seq.mask();
          if (i + n + 1 < end) seq.advance();
          ++n;
        }
        hash::hash_seed_block(hash, candidates.data(), n, digests.data());
        std::size_t counted = n;
        for (std::size_t lane = 0; lane < n; ++lane) {
          u32 head;
          std::memcpy(&head, digests[lane].bytes.data(), sizeof(head));
          if (head != target_head || digests[lane] != target) continue;
          {
            std::lock_guard lock(slot.mutex);
            if (!slot.found) {
              slot.found = true;
              slot.seed = candidates[lane];
              slot.distance = shell;
            }
          }
          flag.set();
          counted = lane + 1;  // lanes past the match were speculative
          running = false;
          break;
        }
        local += counted;
        i += n;
        // Coarse deadline cadence: a clock read roughly every 64 Ki seeds.
        if (ctx != nullptr && (local & 0xffff) < n) ctx->check_deadline();
      }
    }
    seeds_hashed.fetch_add(local, std::memory_order_relaxed);
    if (ctx != nullptr) ctx->add_progress(local);
  });

  ShellLaunchStats stats;
  stats.threads = p;
  stats.blocks = grid.x;
  stats.seeds_hashed = seeds_hashed.load();
  return stats;
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
  UnifiedFlag flag;
  FoundSlot slot;

  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (hash(s_init) == target) {
    result.found = true;
    result.seed = s_init;
    result.distance = 0;
    result.host_seconds = timer.elapsed_s();
    return result;
  }

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
    const auto stats = launch_salted_shell<Hash>(
        workers, s_init, target, k, *plan, threads_per_block, flag, slot,
        hash, &ctx);
    result.seeds_hashed += stats.seeds_hashed;
  }

  if (slot.found) {
    result.found = true;
    result.seed = slot.seed;
    result.distance = slot.distance;
  } else {
    ctx.check_deadline();
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
  return result;
}

/// Heterogeneous CPU+GPU co-search: `host_units` host worker units and one
/// emulated device (device_threads logical threads) drain tiles of the SAME
/// Hamming ball from one shared work-stealing scheduler. Shell plans are the
/// tiled ChaseFactory plans the host engine uses, so every tile is exactly a
/// slice of the rank-0 Chase walk and results are byte-identical to a
/// CPU-only tiled search over the same ball: same found/seed/distance, and
/// in exhaustive mode the same seeds_hashed (the full ball).
///
/// Device threads stage each claimed tile's snapshot into their block's
/// shared-memory arena (§3.2.3) before iterating, exactly like the per-shell
/// kernel above; host units construct tile iterators directly.
///
/// `device_seeds_out`, when non-null, receives the device's share of the
/// hashed seeds (for load-split reporting in benches).
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
  UnifiedFlag flag;
  FoundSlot slot;
  if (device_seeds_out != nullptr) *device_seeds_out = 0;

  // Lines 4-8: distance 0 on the host.
  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (hash(s_init) == target) {
    result.found = true;
    result.seed = s_init;
    result.distance = 0;
    result.host_seconds = timer.elapsed_s();
    return result;
  }

  const int d = opts.max_distance;
  if (d >= 1) {
    const u64 tile_seeds = opts.tile_seeds != 0
                               ? opts.tile_seeds
                               : comb::ShellTiler::kDefaultTileSeeds;
    comb::ShellTiler tiler(d, tile_seeds);
    comb::ChaseFactory factory;
    const std::function<bool()> stop = [&ctx, &opts] {
      return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
    };

    // Plans for every shell up front. They come from the process-wide plan
    // cache, so each shell's snapshot walk (the one-time cost §3.2.1
    // excludes from timings) runs once per process; a session deadline can
    // still cut this search's walk or its wait for another's walk short.
    std::vector<std::shared_ptr<const comb::ChaseShellPlan>> plans(
        static_cast<std::size_t>(d) + 1);
    bool prepared = true;
    for (int k = 1; k <= d; ++k) {
      if (ctx.check_deadline() || ctx.should_stop(opts.early_exit)) {
        prepared = false;
        break;
      }
      plans[static_cast<std::size_t>(k)] =
          factory.plan(k, tiler.stride(k), stop);
      if (plans[static_cast<std::size_t>(k)] == nullptr) {
        prepared = false;
        break;
      }
    }

    if (prepared) {
      par::TileScheduler sched(tiler.tiles_per_shell(), /*first_shell=*/1,
                               host_units + device_threads);
      std::atomic<u64> hashed{0};
      std::atomic<u64> device_hashed{0};
      const u32 blocks_per_check = static_cast<u32>(
          (std::max<u64>(opts.check_interval, 1) +
           hash::seed_hash_batch<Hash>() - 1) /
          hash::seed_hash_batch<Hash>());

      // Tile-drain loop shared by host units and device threads; they differ
      // only in how a claimed tile becomes an iterator (`make_iter`).
      const auto drain = [&](int slot_id, auto&& make_iter) -> u64 {
        constexpr std::size_t kBlock = hash::seed_hash_batch<Hash>();
        std::array<Seed256, kBlock> candidates;
        std::array<typename Hash::digest_type, kBlock> digests;
        u32 target_head;
        std::memcpy(&target_head, target.bytes.data(), sizeof(target_head));

        u64 unit_hashed = 0;
        par::TileScheduler::Tile tile;
        while (true) {
          if (ctx.check_deadline() || ctx.should_stop(opts.early_exit) ||
              flag.get())
            break;
          if (!sched.acquire(slot_id, tile)) break;
          auto it = make_iter(tile);
          par::CheckThrottle throttle(blocks_per_check);
          u64 tile_hashed = 0;
          bool running = true;
          bool tile_done = true;
          while (running) {
            if (throttle.due() &&
                (ctx.check_deadline() || ctx.should_stop(opts.early_exit) ||
                 flag.get())) {
              tile_done = false;
              break;
            }
            std::size_t n = 0;
            Seed256 mask;
            while (n < kBlock && it.next(mask)) candidates[n++] = s_init ^ mask;
            if (n == 0) break;  // tile exhausted
            hash::hash_seed_block(hash, candidates.data(), n, digests.data());
            std::size_t counted = n;
            for (std::size_t lane = 0; lane < n; ++lane) {
              u32 head;
              std::memcpy(&head, digests[lane].bytes.data(), sizeof(head));
              if (head != target_head || digests[lane] != target) continue;
              {
                std::lock_guard lock(slot.mutex);
                // Shells overlap in flight; keep the minimal shell.
                if (!slot.found || tile.shell < slot.distance) {
                  slot.found = true;
                  slot.seed = candidates[lane];
                  slot.distance = tile.shell;
                }
              }
              ctx.signal_match();
              if (opts.early_exit) {
                flag.set();  // unified-memory exit for the device side
                counted = lane + 1;
                running = false;
                tile_done = false;
              }
              break;
            }
            tile_hashed += counted;
          }
          unit_hashed += tile_hashed;
          if (tile_done) sched.complete(tile);
        }
        return unit_hashed;
      };

      workers.parallel_workers(host_units + 1, [&](int unit) {
        if (unit < host_units) {
          const u64 h = drain(unit, [&](const par::TileScheduler::Tile& tile) {
            return plans[static_cast<std::size_t>(tile.shell)]->make_tile(
                tile.index);
          });
          hashed.fetch_add(h, std::memory_order_relaxed);
          ctx.add_progress(h);
          return;
        }
        // The last unit drives the device: one grid over device_threads
        // logical threads, nested on the same worker group.
        const Dim3 grid = grid_for(static_cast<u64>(device_threads),
                                   threads_per_block);
        const Dim3 block{threads_per_block, 1, 1};
        const std::size_t shared_bytes =
            sizeof(comb::ChaseState) * threads_per_block;
        launch_kernel(
            workers, grid, block, shared_bytes, [&](const KernelCtx& kctx) {
              const u64 t = kctx.global_thread_id();
              if (t >= static_cast<u64>(device_threads)) return;
              auto* shared_states =
                  reinterpret_cast<comb::ChaseState*>(kctx.shared.data());
              comb::ChaseState& state = shared_states[kctx.threadIdx.x];
              const u64 h = drain(
                  host_units + static_cast<int>(t),
                  [&](const par::TileScheduler::Tile& tile) {
                    const auto& plan =
                        plans[static_cast<std::size_t>(tile.shell)];
                    // Stage the snapshot into shared memory (§3.2.3), then
                    // resume the walk from the staged copy.
                    state = plan->snapshot(tile.index);
                    return comb::ChaseIterator(state, plan->tile_count(tile.index));
                  });
              hashed.fetch_add(h, std::memory_order_relaxed);
              device_hashed.fetch_add(h, std::memory_order_relaxed);
              ctx.add_progress(h);
            });
      });

      result.seeds_hashed += hashed.load();
      if (device_seeds_out != nullptr) *device_seeds_out = device_hashed.load();

      if (!ctx.cancel_requested() && !(opts.early_exit && slot.found)) {
        RBC_CHECK_MSG(sched.completed_through() == d,
                      "hetero co-search left a shell incomplete");
      }
    }
  }

  if (slot.found) {
    result.found = true;
    result.seed = slot.seed;
    result.distance = slot.distance;
  } else {
    ctx.check_deadline();
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
  return result;
}

}  // namespace rbc::gpu
