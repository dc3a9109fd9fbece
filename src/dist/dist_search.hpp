// Distributed-memory RBC search over the message-passing substrate — the
// Philabaum et al. [36] engine shape, applied to the SALTED (hash-based)
// per-candidate operation.
//
// Topology: rank 0 is both the coordinator and a worker. Each shell is an
// Algorithm 515 plan cut into poll-cadence tiles, which every rank opens on
// its own: unranking needs no shared state. Work distribution is GUIDED
// SELF-SCHEDULING rather than static slices: a rank asks rank 0 for
// work (WANT), rank 0 grants a run of the current shell's tiles — about
// half an even share of the seeds left, down to one tile — and the rank
// scans them with hash::SeedScan. There are NO per-shell barriers: as soon as
// a shell's tiles are all granted, rank 0 moves its grant pointer to the
// next shell while stragglers finish their last tiles in the background; a
// rank that outruns the coordinator has its request deferred until the
// grant pointer catches up.
//
// The early-exit protocol is explicit message traffic, as it must be
// without shared memory:
//   * a rank that finds the seed sends FOUND to rank 0 (grants may be in
//     flight for two adjacent shells, so rank 0 keeps the minimal shell);
//   * rank 0 broadcasts STOP; ranks poll their mailbox between seed blocks
//     at the same SearchOptions::check_interval cadence the shared-memory
//     engines use (§4.4);
//   * every WANT is answered — with a grant or an empty one — so no rank
//     ever blocks on a silent coordinator, and the search ends with a
//     count-aggregation sweep instead of a barrier chain.
#pragma once

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "combinatorics/algorithm515.hpp"
#include "dist/comm.hpp"
#include "hash/batch.hpp"
#include "hash/traits.hpp"
#include "parallel/search_context.hpp"
#include "rbc/search.hpp"

namespace rbc::dist {

struct DistSearchResult {
  bool found = false;
  Seed256 seed;
  int distance = -1;
  int finder_rank = -1;
  u64 seeds_hashed = 0;   // aggregated over all ranks
  bool timed_out = false; // session deadline expired before the ball was done
};

namespace detail {
inline constexpr int kTagWork = 1;  // rank -> 0: WANT or FOUND
inline constexpr int kTagTile = 2;  // 0 -> rank: tile grant (empty = move on)
inline constexpr int kTagStop = 3;  // 0 -> ranks: stop searching
inline constexpr int kTagCount = 4; // rank -> 0: final seed count

inline constexpr u8 kMsgWant = 0;
inline constexpr u8 kMsgFound = 1;

inline Bytes encode_want(int shell) {
  return Bytes{kMsgWant, static_cast<u8>(shell)};
}

/// Found: tag + shell + the 32-byte seed.
inline Bytes encode_found(const Seed256& seed, int shell) {
  Bytes out(2 + Seed256::kBytes);
  out[0] = kMsgFound;
  out[1] = static_cast<u8>(shell);
  std::memcpy(out.data() + 2, seed.to_bytes().data(), Seed256::kBytes);
  return out;
}

/// Tile grant: 8-byte first tile + 8-byte tile count.
inline Bytes encode_grant(u64 first_tile, u64 tiles) {
  Bytes out(16);
  std::memcpy(out.data(), &first_tile, 8);
  std::memcpy(out.data() + 8, &tiles, 8);
  return out;
}

inline void decode_grant(const Bytes& payload, u64& first_tile, u64& tiles) {
  std::memcpy(&first_tile, payload.data(), 8);
  std::memcpy(&tiles, payload.data() + 8, 8);
}
}  // namespace detail

/// Runs the distributed search on an existing communicator with rank-0
/// guided tile scheduling (see the header comment). Honors
/// opts.max_distance, opts.check_interval (the mailbox/deadline poll
/// cadence), opts.early_exit, and opts.timeout_s.
///
/// `session`, when non-null, carries the authentication deadline and
/// external cancellation: every rank polls it at its block cadence (the
/// shared-nothing analogue of the unified-memory flag — here the context IS
/// shared because ranks are host threads; a true MPI deployment would
/// broadcast the expiry as a STOP message, which rank 0 also does). When
/// null, a local context enforcing opts.timeout_s is used.
template <hash::SeedHash Hash>
DistSearchResult distributed_search(Communicator& comm, const Seed256& s_init,
                                    const typename Hash::digest_type& target,
                                    const SearchOptions& opts = {},
                                    const Hash& hash = {},
                                    par::SearchContext* session = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  const int max_distance = opts.max_distance;
  // Tile size: the poll cadence, so a rank's smallest grant is one poll's
  // worth of seeds.
  const u64 tile_seeds = std::max<u64>(opts.check_interval, 64);
  const u32 check_blocks =
      rbc::detail::blocks_per_check<Hash>(opts.check_interval);
  const comb::Algorithm515Factory factory(comb::Alg515Mode::kSuccessor);

  DistSearchResult result;
  std::mutex result_mutex;
  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& sctx = session != nullptr ? *session : local;

  comm.run([&](RankCtx& ctx) {
    const int rank = ctx.rank();
    const int size = ctx.size();
    u64 local_hashed = 0;
    bool stop = false;

    auto poll_stop = [&]() {
      Packet packet;
      if (ctx.try_recv(detail::kTagStop, packet)) stop = true;
      if (sctx.cancel_requested()) stop = true;
      return stop;
    };

    auto record_found = [&](const Seed256& seed, int shell, int finder) {
      std::lock_guard lock(result_mutex);
      if (!result.found || shell < result.distance) {
        result.found = true;
        result.seed = seed;
        result.distance = shell;
        result.finder_rank = finder;
      }
    };

    // Scans tiles [first, first + count) of `shell`'s plan; polls the
    // mailbox/deadline every check_interval seeds — the same stop cadence
    // the shared-memory engines use (§4.4). Reports a match to rank 0 and,
    // under early exit, abandons the rest of the grant (the lanes after a
    // match are speculative); exhaustive mode finishes the grant so the
    // aggregated count is the exact ball size.
    hash::SeedScan<Hash> scan(hash, target, opts.early_exit);
    auto search_tiles = [&](int shell, u64 first, u64 count) {
      const auto plan = factory.plan(shell, tile_seeds);
      par::CheckThrottle throttle(check_blocks);
      for (u64 t = first; t < first + count; ++t) {
        auto source = comb::candidates(plan->make_tile(t), s_init);
        scan.start(source);
        while (scan.pending()) {
          if (throttle.due()) {
            sctx.check_deadline();
            if (poll_stop()) return;
          }
          const hash::BlockScan block = scan.step(source);
          local_hashed += block.counted;
          if (!block.found()) continue;
          ctx.send(0, detail::kTagWork,
                   detail::encode_found(*block.match, shell));
          if (opts.early_exit) return;
        }
      }
    };

    // Distance 0 is rank 0's job (Algorithm 1 lines 4-8).
    if (rank == 0) {
      ++local_hashed;
      if (hash(s_init) == target) record_found(s_init, 0, 0);
    }

    if (rank != 0) {
      // Worker: per shell, keep asking the coordinator for tiles until it
      // answers with an empty grant, then flow into the next shell — the
      // coordinator's grant pointer, not a barrier, is what orders shells.
      for (int shell = 1; shell <= max_distance && !stop; ++shell) {
        while (true) {
          if (poll_stop()) break;
          ctx.send(0, detail::kTagWork, detail::encode_want(shell));
          const Packet grant = ctx.recv(detail::kTagTile);
          if (grant.payload.empty()) break;  // shell drained; move on
          u64 first = 0;
          u64 count = 0;
          detail::decode_grant(grant.payload, first, count);
          search_tiles(shell, first, count);
        }
      }
    } else {
      // Coordinator (and worker): grant guided runs of the current shell's
      // tiles, interleaving its own search one tile at a time so the mailbox
      // is serviced at the same cadence the workers poll at.
      bool stopping = false;
      bool stop_sent = false;
      std::deque<Packet> deferred;  // WANTs for shells ahead of the pointer

      auto broadcast_stop = [&] {
        if (stop_sent) return;
        stop_sent = true;
        for (int r = 1; r < size; ++r) ctx.send(r, detail::kTagStop, Bytes{});
      };

      // A match at S_init ends an early-exit search before any grant.
      if (opts.early_exit && result.found) {
        stopping = true;
        broadcast_stop();
      }

      int current_shell = 0;
      std::shared_ptr<const comb::Alg515ShellPlan> plan;  // current_shell's
      u64 next_tile = 0;  // its first ungranted tile

      auto grant_to = [&](int dest, int want_shell) {
        if (!stopping && want_shell == current_shell &&
            next_tile < plan->tiles()) {
          // Guided self-scheduling: hand out half an even share of the
          // seeds left, in whole tiles, never less than one tile.
          const u64 left = plan->total() - next_tile * tile_seeds;
          const u64 n = std::clamp<u64>(
              left / (2 * static_cast<u64>(size)) / tile_seeds, 1,
              plan->tiles() - next_tile);
          ctx.send(dest, detail::kTagTile, detail::encode_grant(next_tile, n));
          next_tile += n;
        } else if (!stopping && want_shell > current_shell) {
          // The rank outran the grant pointer; answer once we get there.
          deferred.push_back(Packet{dest, detail::kTagWork,
                                    detail::encode_want(want_shell)});
        } else {
          // Past shell, drained shell, or stopping: release the rank.
          ctx.send(dest, detail::kTagTile, Bytes{});
        }
      };

      auto handle_work = [&](const Packet& packet) {
        if (packet.payload[0] == detail::kMsgFound) {
          record_found(
              Seed256::from_bytes(ByteSpan{packet.payload.data() + 2,
                                           Seed256::kBytes}),
              packet.payload[1], packet.source);
          if (opts.early_exit) {
            stopping = true;
            broadcast_stop();
          }
          return;
        }
        grant_to(packet.source, packet.payload[1]);
      };

      auto service_mailbox = [&] {
        Packet packet;
        while (ctx.try_recv(detail::kTagWork, packet)) handle_work(packet);
        if (!stopping &&
            (sctx.check_deadline() || sctx.cancel_requested())) {
          stopping = true;
          broadcast_stop();
        }
      };

      for (int shell = 1; shell <= max_distance && !stopping; ++shell) {
        current_shell = shell;
        plan = factory.plan(shell, tile_seeds);
        next_tile = 0;
        // Ranks that finished the previous shell before the pointer moved:
        // their deferred WANTs are the first grants of this shell.
        for (std::deque<Packet> waiting = std::move(deferred);
             !waiting.empty(); waiting.pop_front()) {
          handle_work(waiting.front());
        }
        while (next_tile < plan->tiles() && !stopping) {
          service_mailbox();
          if (stopping || next_tile == plan->tiles()) break;
          // Self-grant one tile and search it.
          search_tiles(shell, next_tile++, 1);
          if (stop) stopping = true;
        }
      }

      // Wind-down: release every parked rank, then answer stray WANTs with
      // empty grants until all counts are in. current_shell is now past the
      // ball, so grant_to() releases unconditionally.
      current_shell = max_distance + 1;
      for (; !deferred.empty(); deferred.pop_front())
        handle_work(deferred.front());
      int counts_received = 0;
      u64 total_hashed = 0;
      while (counts_received < size - 1) {
        Packet packet;
        if (ctx.try_recv(detail::kTagCount, packet)) {
          u64 contribution = 0;
          std::memcpy(&contribution, packet.payload.data(), 8);
          total_hashed += contribution;
          ++counts_received;
          continue;
        }
        if (ctx.try_recv(detail::kTagWork, packet)) {
          handle_work(packet);
          continue;
        }
        std::this_thread::yield();
      }
      // Late FOUND reports can trail a rank's count (different tags are
      // independent queues); drain them before closing the book.
      Packet packet;
      while (ctx.try_recv(detail::kTagWork, packet)) handle_work(packet);
      {
        std::lock_guard lock(result_mutex);
        result.seeds_hashed = total_hashed + local_hashed;
      }
    }

    sctx.add_progress(local_hashed);
    if (rank != 0) {
      Bytes count(8);
      std::memcpy(count.data(), &local_hashed, 8);
      ctx.send(0, detail::kTagCount, std::move(count));
    }
    // All traffic (including any STOP broadcast) is delivered before rank 0
    // finishes its count sweep; rendezvous once, then drain strays so
    // reruns on this communicator start clean.
    ctx.barrier();
    Packet stray;
    while (ctx.try_recv(detail::kTagStop, stray)) {
    }
  });

  if (!result.found) {
    result.timed_out = sctx.timed_out();
  }
  return result;
}

}  // namespace rbc::dist
