#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "combinatorics/chase382.hpp"

namespace rbc::comb {
namespace {

std::vector<Seed256> walk_full_sequence(int k, int n) {
  ChaseSequence seq(k, n);
  std::vector<Seed256> out;
  out.push_back(seq.mask());
  while (seq.advance()) out.push_back(seq.mask());
  return out;
}

class ChaseCoverage
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChaseCoverage, VisitsEverySubsetExactlyOnce) {
  const auto [n, k] = GetParam();
  const auto seq = walk_full_sequence(k, n);
  EXPECT_EQ(seq.size(), binomial64(n, k));
  std::set<std::string> seen;
  for (const auto& mask : seq) {
    EXPECT_EQ(mask.popcount(), k);
    EXPECT_LE(mask.highest_set_bit(), n - 1);
    EXPECT_TRUE(seen.insert(mask.to_hex()).second);
  }
}

TEST_P(ChaseCoverage, ConsecutiveMasksDifferByOneSwap) {
  const auto [n, k] = GetParam();
  const auto seq = walk_full_sequence(k, n);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    // Gray property of Chase's sequence: one element out, one element in.
    EXPECT_EQ(hamming_distance(seq[i - 1], seq[i]), 2)
        << "step " << i << ": " << seq[i - 1].to_hex() << " -> "
        << seq[i].to_hex();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, ChaseCoverage,
    ::testing::Values(std::pair{5, 1}, std::pair{5, 2}, std::pair{6, 3},
                      std::pair{7, 3}, std::pair{8, 4}, std::pair{9, 2},
                      std::pair{10, 5}, std::pair{12, 3}, std::pair{6, 5},
                      std::pair{4, 4}, std::pair{16, 2}));

TEST(ChaseSequence, SingleCombinationSpaces) {
  // k = n: exactly one combination, no transitions.
  ChaseSequence seq(4, 4);
  EXPECT_EQ(seq.mask().popcount(), 4);
  EXPECT_FALSE(seq.advance());
  // k = 0: one (empty) combination.
  ChaseSequence empty(0, 5);
  EXPECT_TRUE(empty.mask().is_zero());
  EXPECT_FALSE(empty.advance());
}

// The control array's positive entries mark the current combination:
// control[i] > 0 exactly when bit i - 1 of the mask is set (i in [1, n]).
// So the first positive entry sits at the mask's lowest set bit + 1, which
// is what lets a step find it without scanning the array. Walks `max_steps`
// states (or the whole sequence) and returns how many break the invariant;
// `first_bad` gets the step index of the first one.
u64 control_mask_mismatches(int n, int k, u64 max_steps, u64& first_bad) {
  ChaseSequence seq(k, n);
  u64 mismatches = 0;
  u64 step = 0;
  do {
    const ChaseState& s = seq.state();
    Seed256 positive;
    for (int i = 1; i <= n; ++i) {
      if (s.control[static_cast<std::size_t>(i)] > 0) positive.set_bit(i - 1);
    }
    int first = 1;
    while (s.control[static_cast<std::size_t>(first)] <= 0) ++first;
    if (positive != s.mask || first != s.mask.count_trailing_zeros() + 1) {
      if (mismatches++ == 0) first_bad = step;
    }
  } while (++step < max_steps && seq.advance());
  return mismatches;
}

TEST(ChaseSequence, PositiveControlEntriesAreTheMaskBits) {
  const auto check_full = [](int n, int max_k) {
    for (int k = 1; k <= max_k && k <= n; ++k) {
      u64 first_bad = 0;
      EXPECT_EQ(control_mask_mismatches(n, k, ~u64{0}, first_bad), 0u)
          << "n=" << n << " k=" << k << " first at step " << first_bad;
    }
  };
  for (int n : {5, 8, 17, 40}) check_full(n, 6);
  check_full(64, 4);
}

TEST(ChaseSequence, PositiveControlEntriesAreTheMaskBitsAtFullWidth) {
  // The first 2^22 states of each full-width shell (all of k <= 3).
  for (int k = 1; k <= 3; ++k) {
    u64 first_bad = 0;
    EXPECT_EQ(control_mask_mismatches(kSeedBits, k, u64{1} << 22, first_bad),
              0u)
        << "k=" << k << " first at step " << first_bad;
  }
}

TEST(ChaseSequence, EmptyCombinationKeepsItsSentinel) {
  // k = 0 is the one exception: the m = 0 sentinel sets control[1] with an
  // empty mask, and the sequence holds that single combination.
  for (int n : {1, 5, 64, kSeedBits}) {
    ChaseSequence seq(0, n);
    EXPECT_EQ(seq.state().control[1], 1) << "n=" << n;
    EXPECT_TRUE(seq.mask().is_zero()) << "n=" << n;
    EXPECT_FALSE(seq.advance()) << "n=" << n;
  }
}

// FNV-1a over the little-endian bytes of every mask the sequence visits, in
// order, for its first `max_states` states.
u64 visit_order_digest(int n, int k, u64 max_states) {
  ChaseSequence seq(k, n);
  u64 h = 0xcbf29ce484222325;
  u64 states = 0;
  do {
    for (const u8 byte : seq.mask().to_bytes()) {
      h ^= byte;
      h *= 0x100000001b3;
    }
  } while (++states < max_states && seq.advance());
  return h;
}

TEST(ChaseSequence, VisitOrderIsPinned) {
  // ChaseCoverage accepts any one-swap Gray code over the k-subsets; these
  // digests pin Chase's order itself, which fixes every search's seed order
  // and so every exhaustive miss's seeds_hashed tally.
  constexpr u64 kAll = ~u64{0};
  EXPECT_EQ(visit_order_digest(kSeedBits, 1, kAll), 0xd14c6fe43ca15a05u);
  EXPECT_EQ(visit_order_digest(kSeedBits, 2, kAll), 0x9bad81e807690c45u);
  EXPECT_EQ(visit_order_digest(kSeedBits, 3, u64{1} << 20),
            0x55e672a0e18ba00eu);
  EXPECT_EQ(visit_order_digest(40, 4, kAll), 0x3843d716eed412aeu);
}

TEST(ChaseSequence, InitialCombinationIsHighestPositions) {
  ChaseSequence seq(3, 8);
  const Seed256 m = seq.mask();
  EXPECT_TRUE(m.bit(5));
  EXPECT_TRUE(m.bit(6));
  EXPECT_TRUE(m.bit(7));
  EXPECT_EQ(m.popcount(), 3);
}

TEST(ChaseSequence, StateRoundTripResumesExactly) {
  ChaseSequence seq(3, 10);
  for (int i = 0; i < 17; ++i) ASSERT_TRUE(seq.advance());
  const ChaseState snapshot = seq.state();
  EXPECT_EQ(snapshot.step_index, 17u);

  // Walk both the original and a resumed copy in lockstep.
  ChaseSequence resumed(snapshot, 10);
  for (int i = 0; i < 50; ++i) {
    const bool a = seq.advance();
    const bool b = resumed.advance();
    ASSERT_EQ(a, b);
    if (!a) break;
    EXPECT_EQ(seq.mask(), resumed.mask());
  }
}

TEST(ChaseSnapshots, TileTheSequence) {
  const int n = 12, k = 4;  // C(12,4) = 495
  const u64 total = binomial64(n, k);
  for (const u64 parts : std::initializer_list<u64>{1, 3, 8, 33, 495, 700}) {
    const u64 stride = (total + parts - 1) / parts;
    std::vector<ChaseState> snaps;
    ASSERT_TRUE(make_chase_snapshots_strided(k, stride, snaps, n));
    ASSERT_EQ(snaps.size(), (total - 1) / stride + 1);
    EXPECT_LE(snaps.size(), parts);
    // Snapshot i sits at step i * stride; the last one starts the last tile.
    for (std::size_t i = 0; i < snaps.size(); ++i)
      EXPECT_EQ(snaps[i].step_index, i * stride);
    EXPECT_LT(snaps.back().step_index, total);
  }
}

TEST(ChaseSnapshots, SnapshotMasksMatchSequentialWalk) {
  const int n = 10, k = 3;
  const auto reference = walk_full_sequence(k, n);
  std::vector<ChaseState> snaps;
  ASSERT_TRUE(make_chase_snapshots_strided(k, 18, snaps, n));  // 7 tiles
  ASSERT_EQ(snaps.size(), 7u);
  for (const auto& s : snaps) {
    ASSERT_LT(s.step_index, reference.size());
    EXPECT_EQ(s.mask, reference[static_cast<std::size_t>(s.step_index)]);
  }
}

TEST(ChaseSnapshots, OneTileWalkPollsAbortOnce) {
  // A one-tile plan's only snapshot is the initial state, so the walk takes
  // no step: `abort` is polled once, at step 0, not once per 16 Ki of the
  // 2,763,520 steps of shell 3.
  const u64 total = binomial64(kSeedBits, 3);
  int polls = 0;
  std::vector<ChaseState> snaps;
  ASSERT_TRUE(make_chase_snapshots_strided(3, total, snaps, kSeedBits, [&] {
    ++polls;
    return false;
  }));
  EXPECT_EQ(polls, 1);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].mask, ChaseSequence(3).mask());
  EXPECT_EQ(snaps[0].step_index, 0u);
}

class ChasePartition
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ChasePartition, FactoryChunksTileDisjointly) {
  // Unit r of p walks tile r of a plan cut into at most p equal tiles.
  const auto [n, k, p] = GetParam();
  const u64 total = binomial64(n, k);
  const u64 parts = static_cast<u64>(p);
  const auto plan = ChaseFactory(n).plan(k, (total + parts - 1) / parts);
  EXPECT_LE(plan->tiles(), parts);
  std::set<std::string> seen;
  for (u64 t = 0; t < plan->tiles(); ++t) {
    auto it = plan->make_tile(t);
    Seed256 mask;
    while (it.next(mask)) {
      EXPECT_EQ(mask.popcount(), k);
      EXPECT_TRUE(seen.insert(mask.to_hex()).second)
          << "duplicate from tile " << t;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, ChasePartition,
    ::testing::Values(std::tuple{8, 3, 1}, std::tuple{8, 3, 4},
                      std::tuple{10, 4, 7}, std::tuple{12, 2, 5},
                      std::tuple{9, 5, 3}, std::tuple{10, 1, 16},
                      std::tuple{6, 2, 32}));

// ---------------------------------------------------------------------------
// The process-wide tile-plan cache. Each test uses an n_bits no other test
// fetches and counts by deltas, so the tests hold in one process too. Tests
// that need an uncached key take a stride no earlier repetition used
// (--gtest_repeat runs them again in the same process).

u64 unused_stride(u64 base) {
  static u64 fetches = 0;
  return base + fetches++;
}

void expect_same_state(const ChaseState& a, const ChaseState& b, u64 t) {
  EXPECT_EQ(a.control, b.control) << "tile " << t;
  EXPECT_EQ(a.mask, b.mask) << "tile " << t;
  EXPECT_EQ(a.step_index, b.step_index) << "tile " << t;
}

TEST(ChasePlanCache, CachedPlanEqualsFreshStridedWalk) {
  const int n = 20, k = 3;
  const u64 stride = 100;  // C(20, 3) = 1140 = 11 * 100 + 40: ragged
  std::vector<ChaseState> fresh;
  ASSERT_TRUE(make_chase_snapshots_strided(k, stride, fresh, n));

  const auto built = ChaseFactory(n).plan(k, stride);
  const auto before = ChaseFactory::plan_cache_stats();
  const auto cached = ChaseFactory(n).plan(k, stride);  // another factory
  const auto after = ChaseFactory::plan_cache_stats();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached, built);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);

  ASSERT_EQ(cached->tiles(), fresh.size());
  ASSERT_EQ(cached->tiles(), 12u);
  for (u64 t = 0; t < cached->tiles(); ++t)
    expect_same_state(cached->snapshot(t), fresh[static_cast<std::size_t>(t)],
                      t);

  // The ragged last tile resumes from its snapshot and stops at the end.
  const u64 last = cached->tiles() - 1;
  EXPECT_EQ(cached->tile_count(last), 40u);
  ChaseSequence reference(fresh.back(), n);
  auto it = cached->make_tile(last);
  Seed256 mask;
  u64 produced = 0;
  bool more = true;
  while (it.next(mask)) {
    ASSERT_TRUE(more);
    EXPECT_EQ(mask, reference.mask()) << "mask " << produced;
    ++produced;
    more = reference.advance();
  }
  EXPECT_EQ(produced, 40u);
  EXPECT_FALSE(more);  // the tile ends where the sequence does
}

TEST(ChasePlanCache, ConcurrentFirstFetchesWalkTheShellOnce) {
  constexpr int kThreads = 8;
  const auto before = ChaseFactory::plan_cache_stats();
  const u64 stride = unused_stride(256);
  std::latch start(kThreads);
  std::array<std::shared_ptr<const ChaseShellPlan>, kThreads> got;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&start, &got, i, stride] {
      start.arrive_and_wait();
      got[i] = ChaseFactory(61).plan(3, stride);
    });
  }
  for (auto& t : threads) t.join();

  const auto after = ChaseFactory::plan_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);  // one walk
  EXPECT_EQ(after.hits, before.hits + kThreads - 1);
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(got[0]->total(), 35990u);  // C(61, 3)
  for (const auto& plan : got) EXPECT_EQ(plan, got[0]);
}

TEST(ChasePlanCache, AbortedWalkLeavesNoEntry) {
  const ChaseFactory factory(23);
  const u64 stride = unused_stride(64);
  const auto before = ChaseFactory::plan_cache_stats();
  EXPECT_EQ(factory.plan(3, stride, [] { return true; }), nullptr);
  const auto aborted = ChaseFactory::plan_cache_stats();
  EXPECT_EQ(aborted.misses, before.misses + 1);
  EXPECT_EQ(aborted.cached_cost, before.cached_cost);

  // Nothing was cached, so the next fetch walks again, to the end.
  const auto plan = factory.plan(3, stride);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->total(), 1771u);  // C(23, 3)
  EXPECT_EQ(ChaseFactory::plan_cache_stats().misses, before.misses + 2);
}

TEST(ChasePlanCache, WaiterWithoutDeadlineGetsTheFullPlanAfterAnAbort) {
  // A starts the walk; B fetches the same key and waits on it. A's walk is
  // cut only once B has polled its own predicate, i.e. once B is waiting.
  // B must not get A's cut walk: it walks again and gets the full plan.
  const ChaseFactory factory(29);
  const u64 stride = unused_stride(50);
  const auto before = ChaseFactory::plan_cache_stats();
  std::atomic<bool> a_walking{false};
  std::atomic<int> b_polls{0};
  std::shared_ptr<const ChaseShellPlan> a_plan, b_plan;
  std::thread a([&] {
    a_plan = factory.plan(3, stride, [&] {
      a_walking.store(true);
      while (b_polls.load() == 0) std::this_thread::yield();
      return true;
    });
  });
  while (!a_walking.load()) std::this_thread::yield();
  std::thread b([&] {
    b_plan = factory.plan(3, stride, [&] {
      b_polls.fetch_add(1);
      return false;  // no deadline
    });
  });
  a.join();
  b.join();

  EXPECT_EQ(a_plan, nullptr);
  ASSERT_NE(b_plan, nullptr);
  EXPECT_EQ(b_plan->total(), 3654u);  // C(29, 3)
  std::vector<ChaseState> fresh;
  ASSERT_TRUE(make_chase_snapshots_strided(3, stride, fresh, 29));
  ASSERT_EQ(b_plan->tiles(), fresh.size());
  for (u64 t = 0; t < b_plan->tiles(); ++t)
    expect_same_state(b_plan->snapshot(t), fresh[static_cast<std::size_t>(t)],
                      t);
  EXPECT_EQ(ChaseFactory::plan_cache_stats().misses, before.misses + 2);
  EXPECT_EQ(factory.plan(3, stride), b_plan);  // B's walk was cached
}

TEST(ChasePlanCache, CancelledWaiterReturnsWhileAnotherCallerWalks) {
  // A's walk is held open until B has returned. B's context is already
  // cancelled, so B must give up its wait instead of waiting for A.
  const ChaseFactory factory(31);
  const u64 stride = unused_stride(50);
  std::atomic<bool> a_walking{false};
  std::atomic<bool> b_returned{false};
  std::atomic<bool> a_held_out{true};
  std::shared_ptr<const ChaseShellPlan> a_plan, b_plan;
  std::thread a([&] {
    a_plan = factory.plan(3, stride, [&] {
      a_walking.store(true);
      // Bounded, so a wrong implementation fails instead of hanging.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!b_returned.load()) {
        if (std::chrono::steady_clock::now() > give_up) {
          a_held_out.store(false);
          break;
        }
        std::this_thread::yield();
      }
      return false;
    });
  });
  while (!a_walking.load()) std::this_thread::yield();
  b_plan = factory.plan(3, stride, [] { return true; });  // cancelled
  b_returned.store(true);
  a.join();

  EXPECT_EQ(b_plan, nullptr);
  EXPECT_TRUE(a_held_out.load()) << "B waited for A's walk";
  ASSERT_NE(a_plan, nullptr);
  EXPECT_EQ(a_plan->total(), 4495u);  // C(31, 3)
}

TEST(ChasePlanCache, PlansOverTheByteCapAreNotRetained) {
  // C(64, 3) = 41664 masks at stride 4: 10416 snapshots, over the cap.
  const ChaseFactory factory(64);
  const auto before = ChaseFactory::plan_cache_stats();
  const auto plan = factory.plan(3, 4);
  ASSERT_NE(plan, nullptr);
  ASSERT_GT(plan->tiles() * sizeof(ChaseState), ChaseFactory::kPlanCacheBytes);
  EXPECT_EQ(plan->total(), 41664u);
  const auto after = ChaseFactory::plan_cache_stats();
  EXPECT_EQ(after.cached_cost, before.cached_cost);
  EXPECT_EQ(after.cached_entries, before.cached_entries);

  // The caller still holds its plan; the next fetch walks again.
  const auto again = factory.plan(3, 4);
  EXPECT_NE(again, plan);
  EXPECT_EQ(ChaseFactory::plan_cache_stats().misses, before.misses + 2);
}

TEST(ChaseIterator, CountLimitsProduction) {
  ChaseSequence seq(2, 8);
  ChaseIterator it(seq.state(), 5, 8);
  Seed256 mask;
  int produced = 0;
  while (it.next(mask)) ++produced;
  EXPECT_EQ(produced, 5);
}

}  // namespace
}  // namespace rbc::comb
