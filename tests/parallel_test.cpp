#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/early_exit.hpp"
#include "parallel/search_context.hpp"
#include "parallel/worker_group.hpp"

namespace rbc::par {
namespace {

TEST(EarlyExitToken, StartsUntriggered) {
  EarlyExitToken token;
  EXPECT_FALSE(token.triggered());
}

TEST(EarlyExitToken, TriggerAndReset) {
  EarlyExitToken token;
  token.trigger();
  EXPECT_TRUE(token.triggered());
  token.trigger();  // idempotent
  EXPECT_TRUE(token.triggered());
  token.reset();
  EXPECT_FALSE(token.triggered());
}

TEST(CheckThrottle, IntervalOneIsDueEveryCall) {
  CheckThrottle throttle(1);
  EXPECT_TRUE(throttle.due());
  EXPECT_TRUE(throttle.due());
}

TEST(CheckThrottle, IntervalNDelaysPollByAtMostN) {
  CheckThrottle throttle(8);
  // First call polls (countdown initialized to 1), then every 8th.
  EXPECT_TRUE(throttle.due());
  int calls_until_due = 0;
  while (!throttle.due()) {
    ++calls_until_due;
    ASSERT_LE(calls_until_due, 8);
  }
  EXPECT_EQ(calls_until_due, 7);
}

TEST(CheckThrottle, ZeroIntervalTreatedAsOne) {
  CheckThrottle throttle(0);
  EXPECT_TRUE(throttle.due());
  EXPECT_TRUE(throttle.due());
}

TEST(WorkerGroup, RunsEachIndexExactlyOnce) {
  WorkerGroup group(4);
  std::vector<std::atomic<int>> hits(4);
  group.parallel_workers(4, [&](int id) { hits[static_cast<unsigned>(id)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerGroup, WidthMayExceedGroupSize) {
  // Sessions size their SPMD width independently of the shared group; units
  // beyond the thread count multiplex instead of failing.
  WorkerGroup group(2);
  std::vector<std::atomic<int>> hits(16);
  group.parallel_workers(16,
                         [&](int id) { hits[static_cast<unsigned>(id)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerGroup, ReusableAcrossRounds) {
  WorkerGroup group(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    group.parallel_workers(3, [&](int) { counter++; });
  }
  EXPECT_EQ(counter.load(), 150);
}

TEST(WorkerGroup, ParallelSumMatchesSerial) {
  WorkerGroup group(4);
  const u64 total = 100000;
  std::vector<u64> partial(4, 0);
  group.parallel_workers(4, [&](int id) {
    const u64 r = static_cast<u64>(id);
    u64 sum = 0;
    for (u64 i = total * r / 4; i < total * (r + 1) / 4; ++i) sum += i;
    partial[static_cast<unsigned>(id)] = sum;
  });
  const u64 sum = std::accumulate(partial.begin(), partial.end(), u64{0});
  EXPECT_EQ(sum, total * (total - 1) / 2);
}

TEST(WorkerGroup, PropagatesWorkerException) {
  WorkerGroup group(2);
  EXPECT_THROW(
      group.parallel_workers(2,
                             [](int id) {
                               if (id == 1)
                                 throw std::runtime_error("worker failure");
                             }),
      std::runtime_error);
  // Group must stay usable after an exception round.
  std::atomic<int> counter{0};
  group.parallel_workers(2, [&](int) { counter++; });
  EXPECT_EQ(counter.load(), 2);
}

TEST(WorkerGroup, ConcurrentRoundsMultiplex) {
  // The multi-session property: many threads open SPMD rounds against ONE
  // group at once; every round's every unit must still run exactly once.
  WorkerGroup group(4);
  constexpr int kSessions = 8;
  constexpr int kWidth = 6;
  std::atomic<int> units{0};
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(kWidth);
        group.parallel_workers(kWidth, [&](int id) {
          hits[static_cast<unsigned>(id)]++;
          units++;
        });
        for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(units.load(), kSessions * 20 * kWidth);
}

TEST(WorkerGroup, CallerHelpsWhenWorkersAreBusy) {
  // Park the only worker inside another thread's round: both of that
  // round's units block on a latch, so one runs on its caller and the other
  // on the worker. A round opened meanwhile must still complete (the caller
  // runs its own units).
  WorkerGroup group(1);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<int> parked{0};
  std::thread other([&] {
    group.parallel_workers(2, [&](int) {
      parked++;
      latch.wait();
    });
  });
  while (parked.load() < 2) std::this_thread::yield();
  std::atomic<int> ran{0};
  group.parallel_workers(4, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 4);
  release.set_value();
  other.join();
}

TEST(WorkerGroup, EarlyExitStopsAllUnits) {
  WorkerGroup group(4);
  EarlyExitToken token;
  std::atomic<u64> iterations{0};
  group.parallel_workers(4, [&](int id) {
    CheckThrottle throttle(4);
    for (u64 i = 0; i < 1000000; ++i) {
      if (throttle.due() && token.triggered()) return;
      iterations++;
      if (id == 0 && i == 100) token.trigger();
    }
  });
  // Units stop well before completing 4M combined iterations.
  EXPECT_LT(iterations.load(), 4000000u);
  EXPECT_TRUE(token.triggered());
}

TEST(WorkerGroup, SingleThreadGroupWorks) {
  WorkerGroup group(1);
  int value = 0;
  group.parallel_workers(1, [&](int id) {
    EXPECT_EQ(id, 0);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(WorkerGroup, RejectsZeroThreads) {
  EXPECT_THROW(WorkerGroup(0), rbc::CheckFailure);
}

TEST(WorkerGroup, RejectsZeroWidthRound) {
  WorkerGroup group(1);
  EXPECT_THROW(group.parallel_workers(0, [](int) {}), rbc::CheckFailure);
}

TEST(WorkerGroup, DefaultThreadsIsPositive) {
  EXPECT_GE(WorkerGroup::default_threads(), 1);
}

TEST(WorkerGroup, SharedGroupIsProcessWide) {
  EXPECT_EQ(&WorkerGroup::shared(), &WorkerGroup::shared());
  EXPECT_EQ(WorkerGroup::shared().size(), WorkerGroup::default_threads());
}

TEST(SearchContext, NoDeadlineNeverExpires) {
  SearchContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.check_deadline());
  EXPECT_FALSE(ctx.cancel_requested());
  EXPECT_FALSE(ctx.timed_out());
}

TEST(SearchContext, BudgetExpiryLatchesTimeoutAndCancel) {
  SearchContext ctx = SearchContext::with_budget(0.0);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.check_deadline());
  EXPECT_TRUE(ctx.timed_out());
  EXPECT_TRUE(ctx.cancel_requested());
  EXPECT_EQ(ctx.remaining_s(), 0.0);
}

TEST(SearchContext, ExternalCancelIsNotATimeout) {
  SearchContext ctx = SearchContext::with_budget(1000.0);
  ctx.cancel();
  EXPECT_TRUE(ctx.cancel_requested());
  EXPECT_TRUE(ctx.check_deadline());  // cancellation short-circuits
  EXPECT_FALSE(ctx.timed_out());
}

TEST(SearchContext, ShouldStopPolicy) {
  SearchContext ctx;
  EXPECT_FALSE(ctx.should_stop(true));
  EXPECT_FALSE(ctx.should_stop(false));
  ctx.signal_match();
  // A match stops early-exit searches only ...
  EXPECT_TRUE(ctx.should_stop(true));
  EXPECT_FALSE(ctx.should_stop(false));
  // ... but cancellation stops both.
  ctx.cancel();
  EXPECT_TRUE(ctx.should_stop(false));
}

TEST(SearchContext, ProgressAggregates) {
  SearchContext ctx;
  ctx.add_progress(10);
  ctx.add_progress(32);
  EXPECT_EQ(ctx.progress(), 42u);
}

}  // namespace
}  // namespace rbc::par
