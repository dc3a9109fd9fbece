// The process-wide compute substrate for concurrent RBC sessions.
//
// The seed implementation gave every engine a private ThreadPool, so a CA
// serving N clients at once ran N x hardware_concurrency threads — the exact
// oversubscription a throughput-oriented server must avoid. WorkerGroup is
// one fixed set of worker threads that MULTIPLEXES many sessions:
//
// parallel_workers(width, body) keeps Algorithm 1's SPMD shape — body(r)
// runs exactly once for each r in [0, width) — but is safe to call from MANY
// threads at once; the rounds' units interleave on the shared workers
// instead of each owning a pool. A round queues one ticket per worker that
// could help it, and workers take tickets in arrival order.
//
// Scheduling is caller-helps: the thread that opens a round claims and runs
// work units itself whenever no pool worker gets there first. This bounds
// latency under load (a session always progresses on its own driver thread,
// even with every worker busy) and makes nested rounds deadlock-free by
// construction — a worker blocked on an inner round executes that round's
// units directly.
//
// Units are claimed from a shared index counter, so a round's slices may run
// on fewer OS threads than `width`; slices are disjoint (the §3.2.1 equal-
// workload partition), so sequential execution of two slices on one thread
// is merely slower, never wrong.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace rbc::par {

class WorkerGroup {
 public:
  explicit WorkerGroup(int num_threads);
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// The process-wide group (hardware_concurrency workers), shared by every
  /// engine that is not given an explicit group. Constructed on first use.
  static WorkerGroup& shared();

  /// Hardware concurrency, floored at 1.
  static int default_threads() noexcept {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }

  /// Runs body(r) exactly once for every r in [0, width) and blocks until
  /// all complete. Reentrant and callable concurrently from any number of
  /// threads; width may exceed size() (units queue and multiplex). The
  /// calling thread helps execute its own round's units. The first exception
  /// thrown by any unit is rethrown here after the round retires.
  void parallel_workers(int width, const std::function<void(int)>& body);

 private:
  /// One SPMD round: width units claimed off a shared counter.
  struct Round {
    const std::function<void(int)>* body = nullptr;
    int width = 0;
    int next = 0;       // next unclaimed index (guarded by group mutex)
    int completed = 0;  // retired units (guarded by group mutex)
    std::exception_ptr first_error;
    std::condition_variable done_cv;
  };

  void worker_loop();
  /// Claims and runs units of `round` until none remain unclaimed. Returns
  /// with the group mutex held by `lock`.
  void run_round_units(std::unique_lock<std::mutex>& lock, Round& round);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::deque<std::shared_ptr<Round>> tickets_;  // rounds asking for helpers
  bool shutdown_ = false;
};

}  // namespace rbc::par
