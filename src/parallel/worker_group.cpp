#include "parallel/worker_group.hpp"

#include <algorithm>

namespace rbc::par {

WorkerGroup::WorkerGroup(int num_threads) {
  RBC_CHECK_MSG(num_threads > 0, "worker group needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerGroup::~WorkerGroup() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

WorkerGroup& WorkerGroup::shared() {
  static WorkerGroup group(default_threads());
  return group;
}

void WorkerGroup::run_round_units(std::unique_lock<std::mutex>& lock,
                                  Round& round) {
  while (round.next < round.width) {
    const int index = round.next++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*round.body)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !round.first_error) round.first_error = error;
    if (++round.completed == round.width) round.done_cv.notify_all();
  }
}

void WorkerGroup::parallel_workers(int width,
                                   const std::function<void(int)>& body) {
  RBC_CHECK_MSG(width >= 1, "SPMD round needs at least one unit");
  auto round = std::make_shared<Round>();
  round->body = &body;
  round->width = width;

  std::unique_lock lock(mutex_);
  // One ticket per worker that could usefully help; each ticket drains the
  // round's claim counter, so more tickets than workers buy nothing.
  const int tickets = std::min(width, size());
  for (int i = 0; i < tickets; ++i) tickets_.push_back(round);
  cv_work_.notify_all();

  // Caller-helps: claim and run this round's units alongside the workers.
  run_round_units(lock, *round);
  round->done_cv.wait(lock, [&] { return round->completed == round->width; });
  const std::exception_ptr error = round->first_error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void WorkerGroup::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    cv_work_.wait(lock, [&] { return shutdown_ || !tickets_.empty(); });
    if (shutdown_) return;
    const std::shared_ptr<Round> round = std::move(tickets_.front());
    tickets_.pop_front();
    run_round_units(lock, *round);
  }
}

}  // namespace rbc::par
