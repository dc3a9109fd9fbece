// A bounded LRU cache of immutable values whose misses are single-flight:
// concurrent fetches of one key wait for ONE build instead of each building
// the value. The process-wide cache of Chase tile plans
// (combinatorics/chase382.cpp) uses it: a plan is an O(C(n, k)) walk that
// every tiled search would otherwise repeat.
//
// A build may give up (return nullptr): a deadline cut its walk short. A
// given-up build is neither retained nor handed to the fetches waiting on
// it; each waiter then builds under its own stop predicate, so one caller's
// deadline never fails another caller's fetch. A waiter polls its own
// predicate while it waits, so its deadline still ends the wait promptly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "common/types.hpp"

namespace rbc {

/// Counters of one cache. A snapshot is taken under the cache mutex, so it
/// is never torn.
struct CacheStats {
  u64 hits = 0;       // includes fetches that waited for another's build
  u64 misses = 0;     // builds started, one per fetch that built
  u64 evictions = 0;  // entries dropped by the capacity bound
  u64 cached_cost = 0;  // summed cost of the retained entries
  u64 cached_entries = 0;
};

template <typename Key, typename Value>
class SingleFlightCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  using CostFn = u64 (*)(const Value&);

  /// Retains values while their summed `cost` stays within `capacity`,
  /// evicting the least recently fetched first. The most recently fetched
  /// entry is never evicted, so the bound is soft by one entry. A value
  /// costing more than `max_retained_cost` is handed to the fetches of its
  /// build but never retained.
  SingleFlightCache(CostFn cost, u64 capacity,
                    u64 max_retained_cost = ~u64{0})
      : cost_(cost), max_retained_cost_(max_retained_cost),
        capacity_(capacity) {}

  SingleFlightCache(const SingleFlightCache&) = delete;
  SingleFlightCache& operator=(const SingleFlightCache&) = delete;

  /// Returns the value for `key`, calling `build()` (-> Ptr) when no entry
  /// is retained and no other fetch is building it. Returns nullptr when
  /// `stop` fired, either inside this fetch's own build (which then returns
  /// nullptr) or while waiting for another fetch's build. An empty `stop`
  /// waits as long as the other build takes. An exception from `build`
  /// reaches the builder and every fetch waiting on it.
  template <typename Build>
  Ptr get(const Key& key, Build&& build,
          const std::function<bool()>& stop = {}) {
    std::unique_lock lock(mutex_);
    while (true) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return it->second.value;
      }
      auto pending = building_.find(key);
      if (pending == building_.end()) break;
      const std::shared_ptr<Flight> flight = pending->second;
      const auto landed = [&flight] { return flight->done; };
      if (!stop) {
        built_.wait(lock, landed);
      } else {
        while (!built_.wait_for(lock, kStopPoll, landed)) {
          lock.unlock();
          const bool stopped = stop();
          lock.lock();
          if (stopped) return nullptr;
        }
      }
      if (flight->error) std::rethrow_exception(flight->error);
      if (flight->value != nullptr) {
        ++stats_.hits;  // a hit, so misses count builds
        return flight->value;
      }
      // That build gave up; look again and build under our own `stop`.
    }
    ++stats_.misses;
    const auto flight = std::make_shared<Flight>();
    building_.emplace(key, flight);
    lock.unlock();

    // Build outside the lock: other keys must not wait behind this walk.
    Ptr value;
    try {
      value = build();
    } catch (...) {
      finish(lock, key, *flight, nullptr, std::current_exception());
      throw;
    }
    finish(lock, key, *flight, value, nullptr);
    return value;
  }

  CacheStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  /// How often a fetch waiting on another's build polls its stop predicate.
  static constexpr std::chrono::milliseconds kStopPoll{2};

  struct Flight {
    bool done = false;
    Ptr value;  // nullptr when the build gave up or threw
    std::exception_ptr error;
  };
  struct Entry {
    Ptr value;
    u64 cost = 0;
    typename std::list<Key>::iterator lru_it;
  };

  /// Publishes a finished build to its waiters and, if it produced a value
  /// small enough, retains it. `lock` is unlocked on entry and on return.
  void finish(std::unique_lock<std::mutex>& lock, const Key& key,
              Flight& flight, const Ptr& value, std::exception_ptr error) {
    const u64 cost = value != nullptr ? cost_(*value) : 0;
    lock.lock();
    building_.erase(key);
    flight.done = true;
    flight.value = value;
    flight.error = std::move(error);
    if (value != nullptr && cost <= max_retained_cost_) {
      lru_.push_front(key);
      entries_.emplace(key, Entry{value, cost, lru_.begin()});
      stats_.cached_cost += cost;
      evict_to_capacity();  // never the front entry, i.e. this one
    }
    lock.unlock();
    built_.notify_all();
  }

  /// Evicts least recently fetched entries until within capacity, but never
  /// the front entry. Caller holds mutex_.
  void evict_to_capacity() {
    while (stats_.cached_cost > capacity_ && lru_.size() > 1) {
      auto it = entries_.find(lru_.back());
      lru_.pop_back();
      stats_.cached_cost -= it->second.cost;
      entries_.erase(it);
      ++stats_.evictions;
    }
    stats_.cached_entries = entries_.size();
  }

  const CostFn cost_;
  const u64 max_retained_cost_;
  const u64 capacity_;
  mutable std::mutex mutex_;  // guards every member below
  std::condition_variable built_;  // one flight finished (any key)
  std::map<Key, Entry> entries_;
  std::map<Key, std::shared_ptr<Flight>> building_;
  std::list<Key> lru_;  // front = most recently fetched
  CacheStats stats_;
};

}  // namespace rbc
