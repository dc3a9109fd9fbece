#include "server/fusion_engine.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "hash/batch.hpp"
#include "obs/trace.hpp"
#include "parallel/search_context.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc::server {
namespace {

/// One admitted search: a resumable stream plus the bookkeeping that makes
/// its retirement byte-equal to a solo run. Heap-allocated so ctx can point
/// into own_ctx without move hazards.
template <typename H>
struct Job {
  Job(const Seed256& init, sim::IterAlgo family, const SearchOptions& opts)
      : s_init(init) {
    // The solo search's rule (rbc_search): a reliability order selects the
    // likelihood-first stream, otherwise the backend family's canonical one.
    if (opts.reliability != nullptr) {
      stream = std::make_unique<OrderedBallStream>(
          init, opts.max_distance, opts.reliability, opts.ordered_budget);
    } else {
      stream =
          std::make_unique<TableCandidateStream>(init, opts.max_distance, family);
    }
  }

  Seed256 s_init;
  std::unique_ptr<CandidateStream> stream;
  typename H::digest_type target;
  u64 head = 0;  // target digest's first 8 bytes (prefilter word)
  std::optional<par::SearchContext> own_ctx;
  par::SearchContext* ctx = nullptr;
  u64 admit_seq = 0;
  u64 counted = 0;   // judged candidates — the solo seeds_hashed at retire
  u64 reported = 0;  // prefix of `counted` already flushed to add_progress
  u64 dealt = 0;     // candidates handed to batches (includes speculative)
  int batch_tag = -1;
  detail::Match match;
  bool stopped = false;  // deadline expired or cancelled (latched)
  bool drained = false;  // ball exhausted
  WallTimer timer;
  std::promise<SearchResult> promise;

  bool done() const { return match || stopped || drained; }

  /// Publishes the judged candidates not yet reported to the session.
  void flush_progress() {
    if (counted > reported) ctx->add_progress(counted - reported);
    reported = counted;
  }
};

/// Mirrors the solo rbc_search tail: a drained ball without a match still
/// takes the post-loop deadline poll, then detail::finish writes the
/// verdict.
template <typename H>
SearchResult retire_result(Job<H>& j) {
  j.flush_progress();
  // Lane-residency span: how long this session lived inside the fused
  // engine (admission to retirement), how far its stream got and how many
  // lane slots it consumed (dealt >= counted when lanes past a match were
  // speculative). The pump thread writes it BEFORE set_value resolves the
  // driver's future, so the span always precedes the session's verdict.
  if (obs::SessionTrace* trace = j.ctx->trace()) {
    trace->span_ending_now(obs::SpanKind::kFusionLane, j.timer.elapsed_s(),
                           static_cast<u32>(j.stream->last_shell()), j.dealt);
  }
  SearchResult r;
  r.seeds_hashed = j.counted;
  if (j.match) {
    r.canonical_rank = comb::canonical_ball_rank(j.match->first ^ j.s_init);
  } else if (j.drained) {
    j.ctx->check_deadline();
  }
  detail::finish(r, j.match, *j.ctx, j.timer);
  return r;
}

}  // namespace

struct FusionEngine::Impl {
  template <typename H>
  struct Queue {
    std::deque<std::unique_ptr<Job<H>>> pending;  // guarded by mu
    std::vector<std::unique_ptr<Job<H>>> active;  // pump-owned
  };

  explicit Impl(int lanes)
      : batch_lanes(std::clamp(lanes, 1,
                               static_cast<int>(hash::kMaxTaggedLanes))) {
    pump = std::thread([this] { pump_loop(); });
  }

  const int batch_lanes;
  mutable std::mutex mu;
  std::condition_variable cv;
  bool shutting_down = false;  // guarded by mu
  FusionStats stats;           // guarded by mu
  u64 admit_seq = 0;           // guarded by mu
  Queue<hash::Sha1BatchSeedHash> sha1;
  Queue<hash::Sha3BatchSeedHash> sha3;
  std::mutex join_mu;
  std::thread pump;

  template <typename H>
  void drain_pending_locked(Queue<H>& q) {
    while (!q.pending.empty()) {
      q.active.push_back(std::move(q.pending.front()));
      q.pending.pop_front();
    }
  }

  void pump_loop() {
    for (;;) {
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] {
          return shutting_down || !sha1.pending.empty() ||
                 !sha3.pending.empty() || !sha1.active.empty() ||
                 !sha3.active.empty();
        });
        if (shutting_down) break;
        drain_pending_locked(sha1);
        drain_pending_locked(sha3);
      }
      run_batch(sha1);
      run_batch(sha3);
    }
    abort_queue(sha1);
    abort_queue(sha3);
  }

  /// Deals one fused batch over q.active, hashes it to digest heads through
  /// the tagged multi-lane kernel, judges the lanes (a head hit is confirmed
  /// with the scalar hash) and retires finished streams.
  template <typename H>
  void run_batch(Queue<H>& q) {
    if (q.active.empty()) return;
    const std::size_t L = static_cast<std::size_t>(batch_lanes);
    std::array<Seed256, hash::kMaxTaggedLanes> seeds;
    std::array<u16, hash::kMaxTaggedLanes> tags;
    std::array<int, hash::kMaxTaggedLanes> lane_shell;
    std::array<u64, hash::kMaxTaggedLanes> heads;
    std::array<Job<H>*, hash::kMaxTaggedLanes> batch_jobs;
    std::size_t num_tags = 0;
    for (auto& j : q.active) j->batch_tag = -1;

    // One clock read serves every stop check this batch; streams that
    // expire mid-batch are caught at the next batch's read, a cadence at
    // least as tight as the solo loop's check_interval.
    const auto now = par::SearchContext::Clock::now();

    // Deal lane slots in EDF order, round by round, until the batch is full
    // or nothing is left to deal. The stop check runs before every fill of
    // a stream that has already been dealt once — the unconditional first
    // fill produces exactly the d0 candidate, mirroring the solo path where
    // S_init is hashed before any deadline poll.
    std::size_t filled = 0;
    std::vector<Job<H>*> runnable;
    runnable.reserve(q.active.size());
    while (filled < L) {
      runnable.clear();
      for (auto& j : q.active) {
        if (!j->done()) runnable.push_back(j.get());
      }
      if (runnable.empty()) {
        // Same-batch backfill: every live stream retired mid-deal, so pull
        // whatever is queued straight into this batch's remaining lanes.
        std::lock_guard lk(mu);
        if (q.pending.empty()) break;
        drain_pending_locked(q);
        continue;
      }
      std::sort(runnable.begin(), runnable.end(),
                [](const Job<H>* a, const Job<H>* b) {
                  const auto da = a->ctx->deadline();
                  const auto db = b->ctx->deadline();
                  if (da != db) return da < db;
                  return a->admit_seq < b->admit_seq;
                });
      const std::size_t share =
          std::max<std::size_t>(1, (L - filled) / runnable.size());
      for (Job<H>* j : runnable) {
        if (filled >= L) break;
        if (j->dealt > 0 &&
            (j->ctx->cancel_requested() || now >= j->ctx->deadline())) {
          j->ctx->check_deadline();  // latch timed_out when it's the cause
          j->stopped = true;
          continue;
        }
        const std::size_t got =
            j->stream->fill(&seeds[filled], std::min(share, L - filled));
        if (got == 0) {
          j->drained = true;
          continue;
        }
        if (j->batch_tag < 0) {
          j->batch_tag = static_cast<int>(num_tags);
          batch_jobs[num_tags] = j;
          heads[num_tags] = j->head;
          ++num_tags;
        }
        const int shell = j->stream->last_shell();
        for (std::size_t i = 0; i < got; ++i) {
          tags[filled + i] = static_cast<u16>(j->batch_tag);
          lane_shell[filled + i] = shell;
        }
        j->dealt += got;
        filled += got;
      }
    }

    if (filled > 0) {
      const H hasher;
      const u64 hits = hash::hash_seed_block_tagged(
          hasher, seeds.data(), filled, tags.data(), heads.data());
      // Judge lanes in deal order — within one stream that IS enumeration
      // order, so stopping the count at the match lane reproduces the solo
      // `counted = i + 1` accounting; lanes dealt past it were speculative.
      for (std::size_t i = 0; i < filled; ++i) {
        Job<H>* j = batch_jobs[tags[i]];
        if (j->match) continue;
        ++j->counted;
        if (((hits >> i) & 1) == 0) continue;
        if (!(hasher(seeds[i]) == j->target)) continue;
        j->match = {seeds[i], lane_shell[i]};
        j->ctx->signal_match();
      }
      for (std::size_t t = 0; t < num_tags; ++t) batch_jobs[t]->flush_progress();
    }

    for (auto it = q.active.begin(); it != q.active.end();) {
      Job<H>& j = **it;
      if (j.done()) {
        j.promise.set_value(retire_result(j));
        it = q.active.erase(it);
      } else {
        ++it;
      }
    }

    if (filled > 0) {
      std::lock_guard lk(mu);
      ++stats.batch_count;
      stats.lanes_filled += filled;
      stats.lanes_issued += L;
    }
  }

  /// Shutdown path: cancel and retire everything still queued or active.
  template <typename H>
  void abort_queue(Queue<H>& q) {
    {
      std::lock_guard lk(mu);
      drain_pending_locked(q);
    }
    for (auto& j : q.active) {
      j->ctx->cancel();
      j->promise.set_value(retire_result(*j));
    }
    q.active.clear();
  }

  template <typename H>
  std::optional<EngineReport> submit(Queue<H>& q, const Seed256& s_init,
                                     ByteSpan digest, sim::IterAlgo family,
                                     const SearchOptions& opts,
                                     par::SearchContext* session) {
    auto job = std::make_unique<Job<H>>(s_init, family, opts);
    std::memcpy(job->target.bytes.data(), digest.data(),
                job->target.bytes.size());
    job->head = hash::digest_head(job->target);
    if (session != nullptr) {
      job->ctx = session;
    } else {
      // Same budget-from-now the solo path builds when no session exists.
      job->own_ctx.emplace(par::SearchContext::with_budget(opts.timeout_s));
      job->ctx = &*job->own_ctx;
    }
    auto fut = job->promise.get_future();
    {
      std::lock_guard lk(mu);
      if (shutting_down) {
        ++stats.declined;
        return std::nullopt;
      }
      job->admit_seq = admit_seq++;
      ++stats.fused_sessions;
      q.pending.push_back(std::move(job));
    }
    cv.notify_one();
    EngineReport report;
    report.result = fut.get();
    report.modeled_device_seconds = 0.0;
    report.device_name = "SALTED-FUSED";
    return report;
  }
};

FusionEngine::FusionEngine(int batch_lanes)
    : impl_(std::make_unique<Impl>(batch_lanes)) {}

FusionEngine::~FusionEngine() { shutdown(); }

std::optional<EngineReport> FusionEngine::try_search(
    const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
    sim::IterAlgo family, const SearchOptions& opts,
    par::SearchContext* session) {
  // Decline anything the fused path cannot substitute bit-for-bit: the
  // equivalence contract is against the SINGLE-thread early-exit search, a
  // quantum_hook needs the private loop, and oversized balls belong on the
  // tiled path (and would blow the shell table cap).
  if (!opts.early_exit || opts.num_threads != 1 || opts.quantum_hook ||
      opts.max_distance < 0 ||
      digest.size() != hash::digest_size(algo) ||
      ball_candidates(opts.max_distance) > u128{kMaxBallSeeds}) {
    std::lock_guard lk(impl_->mu);
    ++impl_->stats.declined;
    return std::nullopt;
  }
  if (algo == hash::HashAlgo::kSha1) {
    return impl_->submit(impl_->sha1, s_init, digest, family, opts, session);
  }
  return impl_->submit(impl_->sha3, s_init, digest, family, opts, session);
}

FusionStats FusionEngine::stats() const {
  std::lock_guard lk(impl_->mu);
  return impl_->stats;
}

void FusionEngine::shutdown() {
  {
    std::lock_guard lk(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->cv.notify_all();
  std::lock_guard jl(impl_->join_mu);
  if (impl_->pump.joinable()) impl_->pump.join();
}

}  // namespace rbc::server
