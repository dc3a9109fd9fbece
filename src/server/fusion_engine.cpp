#include "server/fusion_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "hash/batch.hpp"
#include "obs/trace.hpp"
#include "parallel/search_context.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc::server {
namespace {

/// What one turn hashed: the lanes of its blocks and the candidates judged
/// in them (all but the lanes past a match).
struct Turn {
  u64 lanes = 0;
  u64 judged = 0;
};

/// One admitted search: the bookkeeping that makes its retirement
/// byte-equal to a solo run. ScanJob adds the typed scan, so searches of
/// every hash and stream share the pump's one queue. Pinned on the heap:
/// ctx may point into own_ctx, and ScanJob's scan into its own members.
struct Job {
  explicit Job(const Seed256& init) : s_init(init) {}
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;
  virtual ~Job() = default;

  /// Runs one turn: the first hashes S_init alone, each later one scans up
  /// to `blocks` blocks and ends at a match. Sets `match` or `drained`.
  virtual Turn turn(std::size_t blocks) = 0;

  bool started() const { return counted > 0; }  // S_init hashed
  bool done() const { return match || stopped || drained; }

  /// Publishes the judged candidates not yet reported to the session.
  void flush_progress() {
    if (counted > reported) ctx->add_progress(counted - reported);
    reported = counted;
  }

  void record(const Seed256& seed) {
    match = {seed, shell};
    ctx->signal_match();
  }

  const Seed256 s_init;
  std::optional<par::SearchContext> own_ctx;
  par::SearchContext* ctx = nullptr;
  u64 admit_seq = 0;
  int shell = 0;     // the shell of the last block hashed
  u64 counted = 0;   // judged candidates — the solo seeds_hashed
  u64 reported = 0;  // prefix of `counted` already flushed to the session
  u64 lanes = 0;     // lanes of the blocks hashed
  detail::Match match;
  bool stopped = false;  // deadline expired or cancelled (latched)
  bool drained = false;  // ball exhausted
  WallTimer timer;
  std::promise<SearchResult> promise;
};

template <typename Digest>
Digest typed_digest(ByteSpan bytes) {
  Digest digest;
  std::memcpy(digest.bytes.data(), bytes.data(), digest.bytes.size());
  return digest;
}

/// A search as the solo single-unit scan runs it (detail::scan_stream):
/// one SeedScan over shell k's candidate source, stream.shell_candidates(k),
/// for k = 1..d.
template <hash::SeedHash H, typename Stream>
class ScanJob final : public Job {
 public:
  /// `stream_args` follow S_init in Stream's constructor.
  template <typename... Args>
  ScanJob(const Seed256& init, ByteSpan digest, Args&&... stream_args)
      : Job(init),
        target_(typed_digest<typename H::digest_type>(digest)),
        stream_(init, std::forward<Args>(stream_args)...) {}

  Turn turn(std::size_t blocks) override {
    Turn t;
    if (!started()) {
      // The solo search's distance 0 (detail::matches_at_distance_zero).
      counted = 1;
      if (hash_(s_init) == target_) record(s_init);
      return t;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      if (!open_pending()) {
        drained = true;
        break;
      }
      const hash::BlockScan block = scan_.step(*source_);
      t.lanes += hash::SeedScan<H>::kLanes;
      t.judged += block.counted;
      if (block.found()) {
        record(*block.match);
        break;
      }
    }
    counted += t.judged;
    return t;
  }

 private:
  /// Opens shells until one has a block pending; false once the ball is
  /// drained.
  bool open_pending() {
    while (!scan_.pending()) {
      if (shell == stream_.max_distance()) return false;
      source_.emplace(stream_.shell_candidates(++shell));
      scan_.start(*source_);
    }
    return true;
  }

  const H hash_{};
  const typename H::digest_type target_;
  Stream stream_;
  std::optional<decltype(std::declval<const Stream&>().shell_candidates(1))>
      source_;  // the open shell's
  hash::SeedScan<H> scan_{hash_, target_, /*stop_at_match=*/true};
};

/// The solo search's rule (rbc_search): a reliability order selects the
/// likelihood-first stream, otherwise the backend family's canonical one.
template <hash::SeedHash H>
std::unique_ptr<Job> make_job(const Seed256& s_init, ByteSpan digest,
                              sim::IterAlgo family, const SearchOptions& opts) {
  if (opts.reliability != nullptr) {
    return std::make_unique<ScanJob<H, OrderedBallStream>>(
        s_init, digest, opts.max_distance, opts.reliability,
        opts.ordered_budget);
  }
  return with_factory(
      family, comb::kSeedBits,
      [&](const auto& factory) -> std::unique_ptr<Job> {
        using Stream = BallStream<std::decay_t<decltype(factory)>>;
        return std::make_unique<ScanJob<H, Stream>>(
            s_init, digest, opts.max_distance, factory);
      });
}

/// Mirrors the solo rbc_search tail: a drained ball without a match still
/// takes the post-loop deadline poll, then detail::finish writes the
/// verdict.
void retire(Job& j) {
  j.flush_progress();
  // Lane-residency span: how long this session lived inside the fused
  // engine (admission to retirement), how far its scan got and how many
  // lanes its blocks took. The pump thread writes it BEFORE set_value
  // resolves the driver's future, so the span always precedes the
  // session's verdict.
  if (obs::SessionTrace* trace = j.ctx->trace()) {
    trace->span_ending_now(obs::SpanKind::kFusionLane, j.timer.elapsed_s(),
                           static_cast<u32>(j.shell), j.lanes);
  }
  SearchResult r;
  r.seeds_hashed = j.counted;
  if (j.match) {
    r.canonical_rank = comb::canonical_ball_rank(j.match->first ^ j.s_init);
  } else if (j.drained) {
    j.ctx->check_deadline();
  }
  detail::finish(r, j.match, *j.ctx, j.timer);
  j.promise.set_value(r);
}

}  // namespace

struct FusionEngine::Impl {
  explicit Impl(int lanes)
      : turn_blocks((static_cast<std::size_t>(std::max(lanes, 1)) +
                     hash::LaneBlock::kLanes - 1) /
                    hash::LaneBlock::kLanes) {
    pump = std::thread([this] { pump_loop(); });
  }

  const std::size_t turn_blocks;  // blocks a turn may hash
  mutable std::mutex mu;
  std::condition_variable cv;
  bool shutting_down = false;                 // guarded by mu
  FusionStats stats;                          // guarded by mu
  u64 admit_seq = 0;                          // guarded by mu
  std::vector<std::unique_ptr<Job>> pending;  // guarded by mu
  std::mutex join_mu;
  std::thread pump;

  void pump_loop() {
    std::vector<std::unique_ptr<Job>> active;  // pump-owned
    const auto admit_pending = [&] {
      for (auto& j : pending) active.push_back(std::move(j));
      pending.clear();
    };
    for (;;) {
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] {
          return shutting_down || !pending.empty() || !active.empty();
        });
        if (shutting_down) break;
        admit_pending();
      }
      run_round(active);
    }
    // Shutdown: cancel and retire everything still queued or active.
    {
      std::lock_guard lk(mu);
      admit_pending();
    }
    for (auto& j : active) {
      j->ctx->cancel();
      retire(*j);
    }
  }

  /// One round: each active search, earliest deadline first, is stopped or
  /// takes a turn; then the finished ones retire.
  void run_round(std::vector<std::unique_ptr<Job>>& active) {
    std::sort(active.begin(), active.end(), [](const auto& a, const auto& b) {
      const auto da = a->ctx->deadline();
      const auto db = b->ctx->deadline();
      if (da != db) return da < db;
      return a->admit_seq < b->admit_seq;
    });
    // One clock read serves every stop check this round; a search that
    // expires mid-round is caught at the next round's read, a cadence at
    // least as tight as the solo loop's check_interval.
    const auto now = par::SearchContext::Clock::now();
    Turn round;
    for (auto& j : active) {
      // S_init is hashed before the first stop check, as on the solo path.
      if (j->started() &&
          (j->ctx->cancel_requested() || now >= j->ctx->deadline())) {
        j->ctx->check_deadline();  // latch timed_out when it's the cause
        j->stopped = true;
        continue;
      }
      const Turn t = j->turn(turn_blocks);
      j->lanes += t.lanes;
      j->flush_progress();
      round.lanes += t.lanes;
      round.judged += t.judged;
    }
    // Counted before any verdict resolves, so a caller that has its
    // verdict sees its lanes in stats().
    if (round.lanes > 0) {
      std::lock_guard lk(mu);
      ++stats.batch_count;
      stats.lanes_filled += round.judged;
      stats.lanes_issued += round.lanes;
    }
    for (auto it = active.begin(); it != active.end();) {
      if ((*it)->done()) {
        retire(**it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::optional<EngineReport> submit(std::unique_ptr<Job> job,
                                     const SearchOptions& opts,
                                     par::SearchContext* session) {
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
      pending.push_back(std::move(job));
    }
    cv.notify_one();
    EngineReport report;
    report.result = fut.get();
    report.modeled_device_seconds = 0.0;
    report.device_name = "SALTED-FUSED";
    return report;
  }
};

FusionEngine::FusionEngine(int lanes) : impl_(std::make_unique<Impl>(lanes)) {}

FusionEngine::~FusionEngine() { shutdown(); }

std::optional<EngineReport> FusionEngine::try_search(
    const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
    sim::IterAlgo family, const SearchOptions& opts,
    par::SearchContext* session) {
  // Decline anything the fused path cannot substitute bit-for-bit: the
  // equivalence contract is against the SINGLE-thread early-exit search, a
  // quantum_hook needs the private loop, and oversized balls belong on the
  // tiled path.
  if (!opts.early_exit || opts.num_threads != 1 || opts.quantum_hook ||
      opts.max_distance < 0 ||
      digest.size() != hash::digest_size(algo) ||
      ball_candidates(opts.max_distance) > u128{kMaxBallSeeds}) {
    std::lock_guard lk(impl_->mu);
    ++impl_->stats.declined;
    return std::nullopt;
  }
  std::unique_ptr<Job> job =
      algo == hash::HashAlgo::kSha1
          ? make_job<hash::Sha1BatchSeedHash>(s_init, digest, family, opts)
          : make_job<hash::Sha3BatchSeedHash>(s_init, digest, family, opts);
  return impl_->submit(std::move(job), opts, session);
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
