// rbc_perfbench — the repository benchmark's measuring program.
//
// Runs one fixed serving workload against the real AuthServer ->
// CertificateAuthority -> SearchBackend stack, with inputs generated from a
// seed, and prints one JSON object: the end-to-end metrics of an untraced
// timed window, or (--trace 1) the per-layer breakdown of a separate traced
// run. perfbench/run.py builds this program and is the command to run; see
// perfbench/NOTES.md for the workloads, the layer table and the notes on
// steadiness.
//
// Layers are measured from outside: every per-layer number comes from
// timing calls into public functions, from SessionOutcome / ServerStats, or
// from the spans AuthServer::trace_events() already records.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "combinatorics/chase382.hpp"
#include "crypto/pqc_keygen.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"
#include "net/message.hpp"
#include "parallel/worker_group.hpp"
#include "rbc/candidate_stream.hpp"
#include "rbc/engines.hpp"
#include "rbc/protocol.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace rbc;
using Clock = std::chrono::steady_clock;

// --- workloads ---------------------------------------------------------------

/// One fixed traffic mix. Every workload uses SHA-3, TAPKI, the CPU backend
/// and one shard; each client is one generator thread that blocks on its
/// session's future (closed loop). NOTES.md says why each shape was chosen.
struct WorkloadSpec {
  std::string_view name;
  int honest_clients;    // closed-loop honest generator threads
  int bogus_clients;     // closed-loop threads submitting out-of-ball digests
  int drivers;           // ServerConfig::max_in_flight
  int honest_devices;    // enrolled devices the honest clients cycle through
  int bogus_devices;     // enrolled ids the bogus clients claim
  u32 puf_addresses;
  int ca_distance;       // CaConfig::max_distance
  int injected_distance; // honest clients' exact noise distance
  crypto::KeygenAlgo keygen;
  bool fusion;
  int search_units;      // EngineConfig::host_threads
  double think_s;        // bogus client's pause after each verdict
  int warmup;            // sessions per client before the timed window
  bool bogus_measured;   // the measured class is the bogus sessions
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fleet_d1", 2, 0, 2, 256, 0, 64, 1, 1, crypto::KeygenAlgo::kDilithiumLike,
     false, 1, 0.0, 16, false},
    {"fused_d2", 4, 0, 4, 64, 0, 4, 2, 2, crypto::KeygenAlgo::kAes128, true, 1,
     0.0, 48, false},
    {"hostile_d3", 2, 1, 2, 64, 8, 4, 3, 2, crypto::KeygenAlgo::kAes128, false,
     1, 0.1, 8, false},
    {"search_d3", 0, 1, 1, 0, 8, 4, 3, 0, crypto::KeygenAlgo::kAes128, false,
     2, 0.0, 1, true},
};

/// Candidates in the Hamming ball of radius d over 256 bits.
u64 ball_size(int d) {
  return d < 0 ? 0 : static_cast<u64>(ball_candidates(d));
}

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// This process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it does not inherit the launching process's peak
/// across exec.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  std::fclose(f);
  return kib / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// A fixed integer loop in the benchmark's own code: its time tracks host
/// speed only, so drift in it separates a slower host from a slower program.
/// Median of five repetitions, so one preempted repetition does not count.
double host_probe_ms() {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const double t = now_s();
    u64 x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 10'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile u64 sink = x;
    (void)sink;
    reps.push_back((now_s() - t) * 1e3);
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

// --- inputs -------------------------------------------------------------------

/// One enrolled identity and the client object that claims it. Honest
/// clients hold the enrolled PUF; bogus clients claim the id with a
/// different PUF, so their digests lie far outside the CA's ball.
struct Device {
  u64 id = 0;
  int thread = 0;  // the generator thread that owns it (ids never shared)
  bool bogus = false;
  u64 enroll_seed = 0;
  std::unique_ptr<puf::SramPufModel> enrolled;
  std::unique_ptr<puf::SramPufModel> held;  // bogus clients only
  std::unique_ptr<Client> client;
  u64 client_seed = 0;
};

/// Everything a workload's inputs are made of, generated from the seed.
/// Device ids are drawn so that each generator thread owns whole authority
/// stripes (stripe_of(id) % threads == thread): the CA's per-stripe
/// challenge RNG is then consumed by one thread only, so each thread's
/// k-th session is the same on every run of a seed, whatever the interleaving.
struct Inputs {
  crypto::Aes128::Key master_key{};
  u64 challenge_rng_seed = 0;
  std::vector<Device> devices;
  std::vector<std::vector<std::size_t>> by_thread;  // device indices
  int threads = 0;
};

puf::SramPufModel::Params puf_params(const WorkloadSpec& w) {
  puf::SramPufModel::Params p;
  p.num_addresses = w.puf_addresses;
  return p;
}

ClientConfig client_config(const WorkloadSpec& w, u64 id, bool bogus) {
  ClientConfig c;
  c.device_id = id;
  c.hash_algo = hash::HashAlgo::kSha3_256;
  c.keygen_algo = w.keygen;
  // A bogus client submits its own (foreign) PUF's masked reading as is.
  c.injected_distance = bogus ? -1 : w.injected_distance;
  // The noise reference is the client's majority vote. With 15 reads (the
  // library default is 7) a mis-voted cell, which moves a session off its
  // injected distance, is too rare to occur in a run.
  c.majority_reads = 15;
  return c;
}

Inputs make_inputs(const WorkloadSpec& w, u64 seed) {
  Inputs in;
  u64 tag = 0;
  for (char ch : w.name) tag = tag * 131 + static_cast<u8>(ch);
  Xoshiro256 rng(mix_device_id(seed) ^ tag);
  for (auto& b : in.master_key) b = static_cast<u8>(rng.next());
  in.challenge_rng_seed = rng.next();
  in.threads = w.honest_clients + w.bogus_clients;
  in.by_thread.resize(static_cast<std::size_t>(in.threads));

  std::set<u64> used;
  auto draw_devices = [&](int count, int first_thread, int num_threads,
                          bool bogus) {
    std::vector<int> need(static_cast<std::size_t>(num_threads), 0);
    for (int i = 0; i < count; ++i) ++need[static_cast<std::size_t>(i % num_threads)];
    int remaining = count;
    while (remaining > 0) {
      const u64 id = rng.next() >> 24;
      const int thread =
          static_cast<int>(stripe_of(id) % static_cast<u32>(in.threads));
      const int local = thread - first_thread;
      if (local < 0 || local >= num_threads) continue;
      if (need[static_cast<std::size_t>(local)] == 0 || !used.insert(id).second)
        continue;
      --need[static_cast<std::size_t>(local)];
      --remaining;
      Device d;
      d.id = id;
      d.thread = thread;
      d.bogus = bogus;
      d.enroll_seed = rng.next();
      d.enrolled = std::make_unique<puf::SramPufModel>(puf_params(w), rng.next());
      if (bogus)
        d.held = std::make_unique<puf::SramPufModel>(puf_params(w), rng.next());
      d.client_seed = rng.next();
      d.client = std::make_unique<Client>(
          client_config(w, id, bogus), bogus ? d.held.get() : d.enrolled.get(),
          d.client_seed);
      in.by_thread[static_cast<std::size_t>(thread)].push_back(in.devices.size());
      in.devices.push_back(std::move(d));
    }
  };
  draw_devices(w.honest_devices, 0, w.honest_clients, false);
  draw_devices(w.bogus_devices, w.honest_clients, w.bogus_clients, true);
  return in;
}

// Cells that flipped more than twice in 100 calibration reads are masked,
// so an erratic cell almost never passes calibration as stable.
constexpr int kCalibrationReads = 100;
constexpr double kMaxFlipRate = 0.02;

EnrollmentDatabase enroll(const Inputs& in,
                          const std::vector<std::size_t>& which) {
  EnrollmentDatabase db(in.master_key);
  for (std::size_t i : which) {
    const Device& d = in.devices[i];
    Xoshiro256 rng(d.enroll_seed);
    db.enroll(d.id, *d.enrolled, kCalibrationReads, kMaxFlipRate, rng);
  }
  return db;
}

CaConfig ca_config(const WorkloadSpec& w, const Inputs& in) {
  CaConfig c;
  c.max_distance = w.ca_distance;
  c.tapki_enabled = true;
  c.time_threshold_s = 60.0;
  c.challenge_rng_seed = in.challenge_rng_seed;
  return c;
}

/// The served stack: CA + RA over a CPU backend on a private worker group.
/// search_d3 runs 2 search units over the driver plus 1 group thread; the
/// other workloads search single-unit on the driver.
struct Stack {
  par::WorkerGroup group{1};
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  Stack(const WorkloadSpec& w, const Inputs& in, EnrollmentDatabase db) {
    EngineConfig ec;
    ec.host_threads = w.search_units;
    ec.workers = &group;
    ca = std::make_unique<CertificateAuthority>(
        ca_config(w, in), std::move(db), make_backend("cpu", ec), &ra);
  }
};

server::ServerConfig server_config(const WorkloadSpec& w, bool trace) {
  server::ServerConfig c;
  c.num_shards = 1;
  c.max_in_flight = w.drivers;
  c.max_queue_depth = 64;
  c.session_budget_s = 60.0;
  c.fusion_enabled = w.fusion;
  c.fusion_lanes = 64;
  c.trace_enabled = trace;
  c.trace_ring_events = 1 << 18;
  return c;
}

// --- sessions -----------------------------------------------------------------

enum Phase { kWarmup = 0, kUntraced = 1, kTraced = 2 };

/// One resolved session, reduced to what the checks and metrics read and
/// checked after the window closes. Records stay small and fixed-size (the
/// key is kept as a digest), so peak RSS does not follow session throughput.
struct Record {
  int thread = 0;
  int k = 0;  // the thread's session index since the stack was built
  std::size_t device = 0;
  bool bogus = false;
  Phase phase = kWarmup;
  bool accepted = false;
  bool authenticated = false;
  bool failed_in_flight = false;  // timed out or transport failure
  int found_distance = -1;
  u64 seeds_hashed = 0;
  double search_s = 0.0;  // the engine report's host_seconds
  double queue_wait_s = 0.0;
  double t_submit = 0.0;
  double t_done = 0.0;
  Seed256 seed;  // the client's last_seed() for this session
  hash::Digest256 key_digest;  // SHA3-256 of the registered public key
};

u64 session_id(int thread, int k) {
  return (static_cast<u64>(thread) << 32) | static_cast<u32>(k);
}

/// Submits generator thread t's next session, blocks on its future and
/// records the outcome.
void run_one(server::AuthServer& server, Inputs& in, std::vector<Record>& mine,
             int t, Phase phase) {
  const auto& devs = in.by_thread[static_cast<std::size_t>(t)];
  Record r;
  r.thread = t;
  r.k = static_cast<int>(mine.size());
  r.device = devs[static_cast<std::size_t>(r.k) % devs.size()];
  Device& d = in.devices[r.device];
  r.bogus = d.bogus;
  r.phase = phase;
  r.t_submit = now_s();
  auto future = server.submit(d.client.get(), 60.0, session_id(t, r.k));
  const server::SessionOutcome o = future.get();
  r.t_done = now_s();
  r.seed = d.client->last_seed();
  r.accepted = o.accepted;
  r.authenticated = o.authenticated;
  r.failed_in_flight = o.timed_out || o.transport_failed;
  r.found_distance = o.report.result.found_distance;
  r.seeds_hashed = o.report.engine.result.seeds_hashed;
  r.search_s = o.report.engine.result.host_seconds;
  r.queue_wait_s = o.queue_wait_s;
  const Bytes& key = o.report.registered_public_key;
  r.key_digest = hash::sha3_256(ByteSpan{key.data(), key.size()});
  mine.push_back(r);
}

/// Runs every generator thread closed-loop until the clock passes `until`,
/// or, in warm-up, until the thread has done its warm-up sessions: the
/// workload's count for honest threads, one for bogus threads (a bogus
/// session costs a whole d<=3 ball).
void drive(server::AuthServer& server, const WorkloadSpec& w, Inputs& in,
           std::vector<std::vector<Record>>& recs, Phase phase, double until) {
  std::vector<std::thread> threads;
  for (int t = 0; t < in.threads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = recs[static_cast<std::size_t>(t)];
      const bool bogus_thread = t >= w.honest_clients;
      const std::size_t quota =
          phase != kWarmup ? SIZE_MAX
                           : static_cast<std::size_t>(bogus_thread ? 1 : w.warmup);
      while (mine.size() < quota && now_s() < until) {
        run_one(server, in, mine, t, phase);
        if (bogus_thread && w.think_s > 0.0) {
          if (now_s() + w.think_s >= until) break;
          std::this_thread::sleep_for(std::chrono::duration<double>(w.think_s));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

/// Verdict check for one session (see NOTES.md, "Checks"). Honest: the
/// registered key equals the client's own derivation and `seeds_hashed` is
/// exact for the distance found. Bogus: not authenticated, and an admitted
/// search hashed the whole ball.
struct Verdict {
  bool ok = false;
  bool corrupted = false;
  bool off_distance = false;
  std::string why;
};

Verdict check(const WorkloadSpec& w, const Inputs& in, const Record& r,
              const crypto::SaltPolicy& salt) {
  Verdict v;
  const u64 hashed = r.seeds_hashed;
  if (r.bogus) {
    if (r.authenticated) {
      v.corrupted = true;
      v.why = "bogus digest authenticated";
      return v;
    }
    if (r.accepted && !r.failed_in_flight &&
        hashed != ball_size(w.ca_distance)) {
      v.corrupted = true;
      v.why = "bogus search hashed " + std::to_string(hashed);
      return v;
    }
    v.ok = true;  // refused at admission also counts as correct
    return v;
  }
  if (!r.accepted || r.failed_in_flight || !r.authenticated)
    return v;  // an honest failure, not a corruption
  // Exact accounting: a hit at distance fd hashed all of the ball below fd
  // and part of shell fd. A hit off the injected distance (the client's
  // majority vote missed a cell) is a correct verdict, counted apart.
  const int fd = r.found_distance;
  if (fd < 0 || fd > w.ca_distance || hashed <= ball_size(fd - 1) ||
      hashed > ball_size(fd)) {
    v.corrupted = true;
    v.why = "honest search at d=" + std::to_string(fd) + " hashed " +
            std::to_string(hashed);
    return v;
  }
  v.off_distance = fd != w.injected_distance;
  const Bytes expected = crypto::generate_public_key(
      salt.apply(r.seed), in.devices[r.device].client->config().keygen_algo);
  if (hash::sha3_256(ByteSpan{expected.data(), expected.size()}) !=
      r.key_digest) {
    v.corrupted = true;
    v.why = "registered key differs from the client's derivation";
    return v;
  }
  v.ok = true;
  return v;
}

/// Checks every record on two threads (outside any timed window).
std::vector<Verdict> check_all(const WorkloadSpec& w, const Inputs& in,
                               const std::vector<const Record*>& all,
                               const crypto::SaltPolicy& salt) {
  std::vector<Verdict> out(all.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < all.size();)
      out[i] = check(w, in, *all[i], salt);
  };
  std::thread helper(work);
  work();
  helper.join();
  return out;
}

// --- JSON ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- the benchmark span log (trace mode) ----------------------------------------

/// One span recorded by the benchmark itself: name, start, end, parent
/// index (-1 for a root) and the session it belongs to. Kept in memory and
/// written out when the run ends.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  u64 session = 0;
};

class SpanLog {
 public:
  int open(std::string name, u64 session, int parent) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent, session});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its children
  /// cover (children never overlap one another here).
  std::vector<double> self_s() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& c : spans_)
      if (c.parent >= 0)
        self[static_cast<std::size_t>(c.parent)] -= c.end - c.start;
    return self;
  }

  /// Mean duration of the named spans, microseconds.
  double mean_us(std::string_view name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back((s.end - s.start) * 1e6);
    return mean(d);
  }

 private:
  std::vector<Span> spans_;
};

// --- the run ------------------------------------------------------------------

struct Options {
  const WorkloadSpec* workload = nullptr;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool selftest = false;
  std::string trace_out;
};

struct WindowStats {
  double t0 = 0.0;
  double wall_s = 0.0;     // t0 -> every thread joined
  double measured_s = 0.0; // t0 -> last measured-class completion
  double cpu_s = 0.0;
  std::vector<const Record*> records;  // valid until the next drive()
};

WindowStats timed_window(server::AuthServer& server, const WorkloadSpec& w,
                         Inputs& in, std::vector<std::vector<Record>>& recs,
                         Phase phase, double seconds) {
  WindowStats ws;
  std::vector<std::size_t> before;
  for (const auto& r : recs) before.push_back(r.size());
  const double cpu0 = cpu_s();
  ws.t0 = now_s();
  drive(server, w, in, recs, phase, ws.t0 + seconds);
  ws.wall_s = now_s() - ws.t0;
  ws.cpu_s = cpu_s() - cpu0;
  double last = ws.t0;
  for (std::size_t t = 0; t < recs.size(); ++t) {
    for (std::size_t i = before[t]; i < recs[t].size(); ++i) {
      const Record& r = recs[t][i];
      ws.records.push_back(&r);
      if (r.bogus == w.bogus_measured) last = std::max(last, r.t_done);
    }
  }
  ws.measured_s = last - ws.t0;
  return ws;
}

struct Summary {
  int attempted = 0;
  int correct = 0;
  int corrupted = 0;
  int off_distance = 0;
  std::vector<double> measured_latency_ms;
  std::vector<double> measured_done;  // completion times, correct only
  std::string first_corruption;
};

Summary summarize(const WorkloadSpec& w, const Inputs& in,
                  const WindowStats& ws, const crypto::SaltPolicy& salt) {
  Summary s;
  const auto verdicts = check_all(w, in, ws.records, salt);
  for (std::size_t i = 0; i < ws.records.size(); ++i) {
    const Record& r = *ws.records[i];
    const Verdict& v = verdicts[i];
    ++s.attempted;
    if (v.corrupted) {
      if (s.corrupted++ == 0) s.first_corruption = v.why;
      continue;
    }
    if (!v.ok) continue;
    ++s.correct;
    if (v.off_distance) ++s.off_distance;
    if (r.bogus == w.bogus_measured) {
      s.measured_done.push_back(r.t_done);
      s.measured_latency_ms.push_back((r.t_done - r.t_submit) * 1e3);
    }
  }
  return s;
}

/// Measured-class sessions per second: the median over ten equal slices of
/// the window, so a short stall of the shared host moves one slice and not
/// the result; with too few sessions for that, the plain rate.
double sessions_per_s(const Summary& s, const WindowStats& ws) {
  if (ws.measured_s <= 0) return 0.0;
  constexpr int kSlices = 10;
  if (s.measured_done.size() < 20 * kSlices)
    return static_cast<double>(s.measured_done.size()) / ws.measured_s;
  const double len = ws.measured_s / kSlices;
  std::vector<double> counts(kSlices, 0.0);
  for (double t : s.measured_done)
    counts[std::min(kSlices - 1, static_cast<int>((t - ws.t0) / len))] += 1.0;
  return quantile(counts, 0.5) / len;
}

int usage() {
  std::fprintf(stderr,
               "usage: rbc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--trace-out FILE]\n"
               "       rbc_perfbench --selftest [--seed N]\n");
  return 2;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, std::string>>& info) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}, \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + info[i].first + "\": " + info[i].second;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

std::string quoted(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

/// Per-call costs the probe pass measured, and replay disagreements.
struct ProbeResult {
  double record_load_us = 0, challenge_us = 0, keygen_us = 0, respond_us = 0,
         wire_us = 0, ball_ns = 0, table_ns = 0, sha3_mhps = 0, round_us = 0,
         unit_imbalance = 0;
  int replay_mismatches = 0;
};

/// The probe pass (trace mode): replays the first sessions of every
/// measured-class thread against its own CA/RA built from the same seed —
/// the served CA's challenge RNG and RA are not touched — timing each
/// public call as a child span of one probe span per session.
ProbeResult probe_pass(const WorkloadSpec& w, const Inputs& in,
                       const std::vector<std::vector<Record>>& recs,
                       SpanLog& log) {
  ProbeResult pr;
  constexpr int kPerThread = 8;
  // The measured class's threads, and the devices their first sessions use.
  std::vector<int> threads;
  for (int t = 0; t < in.threads; ++t)
    if ((t >= w.honest_clients) == w.bogus_measured) threads.push_back(t);
  std::vector<std::size_t> sample_devices;
  for (int t : threads)
    for (const auto& r : recs[static_cast<std::size_t>(t)])
      if (r.k < kPerThread) sample_devices.push_back(r.device);
  std::sort(sample_devices.begin(), sample_devices.end());
  sample_devices.erase(std::unique(sample_devices.begin(), sample_devices.end()),
                       sample_devices.end());

  RegistrationAuthority ra;
  EngineConfig ec;
  ec.host_threads = 1;
  par::WorkerGroup group(1);
  ec.workers = &group;
  CertificateAuthority ca(ca_config(w, in), enroll(in, sample_devices),
                          make_backend("cpu", ec), &ra);
  const crypto::SaltPolicy salt = ca.config().salt;

  std::vector<double> ball_ns, table_ns;
  double sha3_hashes = 0, sha3_s = 0;
  int samples = 0;
  Seed256 last_s_init;
  Bytes last_digest;
  // Times one call as a child span of `root` and returns its seconds.
  auto timed = [&log](const char* name, u64 sid, int root, auto&& call) {
    const int id = log.open(name, sid, root);
    call();
    log.close(id);
    const Span& sp = log.spans()[static_cast<std::size_t>(id)];
    return sp.end - sp.start;
  };
  for (int t : threads) {
    // Fresh clients with the served clients' seeds replay the same reads.
    std::map<std::size_t, std::unique_ptr<Client>> clients;
    for (const Record& rec : recs[static_cast<std::size_t>(t)]) {
      if (rec.k >= kPerThread) break;
      const Device& d = in.devices[rec.device];
      auto& client = clients[rec.device];
      if (!client)
        client = std::make_unique<Client>(
            d.client->config(), d.bogus ? d.held.get() : d.enrolled.get(),
            d.client_seed);
      const u64 sid = session_id(t, rec.k);
      const int root = log.open("probe.session", sid, -1);
      net::HandshakeRequest hs;
      hs.device_id = d.id;
      hs.hash_algo = client->config().hash_algo;
      hs.keygen_algo = client->config().keygen_algo;

      net::Challenge challenge;
      net::DigestSubmission sub;
      EnrollmentRecord record;
      Bytes key;
      timed("rbc.challenge", sid, root,
            [&] { challenge = ca.issue_challenge(hs); });
      timed("puf.respond", sid, root, [&] { sub = client->respond(challenge); });
      timed("rbc.record_load", sid, root,
            [&] { record = ca.database().load(d.id); });
      timed("crypto.keygen", sid, root, [&] {
        key = crypto::generate_public_key(salt.apply(client->last_seed()),
                                          hs.keygen_algo);
      });
      net::AuthResult result;
      if (!d.bogus) {
        // The replay must reproduce the served session exactly: the same
        // hash count and the same registered key.
        EngineReport report;
        timed("rbc.process_digest", sid, root, [&] {
          result = ca.process_digest(hs, challenge, sub, &report);
        });
        if (report.result.seeds_hashed != rec.seeds_hashed ||
            hash::sha3_256(ByteSpan{key.data(), key.size()}) != rec.key_digest)
          ++pr.replay_mismatches;
      }
      timed("net.wire", sid, root, [&] {
        for (const net::Message& m :
             {net::Message{hs}, net::Message{challenge}, net::Message{sub},
              net::Message{result}})
          if (!net::deserialize(net::serialize(m)).has_value())
            ++pr.replay_mismatches;
      });

      Seed256 s_init = record.image.word(challenge.puf_address);
      s_init &= challenge.stable_mask;
      std::vector<Seed256> buf(64);
      // A d<=3 ball is 2.8M candidates: only the first samples walk it.
      if (samples < 4) {
        comb::ChaseFactory factory;
        BallStream<comb::ChaseFactory> ball(s_init, w.ca_distance, factory);
        u64 n = 0;
        const double secs = timed("combinatorics.ball", sid, root, [&] {
          for (std::size_t got; (got = ball.fill(buf.data(), buf.size())) > 0;)
            n += got;
        });
        ball_ns.push_back(secs * 1e9 / static_cast<double>(n));
      }
      // Tables are process-wide; the untimed stream builds any missing one.
      const int table_d = std::min(w.ca_distance, 2);
      TableCandidateStream warm(s_init, table_d, sim::IterAlgo::kChase382);
      TableCandidateStream table(s_init, table_d, sim::IterAlgo::kChase382);
      std::vector<Seed256> head;  // the first candidates, for the hash probe
      u64 n = 0;
      const double secs = timed("combinatorics.table", sid, root, [&] {
        for (std::size_t got; (got = table.fill(buf.data(), buf.size())) > 0;) {
          n += got;
          if (head.size() < 4096)
            head.insert(head.end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(got));
        }
      });
      table_ns.push_back(secs * 1e9 / static_cast<double>(n));

      // Whole 64-lane SHA-3 blocks at the active SIMD level, >= 16k hashes.
      const std::size_t lanes = head.size() / 64 * 64;
      const std::size_t reps = (16384 + lanes - 1) / lanes;
      std::array<hash::Digest256, 64> out;
      sha3_s += timed("hash.sha3", sid, root, [&] {
        for (std::size_t rep = 0; rep < reps; ++rep)
          for (std::size_t i = 0; i < lanes; i += 64)
            hash::sha3_256_seed_multi(head.data() + i, 64, out.data());
      });
      sha3_hashes += static_cast<double>(reps * lanes);
      volatile u8 sink = out[63].bytes[0];
      (void)sink;
      log.close(root);
      last_s_init = s_init;
      last_digest = sub.digest;
      ++samples;
    }
  }
  pr.record_load_us = log.mean_us("rbc.record_load");
  pr.challenge_us = log.mean_us("rbc.challenge");
  pr.keygen_us = log.mean_us("crypto.keygen");
  pr.respond_us = log.mean_us("puf.respond");
  pr.wire_us = log.mean_us("net.wire");
  pr.ball_ns = mean(ball_ns);
  pr.table_ns = mean(table_ns);
  pr.sha3_mhps = sha3_s > 0 ? sha3_hashes / sha3_s / 1e6 : 0.0;

  // parallel: an empty round of search_d3's width (2 units + the tiled
  // schedule's pipeline unit) on a 1-thread group, as its engine runs.
  {
    par::WorkerGroup probe_group(1);
    const std::function<void(int)> empty = [](int) {};
    for (int i = 0; i < 200; ++i) probe_group.parallel_workers(3, empty);
    const int rounds = 2000;
    const double t = now_s();
    for (int i = 0; i < rounds; ++i) probe_group.parallel_workers(3, empty);
    pr.round_us = (now_s() - t) * 1e6 / rounds;
  }
  // Per-unit seed counts of one probe search in the workload's engine shape.
  {
    par::WorkerGroup probe_group(1);
    EngineConfig pc;
    pc.host_threads = w.search_units;
    pc.workers = &probe_group;
    auto engine = make_backend("cpu", pc);
    std::array<std::atomic<u64>, 16> per_unit{};
    SearchOptions opts;
    opts.max_distance = w.ca_distance;
    opts.timeout_s = 60.0;
    opts.quantum_hook = [&](int unit, u64 seeds) {
      per_unit[static_cast<std::size_t>(unit) % per_unit.size()] += seeds;
    };
    engine->search(last_s_init, last_digest, hash::HashAlgo::kSha3_256, opts);
    std::vector<double> counts;
    for (auto& c : per_unit)
      if (c.load() > 0) counts.push_back(static_cast<double>(c.load()));
    pr.unit_imbalance =
        counts.empty() ? 1.0
                       : *std::max_element(counts.begin(), counts.end()) / mean(counts);
  }
  return pr;
}

/// Joins the server's spans to the benchmark's own span of each traced
/// session: bench.session -> server.queue_wait, server.verdict ->
/// server.search (shell and fusion-lane spans). The rings keep their own
/// clock epoch, so a server span is placed by its duration inside its
/// parent. Returns the self time of each measured-class verdict span: the
/// driver's session time outside the search.
std::vector<double> join_spans(SpanLog& log,
                               const std::vector<obs::TraceEvent>& events,
                               const WindowStats& tw, const WorkloadSpec& w) {
  struct Parts {
    double queue = 0, verdict = 0, search = 0;
  };
  std::map<u64, Parts> parts;
  for (const obs::TraceEvent& e : events) {
    Parts& p = parts[e.session];
    const double d = e.wall_end_s - e.wall_start_s;
    if (e.kind == obs::SpanKind::kQueueWait) p.queue += d;
    if (e.kind == obs::SpanKind::kVerdict) p.verdict += d;
    if (e.kind == obs::SpanKind::kSearchShell ||
        e.kind == obs::SpanKind::kFusionLane)
      p.search += d;
  }
  std::vector<int> verdicts;
  for (const Record* r : tw.records) {
    const u64 sid = session_id(r->thread, r->k);
    const Parts& p = parts[sid];
    const int root = log.add({"bench.session", r->t_submit, r->t_done, -1, sid});
    const double v0 = r->t_submit + p.queue;
    log.add({"server.queue_wait", r->t_submit, v0, root, sid});
    const int verdict =
        log.add({"server.verdict", v0, v0 + p.verdict, root, sid});
    log.add({"server.search", v0, v0 + p.search, verdict, sid});
    if (r->bogus == w.bogus_measured) verdicts.push_back(verdict);
  }
  const std::vector<double> self = log.self_s();
  std::vector<double> out;
  for (int id : verdicts) out.push_back(self[static_cast<std::size_t>(id)]);
  return out;
}

void write_trace(const std::string& path, const SpanLog& log,
                 const std::vector<obs::TraceEvent>& events) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"bench_spans\": [\n");
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s{\"id\": %zu, \"name\": \"%s\", \"start\": %s, \"end\": %s, \"parent\": %d, \"session\": %llu}\n",
                 i ? "," : "", i, s.name.c_str(), num(s.start).c_str(),
                 num(s.end).c_str(), s.parent,
                 static_cast<unsigned long long>(s.session));
  }
  std::fprintf(f, "], \"server_events\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    std::fprintf(f, "%s{\"kind\": \"%s\", \"session\": %llu, \"start\": %s, \"end\": %s, \"detail\": %u, \"value\": %llu}\n",
                 i ? "," : "", std::string(obs::kind_name(e.kind)).c_str(),
                 static_cast<unsigned long long>(e.session),
                 num(e.wall_start_s).c_str(), num(e.wall_end_s).c_str(),
                 e.detail, static_cast<unsigned long long>(e.value));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

/// Determinism self-test. For every workload: the same seed gives the same
/// devices and the same per-thread device (attacker included) sequence; and
/// through a 1-driver server, fed one session at a time, the same verdicts
/// and seeds_hashed; a different seed changes them.
struct Trial {
  std::vector<u64> inputs;    // ids, owners, client seeds, enrolled words
  std::vector<u64> sessions;  // per session: device, verdict, seeds_hashed
};

Trial selftest_trial(WorkloadSpec w, u64 seed) {
  w.drivers = 1;
  Trial tr;
  Inputs in = make_inputs(w, seed);
  for (const Device& d : in.devices) {
    tr.inputs.push_back(d.id);
    tr.inputs.push_back(static_cast<u64>(d.thread) * 2 + (d.bogus ? 1 : 0));
    tr.inputs.push_back(d.client_seed);
    tr.inputs.push_back(d.enrolled->enrolled_word(0).word(0));
    if (d.held) tr.inputs.push_back(d.held->enrolled_word(0).word(0));
  }
  for (const auto& owned : in.by_thread)
    for (std::size_t i : owned) tr.inputs.push_back(in.devices[i].id);

  std::vector<std::size_t> all(in.devices.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Stack stack(w, in, enroll(in, all));
  server::AuthServer server(server_config(w, false), stack.ca.get(), &stack.ra);
  std::vector<std::vector<Record>> recs(static_cast<std::size_t>(in.threads));
  for (int k = 0; k < 4; ++k) {
    for (int t = 0; t < in.threads; ++t) {
      if (t >= w.honest_clients && k > 0) continue;  // a d<=3 miss costs ~1 s
      auto& mine = recs[static_cast<std::size_t>(t)];
      run_one(server, in, mine, t, kWarmup);
      tr.sessions.push_back(in.devices[mine.back().device].id);
      tr.sessions.push_back(mine.back().authenticated ? 1 : 0);
      tr.sessions.push_back(mine.back().seeds_hashed);
    }
  }
  return tr;
}

int selftest(u64 seed) {
  int failures = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    const Trial a = selftest_trial(w, seed);
    const Trial b = selftest_trial(w, seed);
    const Trial c = selftest_trial(w, seed + 1);
    const bool same = a.inputs == b.inputs && a.sessions == b.sessions;
    const bool differs = a.inputs != c.inputs && a.sessions != c.sessions;
    std::printf("{\"selftest\": %s, \"same_seed_same\": %s, "
                "\"other_seed_differs\": %s, \"sessions\": %zu}\n",
                quoted(w.name).c_str(), same ? "true" : "false",
                differs ? "true" : "false", a.sessions.size() / 3);
    if (!same || !differs) ++failures;
  }
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

int run(const Options& opt) {
  const WorkloadSpec& w = *opt.workload;
  const double probe_before = host_probe_ms();

  // ---- set-up: inputs, enrollment, CA/RA/backend/server, warm-up ----
  const double t_start = now_s();
  Inputs in = make_inputs(w, opt.seed);
  std::vector<std::size_t> all(in.devices.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double t_enroll = now_s();
  EnrollmentDatabase db = enroll(in, all);
  const double enroll_ms_per_device =
      (now_s() - t_enroll) * 1e3 / static_cast<double>(in.devices.size());
  Stack stack(w, in, std::move(db));
  const crypto::SaltPolicy salt = stack.ca->config().salt;
  // Reserved up front (address space only; pages fill as records do), so
  // no vector regrowth, which briefly holds two copies, sets peak RSS.
  std::vector<std::vector<Record>> recs(static_cast<std::size_t>(in.threads));
  for (auto& v : recs) v.reserve(std::size_t{1} << 16);

  auto server = std::make_unique<server::AuthServer>(server_config(w, false),
                                                     stack.ca.get(), &stack.ra);
  // One session alone first, so process-wide first-use work (the fusion
  // engine's shell tables) is done once, not raced by every driver at once:
  // that race left a different amount of freed memory resident each run.
  run_one(*server, in, recs[0], 0, kWarmup);
  drive(*server, w, in, recs, kWarmup, 1e300);
  const double setup_s = now_s() - t_start;

  int warm_corrupt = 0;
  {
    std::vector<const Record*> warm;
    for (const auto& v : recs)
      for (const auto& r : v) warm.push_back(&r);
    for (const Verdict& v : check_all(w, in, warm, salt))
      if (v.corrupted) ++warm_corrupt;
  }
  if (opt.setup_only) {
    print_result(warm_corrupt == 0, 1, warm_corrupt,
                 {{"setup_s", setup_s, "s"}}, {});
    return warm_corrupt == 0 ? 0 : 1;
  }

  std::vector<std::pair<std::string, std::string>> info = {
      {"workload", quoted(w.name)},
      {"seed", std::to_string(opt.seed)},
      {"simd", quoted(hash::to_string(hash::active_simd_level()))},
      {"simd_detected", quoted(hash::to_string(hash::detected_simd_level()))},
  };

  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const WindowStats ws = timed_window(*server, w, in, recs, kUntraced, window);
  // Before the checks: their buffers are the benchmark's, not the server's.
  const double rss_mib = peak_rss_mib();
  const Summary sum = summarize(w, in, ws, salt);
  const double rate = sessions_per_s(sum, ws);
  const double cpu_ms_per_session =
      ws.records.empty() ? 0.0 : ws.cpu_s * 1e3 / static_cast<double>(ws.records.size());
  const double cpu_per_wall = ws.cpu_s / ws.wall_s;
  int corrupted = warm_corrupt + sum.corrupted;
  std::string corruption = sum.first_corruption;

  info.push_back({"latency_samples", std::to_string(sum.measured_latency_ms.size())});
  info.push_back({"off_distance_sessions", std::to_string(sum.off_distance)});
  info.push_back({"latency_p99_ms", num(quantile(sum.measured_latency_ms, 0.99))});
  info.push_back({"sessions_in_window", std::to_string(ws.records.size())});
  info.push_back({"window_s", num(ws.wall_s)});
  info.push_back({"cpu_per_wall", num(cpu_per_wall)});

  std::vector<Metric> metrics;
  int attempted = sum.attempted;
  int failed = sum.attempted - sum.correct;
  if (!opt.trace) {
    const double probe_after = host_probe_ms();
    info.push_back({"host_probe_ms_before", num(probe_before)});
    info.push_back({"host_probe_ms_after", num(probe_after)});
    metrics = {
        {"sessions_per_s", rate, "1/s"},
        {"latency_p50_ms", quantile(sum.measured_latency_ms, 0.5), "ms"},
        {"cpu_ms_per_session", cpu_ms_per_session, "ms"},
        {"success_rate",
         sum.attempted ? static_cast<double>(sum.correct) / sum.attempted : 0.0,
         "ratio"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", rss_mib, "MiB"},
    };
  } else {
    // ---- traced half: a fresh traced server over the same CA/RA ----
    server.reset();
    server = std::make_unique<server::AuthServer>(server_config(w, true),
                                                  stack.ca.get(), &stack.ra);
    const WindowStats tw = timed_window(*server, w, in, recs, kTraced, window);
    const Summary tsum = summarize(w, in, tw, salt);
    corrupted += tsum.corrupted;
    if (corruption.empty()) corruption = tsum.first_corruption;
    attempted += tsum.attempted;
    failed += tsum.attempted - tsum.correct;
    const server::ServerStats stats = server->stats();
    const std::vector<obs::TraceEvent> events = server->trace_events();
    server->shutdown();

    SpanLog log;
    const std::vector<double> verdict_self_s = join_spans(log, events, tw, w);
    std::vector<double> search_ms, bogus_search_ms, queue_ms;
    double auth_sessions = 0, measured_sessions = 0;
    for (const Record* r : tw.records) {
      if (r->bogus) bogus_search_ms.push_back(r->search_s * 1e3);
      if (r->bogus != w.bogus_measured) continue;
      ++measured_sessions;
      if (r->authenticated) ++auth_sessions;
      search_ms.push_back(r->search_s * 1e3);
      queue_ms.push_back(r->queue_wait_s * 1e3);
    }

    const ProbeResult pr = probe_pass(w, in, recs, log);
    corrupted += pr.replay_mismatches;
    if (pr.replay_mismatches && corruption.empty())
      corruption = "probe replay disagrees with the served sessions";

    const double keygen_share =
        measured_sessions > 0 ? auth_sessions / measured_sessions : 0.0;
    const double unattributed_us =
        mean(verdict_self_s) * 1e6 -
        (pr.challenge_us + pr.record_load_us + pr.respond_us + pr.wire_us +
         keygen_share * pr.keygen_us);
    // hashes per session over a fixed prefix: the warm-up sessions of the
    // measured class, which are the same sessions on every run of a seed.
    std::vector<double> prefix_hashes;
    for (const auto& v : recs)
      for (const auto& r : v)
        if (r.phase == kWarmup && r.bogus == w.bogus_measured)
          prefix_hashes.push_back(static_cast<double>(r.seeds_hashed));

    const double untraced_cpu = cpu_ms_per_session;
    const double traced_cpu =
        tw.records.empty() ? 0.0 : tw.cpu_s * 1e3 / static_cast<double>(tw.records.size());
    const double probe_after = host_probe_ms();
    const double completed = static_cast<double>(stats.completed);
    metrics = {
        {"hash.sha3_mhps", pr.sha3_mhps, "M/s"},
        {"hash.hashes_per_session", mean(prefix_hashes), "count"},
        {"combinatorics.ball_ns_per_candidate", pr.ball_ns, "ns"},
        {"combinatorics.table_ns_per_candidate", pr.table_ns, "ns"},
        {"parallel.round_us", pr.round_us, "us"},
        {"parallel.unit_imbalance", pr.unit_imbalance, "ratio"},
        {"rbc.search_ms_p50", quantile(search_ms, 0.5), "ms"},
        {"rbc.bogus_search_ms_p50", quantile(bogus_search_ms, 0.5), "ms"},
        {"rbc.record_load_us", pr.record_load_us, "us"},
        {"rbc.challenge_us", pr.challenge_us, "us"},
        {"rbc.enroll_ms_per_device", enroll_ms_per_device, "ms"},
        {"crypto.keygen_us", pr.keygen_us, "us"},
        {"puf.respond_us", pr.respond_us, "us"},
        {"net.wire_us", pr.wire_us, "us"},
        {"server.queue_wait_p50_ms", quantile(queue_ms, 0.5), "ms"},
        {"server.unattributed_us", unattributed_us, "us"},
        {"server.fusion_lane_occupancy", stats.lane_occupancy, "ratio"},
        {"server.fusion_batches_per_session",
         completed > 0 ? static_cast<double>(stats.fusion_batches) / completed : 0.0,
         "count"},
        {"server.latency_p99_ms", quantile(sum.measured_latency_ms, 0.99), "ms"},
        {"server.latency_samples",
         static_cast<double>(sum.measured_latency_ms.size()), "count"},
        {"obs.trace_overhead_pct",
         untraced_cpu > 0 ? (traced_cpu / untraced_cpu - 1.0) * 100.0 : 0.0, "%"},
        {"obs.spans_dropped", static_cast<double>(stats.trace_events_dropped),
         "count"},
        {"bench.host_probe_ms", (probe_before + probe_after) / 2.0, "ms"},
        {"bench.cpu_per_wall", cpu_per_wall, "ratio"},
    };
    info.push_back({"traced_sessions", std::to_string(tw.records.size())});
    info.push_back({"bench_spans", std::to_string(log.spans().size())});
    info.push_back({"server_spans", std::to_string(events.size())});
    info.push_back({"host_probe_ms_before", num(probe_before)});
    info.push_back({"host_probe_ms_after", num(probe_after)});
    write_trace(opt.trace_out, log, events);
  }
  if (corrupted) info.push_back({"corruption", quoted(corruption)});
  print_result(corrupted == 0, attempted, failed, metrics, info);
  return corrupted == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (a == "--setup-only" || a == "--selftest") {
      (a == "--selftest" ? opt.selftest : opt.setup_only) = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage();
    if (a == "--workload") {
      for (const WorkloadSpec& w : kWorkloads)
        if (w.name == v) opt.workload = &w;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::string_view(v) == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  if (opt.selftest) return selftest(opt.seed);
  if (opt.workload == nullptr || !(opt.seconds > 0)) return usage();
  return run(opt);
}
