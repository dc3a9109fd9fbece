// Runtime search backends: SALTED-CPU, SALTED-GPU (simulated A100, one or
// several), SALTED-APU (simulated Gemini), plus the kernel-shaped GPU
// emulation and the heterogeneous CPU+GPU co-search.
//
// Every device is one SearchBackend over a DeviceModel. The four paper
// platforms run the SAME functional search (rbc_search over host threads —
// correctness is real, not simulated); gpu-emu and hetero keep their own
// functional paths (gpu/salted_kernel.hpp). A DeviceModel records the
// iterator family its search walks, which the CA hands to the fused offload
// so fused sessions walk the same order. The rest of the DeviceModel is the
// data that tells the platforms apart, mirroring §3.2-§3.4:
//   * the early-exit flag granularity (per seed on CPU/GPU; per 256-seed
//     batch on the APU, §3.3: a check-interval floor),
//   * the projected device time, produced by the platform's calibrated cost
//     model from the number of seeds actually visited,
//   * the reported backend and device names.
//
// The protocol layer talks to a SearchBackend, whatever its device, so a CA
// can be deployed over any of them (one of RBC-SALTED's stated goals: "a
// single RBC search system allows the technology to be deployed on a wider
// range of hardware platforms").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "rbc/search.hpp"
#include "sim/apu_model.hpp"
#include "sim/cpu_model.hpp"
#include "sim/gpu_model.hpp"
#include "sim/multi_gpu.hpp"

namespace rbc {

struct EngineReport {
  SearchResult result;
  /// Projected search-only time on the backend's paper platform, seconds.
  double modeled_device_seconds = 0.0;
  std::string device_name;
};

/// A search on the host, runtime-typed: the digest as received off the
/// wire (see SearchBackend::search).
using HostSearch = std::function<SearchResult(
    const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
    const SearchOptions& opts, par::SearchContext* session)>;

/// A platform as data: the functional search the host runs for it and how
/// that search is reported as one on the platform.
struct DeviceModel {
  std::string backend_name;
  std::string device_name;
  /// The iterator family `search` enumerates (SearchBackend::iterator).
  sim::IterAlgo iterator = sim::IterAlgo::kChase382;
  /// rbc_search over EngineConfig::iterator for the paper platforms; the
  /// kernel emulation for gpu-emu; the CPU+GPU co-search for hetero.
  HostSearch search;
  /// Projected search-only seconds on the platform for one search, from
  /// what it visited (seeds_hashed, the match's distance) and its early-exit
  /// policy.
  std::function<double(const SearchResult&, bool early_exit, hash::HashAlgo)>
      search_seconds;
  /// Worst-case (exhaustive, Eq. 1) search time at distance d.
  std::function<double(int d, hash::HashAlgo)> exhaustive_seconds;
  /// Floor on SearchOptions::check_interval: the APU's associative-memory
  /// exit flag is read once per 256-seed batch, not per seed (§3.3).
  u32 check_interval_floor = 0;
};

/// The one backend shape: a DeviceModel's search, reported through its cost
/// model. make_backend builds one for every device. Backends are
/// re-entrant: one instance may serve any number of concurrent sessions over
/// the shared WorkerGroup.
class SearchBackend {
 public:
  explicit SearchBackend(DeviceModel model) : model_(std::move(model)) {}

  /// Runs the search for a digest received off the wire (runtime-typed).
  /// `digest` must have the length of `algo`'s digest. `session`, when
  /// non-null, carries the authentication session's deadline / cancellation
  /// (see rbc_search).
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session = nullptr) const;

  /// Worst-case (exhaustive, Eq. 1) search time at distance d on this
  /// backend's modeled platform — the input to the §5 security planner.
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const {
    return model_.exhaustive_seconds(d, algo);
  }

  /// The projection search() reports as modeled_device_seconds.
  double modeled_device_seconds(const SearchResult& result, bool early_exit,
                                hash::HashAlgo algo) const {
    return model_.search_seconds(result, early_exit, algo);
  }

  std::string_view name() const { return model_.backend_name; }

  /// The iterator family whose canonical order the backend's single-unit
  /// search visits. The CA hands it to its SearchOffload with each search,
  /// so a fused session walks the same order and counts the same seeds.
  sim::IterAlgo iterator() const { return model_.iterator; }

 private:
  DeviceModel model_;
};

/// A serving-layer hook that can absorb a session's search into a shared
/// execution engine instead of the CA's own backend. The CA consults it
/// first (protocol.cpp process_digest); a nullopt return declines — too
/// large a ball, engine shutting down, unsupported options — and the
/// session falls through to the regular SearchBackend unchanged. An accept
/// must be a pure execution substitution: identical verdict and identical
/// seeds_hashed to what the backend's single-thread search would report,
/// which is why the CA passes the backend's iterator `family` along: the
/// order is the CA's, never the offload's.
/// The concrete implementation is server::FusionEngine, whose one pump
/// thread gives many sessions' scans turns.
class SearchOffload {
 public:
  virtual ~SearchOffload() = default;
  virtual std::optional<EngineReport> try_search(
      const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
      sim::IterAlgo family, const SearchOptions& opts,
      par::SearchContext* session) = 0;
};

/// Logical device threads of the heterogeneous backend ("hetero"): the
/// emulated GPU's width when CPU and device co-search one ball.
inline constexpr int kHeteroDeviceThreads = 64;

/// The configuration make_backend builds a device's model from.
struct EngineConfig {
  /// SPMD work units per shell (p in Algorithm 1); 0 = hardware
  /// concurrency. A server tuning for session throughput over single-
  /// session latency sets this low — units multiplex on the worker group.
  int host_threads = 0;
  /// Iterator family of the host search on cpu, gpu and apu (gpu-emu and
  /// hetero always walk Chase plans).
  sim::IterAlgo iterator = sim::IterAlgo::kChase382;
  /// Devices for the multi-GPU backend ("gpu" with num_devices > 1, §4.8):
  /// shells split evenly across the simulated A100s, modeled as the slowest
  /// device plus the Fig. 4 coordination overheads.
  int num_devices = 1;
  /// Compute substrate; nullptr = the process-wide WorkerGroup::shared().
  /// Engines never own threads — N engines multiplex one group instead of
  /// oversubscribing the host with N private pools.
  par::WorkerGroup* workers = nullptr;
};

/// Factory by device family name. "cpu", "gpu" and "apu" run the host
/// search as the paper's platforms ("gpu" with cfg.num_devices > 1 models
/// the multi-GPU platform). "gpu-emu" runs it through the CUDA-like emulator
/// (src/gpu): one kernel launch per shell, Chase snapshots in shared memory,
/// unified-memory flag — slower on the host but structurally the paper's
/// CUDA implementation. "hetero" has host worker units and one emulated
/// device drain tiles of the same ball from one shared tile scheduler
/// (gpu::hetero_cosearch), modeled as CPU and GPU serving in parallel.
std::unique_ptr<SearchBackend> make_backend(std::string_view device,
                                            EngineConfig cfg = {});

/// §5 deployment helper: the largest Hamming-distance budget this backend
/// can exhaustively search within threshold T minus the communication
/// allowance (capped at `max_considered`). A CA configured with this value
/// can inject noise up to it without ever risking a timeout.
int plan_ca_distance(const SearchBackend& backend, hash::HashAlgo algo,
                     double threshold_s, double comm_time_s,
                     int max_considered = 8);

}  // namespace rbc
