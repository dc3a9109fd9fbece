#include "rbc/engines.hpp"

#include <cstring>

#include "gpu/salted_kernel.hpp"
#include "sim/security_planner.hpp"

namespace rbc {

namespace {

int resolve_threads(int requested) {
  return requested > 0 ? requested : par::WorkerGroup::default_threads();
}

par::WorkerGroup* resolve_workers(par::WorkerGroup* requested) {
  return requested != nullptr ? requested : &par::WorkerGroup::shared();
}

/// Bridges the runtime digest bytes into the typed search templates: calls
/// `search(hash, target)` with the batched policy of `algo` (the multi-lane
/// kernels dispatch on the host CPU at runtime, and results/accounting
/// equal the scalar policies', see hash/batch.hpp) and the typed digest.
template <typename Search>
SearchResult with_typed_target(ByteSpan digest, hash::HashAlgo algo,
                               Search&& search) {
  const auto run = [&](auto hash) {
    typename decltype(hash)::digest_type target;
    RBC_CHECK_MSG(digest.size() == target.bytes.size(),
                  "digest length does not match hash algorithm");
    std::memcpy(target.bytes.data(), digest.data(), digest.size());
    return search(hash, target);
  };
  if (algo == hash::HashAlgo::kSha1) return run(hash::Sha1BatchSeedHash{});
  return run(hash::Sha3BatchSeedHash{});
}

/// rbc_search over cfg.iterator's family on cfg.host_threads units.
HostSearch host_search(const EngineConfig& cfg) {
  const int threads = resolve_threads(cfg.host_threads);
  par::WorkerGroup* workers = resolve_workers(cfg.workers);
  const sim::IterAlgo iter = cfg.iterator;
  return [=](const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
             const SearchOptions& opts, par::SearchContext* session) {
    SearchOptions o = opts;
    o.num_threads = threads;
    return with_typed_target(digest, algo, [&](auto hash, const auto& target) {
      return with_factory(iter, comb::kSeedBits, [&](const auto& factory) {
        return rbc_search<decltype(hash)>(s_init, target, factory, *workers, o,
                                          hash, session);
      });
    });
  };
}

DeviceModel cpu_model(const EngineConfig& cfg) {
  const sim::CpuModel m;
  return {"SALTED-CPU", m.spec().name, cfg.iterator, host_search(cfg),
          [m](const SearchResult& r, bool, hash::HashAlgo algo) {
            return m.time_for_seeds_s(r.seeds_hashed, algo, m.spec().cores);
          },
          [m](int d, hash::HashAlgo algo) {
            return m.exhaustive_time_s(d, algo, m.spec().cores);
          }};
}

DeviceModel gpu_model(const EngineConfig& cfg, sim::IterAlgo iter) {
  const sim::GpuModel m;
  return {"SALTED-GPU", m.spec().name, iter, host_search(cfg),
          [m, iter](const SearchResult& r, bool, hash::HashAlgo algo) {
            return m.time_for_seeds_s(r.seeds_hashed, algo, iter,
                                      /*kernels=*/std::max(r.distance, 1));
          },
          [m, iter](int d, hash::HashAlgo algo) {
            return m.exhaustive_time_s(d, algo, iter);
          }};
}

/// §4.8: shells split evenly across the devices; the slowest device's time
/// plus the Fig. 4 coordination overheads.
DeviceModel multi_gpu_model(const EngineConfig& cfg) {
  const sim::MultiGpuModel m{sim::GpuModel{}};
  const int devices = cfg.num_devices;
  const sim::IterAlgo iter = cfg.iterator;
  return {"SALTED-GPU (multi)",
          std::to_string(devices) + "x " + m.gpu().spec().name,
          iter,
          host_search(cfg),
          [m, devices, iter](const SearchResult& r, bool early_exit,
                             hash::HashAlgo algo) {
            return m.time_for_seeds_s(r.seeds_hashed, devices, algo,
                                      early_exit, iter);
          },
          [m, devices, iter](int d, hash::HashAlgo algo) {
            return m.time_for_seeds_s(
                static_cast<u64>(comb::exhaustive_search_count(d)), devices,
                algo, /*early_exit=*/false, iter);
          }};
}

DeviceModel apu_model(const EngineConfig& cfg) {
  const sim::ApuModel m;
  return {"SALTED-APU", m.spec().name, cfg.iterator, host_search(cfg),
          [m](const SearchResult& r, bool, hash::HashAlgo algo) {
            return m.time_for_seeds_s(r.seeds_hashed, algo);
          },
          [m](int d, hash::HashAlgo algo) {
            return m.exhaustive_time_s(d, algo);
          },
          static_cast<u32>(m.calibration().apu_batch_size)};
}

/// The A100 model over the kernel emulation.
DeviceModel gpu_emu_model(const EngineConfig& cfg) {
  DeviceModel model = gpu_model(cfg, sim::IterAlgo::kChase382);
  model.backend_name = "SALTED-GPU (kernel)";
  model.device_name += " (kernel emulation)";
  // Partition width per shell: a few threads per host worker is enough to
  // exercise the kernel structure; snapshot walks bound the useful width.
  const int width = 4 * resolve_threads(cfg.host_threads);
  par::WorkerGroup* workers = resolve_workers(cfg.workers);
  model.search = [=](const Seed256& s_init, ByteSpan digest,
                     hash::HashAlgo algo, const SearchOptions& opts,
                     par::SearchContext* session) {
    return with_typed_target(digest, algo, [&](auto hash, const auto& target) {
      return gpu::gpu_emulated_search<decltype(hash)>(
          *workers, s_init, target, opts.max_distance,
          [width](int) { return width; }, /*threads_per_block=*/32, hash,
          opts.timeout_s, session);
    });
  };
  return model;
}

/// CPU and GPU drain the same ball concurrently: the platforms combine as
/// parallel servers (aggregate rate = sum of rates → harmonic time).
DeviceModel hetero_model(const EngineConfig& cfg) {
  RBC_CHECK_MSG(cfg.device_threads >= 1,
                "hetero backend needs at least one device thread");
  const DeviceModel cpu = cpu_model(cfg);
  const DeviceModel gpu = gpu_model(cfg, sim::IterAlgo::kChase382);
  const auto parallel = [](double a, double b) {
    return 1.0 / (1.0 / a + 1.0 / b);
  };
  const int host_units = resolve_threads(cfg.host_threads);
  const int device_threads = cfg.device_threads;
  par::WorkerGroup* workers = resolve_workers(cfg.workers);
  return {"SALTED-HETERO (CPU+GPU)", cpu.device_name + " + " + gpu.device_name,
          sim::IterAlgo::kChase382,
          [=](const Seed256& s_init, ByteSpan digest, hash::HashAlgo algo,
              const SearchOptions& opts, par::SearchContext* session) {
            return with_typed_target(
                digest, algo, [&](auto hash, const auto& target) {
                  return gpu::hetero_cosearch<decltype(hash)>(
                      *workers, s_init, target, opts, host_units,
                      device_threads, /*threads_per_block=*/32, hash,
                      session);
                });
          },
          [=](const SearchResult& r, bool early_exit, hash::HashAlgo algo) {
            return parallel(cpu.search_seconds(r, early_exit, algo),
                            gpu.search_seconds(r, early_exit, algo));
          },
          [=](int d, hash::HashAlgo algo) {
            return parallel(cpu.exhaustive_seconds(d, algo),
                            gpu.exhaustive_seconds(d, algo));
          }};
}

}  // namespace

EngineReport SearchBackend::search(const Seed256& s_init, ByteSpan digest,
                                   hash::HashAlgo algo,
                                   const SearchOptions& opts,
                                   par::SearchContext* session) const {
  SearchOptions o = opts;
  o.check_interval = std::max(o.check_interval, model_.check_interval_floor);
  EngineReport report;
  report.result = model_.search(s_init, digest, algo, o, session);
  report.modeled_device_seconds =
      modeled_device_seconds(report.result, opts.early_exit, algo);
  report.device_name = model_.device_name;
  return report;
}

int plan_ca_distance(const SearchBackend& backend, hash::HashAlgo algo,
                     double threshold_s, double comm_time_s,
                     int max_considered) {
  const auto plan = sim::plan_injected_noise(
      [&](int d) { return backend.modeled_exhaustive_time_s(d, algo); },
      threshold_s, comm_time_s, max_considered);
  return plan.max_distance;
}

std::unique_ptr<SearchBackend> make_backend(std::string_view device,
                                            EngineConfig cfg) {
  const auto model = [&]() -> DeviceModel {
    if (device == "cpu") return cpu_model(cfg);
    if (device == "gpu") {
      return cfg.num_devices > 1 ? multi_gpu_model(cfg)
                                 : gpu_model(cfg, cfg.iterator);
    }
    if (device == "apu") return apu_model(cfg);
    if (device == "gpu-emu") return gpu_emu_model(cfg);
    if (device == "hetero") return hetero_model(cfg);
    RBC_CHECK_MSG(false,
                  "unknown backend device (want cpu|gpu|apu|gpu-emu|hetero)");
    return {};
  };
  return std::make_unique<SearchBackend>(model());
}

}  // namespace rbc
