// Security tuning — the §5 extension made operational: given a platform and
// the T = 20 s authentication threshold, pick the largest Hamming distance
// whose WORST-CASE search still fits, then inject that much noise into the
// client's PUF output on purpose. More injected noise = a larger space any
// observer must reason about per one-time key, with zero risk of timeouts.
//
// Demonstrates the planner across platforms, then runs a real (host-scale)
// session at the planned setting to show nothing times out.
#include <cstdio>

#include "rbc/protocol.hpp"
#include "sim/cluster_model.hpp"
#include "sim/security_planner.hpp"

int main() {
  using namespace rbc;
  using hash::HashAlgo;

  const double T = 20.0;
  const double comm = 0.90;

  std::printf("Planning injected noise for T = %.0f s (comm budget %.2f s)\n\n",
              T, comm);
  std::printf("%-22s %-7s %-8s %-16s %-14s %-10s\n", "platform", "hash",
              "max d", "worst search s", "search space", "headroom");

  auto report = [&](const char* name, HashAlgo h,
                    const std::function<double(int)>& time_fn) {
    const auto plan = sim::plan_injected_noise(time_fn, T, comm, 8);
    std::printf("%-22s %-7s %-8d %-16.2f %-14s +%.1f bits\n", name,
                std::string(hash::to_string(h)).c_str(), plan.max_distance,
                plan.exhaustive_time_s,
                comb::u128_to_string(plan.search_space).c_str(),
                plan.headroom_bits);
  };

  sim::GpuModel gpu;
  sim::ApuModel apu;
  sim::CpuModel cpu;
  sim::MultiGpuModel multi;
  sim::ClusterModel cluster;
  for (HashAlgo h : {HashAlgo::kSha1, HashAlgo::kSha3_256}) {
    report("A100 GPU", h, [&](int d) { return gpu.exhaustive_time_s(d, h); });
    report("Gemini APU", h, [&](int d) { return apu.exhaustive_time_s(d, h); });
    report("EPYC x64", h,
           [&](int d) { return cpu.exhaustive_time_s(d, h, 64); });
    report("3x A100 GPU", h, [&](int d) {
      return multi.time_for_seeds_s(
          static_cast<u64>(comb::exhaustive_search_count(d)), 3, h, false);
    });
    report("8-node EPYC cluster", h,
           [&](int d) { return cluster.exhaustive_time_s(d, h, 8); });
  }

  // --- run one real session at a host-scale planned distance ---------------
  std::printf("\nHost-scale demonstration (budget scaled down to 0.5 s):\n");
  EngineConfig ecfg;
  auto backend = make_backend("cpu", ecfg);
  // Plan against the CPU backend's modeled exhaustive search times: the
  // distance a CA would configure for this backend.
  const int planned = plan_ca_distance(*backend, HashAlgo::kSha3_256, T, comm,
                                       /*max_considered=*/8);
  const int host_d = std::min(planned, 3);  // keep the demo quick

  puf::SramPufModel::Params params;
  params.num_addresses = 2;
  puf::SramPufModel device(params, 31337);
  EnrollmentDatabase db(crypto::Aes128::Key{0x33});
  Xoshiro256 rng(5);
  db.enroll(1, device, 60, 0.05, rng);
  RegistrationAuthority ra;
  CaConfig ca_cfg;
  ca_cfg.max_distance = host_d;
  CertificateAuthority ca(ca_cfg, std::move(db), std::move(backend), &ra);

  ClientConfig ccfg;
  ccfg.device_id = 1;
  ccfg.injected_distance = host_d;  // inject the planned amount of noise
  Client client(ccfg, &device, 77);
  const auto session = run_authentication(client, ca, ra);
  std::printf(
      "  planned d = %d (platform plan: %d); authenticated = %s at d = %d, "
      "search %.3f s\n",
      host_d, planned, session.result.authenticated ? "yes" : "NO",
      session.result.found_distance, session.result.search_seconds);
  return session.result.authenticated ? 0 : 1;
}
