// Table 4: exhaustive search-only time (s) for the three seed-iterator
// methods (Chase's Algorithm 382, Algorithm 515, Gosper's hack), GPU, SHA-3,
// d = 5.
//
// Three sections:
//   1. model — the calibrated GPU model's projection for each iterator,
//      versus the paper's 4.67 / 7.53 / 6.04 s.
//   2. host, iterate then hash — the REAL iterators from this repo, each
//      candidate hashed with the REAL scalar SHA-3 (shell k = 3 sample,
//      Algorithm 515 in unrank-each mode). The paper's ordering (Chase <
//      Gosper < Alg 515 for unrank-per-seed generation) must emerge from the
//      measurement, not the calibration.
//   3. host, the search's scan — hash::SeedScan, the one scan every search
//      path runs, over the same candidates (at AVX-512 the Chase source
//      steps inside the Keccak rounds, §4.5's fused kernel), and the same
//      scan over those candidates replayed from an array. Scan minus replay
//      is the iterator's share of a scanned candidate; it is negative where
//      the fused kernel hides the iterator's steps and saves the fill that a
//      replayed block pays after its rounds. "fused/unfused" is §4.5's
//      ratio: scan ns over section 2's iterate-then-hash ns.
#include "bench_util.hpp"
#include "hash/cpu_features.hpp"
#include "sim/gpu_model.hpp"
#include "sim/probe.hpp"

int main() {
  using namespace rbc;
  using namespace rbc::bench;
  using sim::IterAlgo;

  print_title("Table 4 — seed iterators, GPU SHA-3 exhaustive d = 5");

  sim::GpuModel gpu;
  const struct {
    IterAlgo iter;
    double paper;
  } rows[] = {
      {IterAlgo::kChase382, 4.67},
      {IterAlgo::kAlg515, 7.53},
      {IterAlgo::kGosper, 6.04},
  };

  Table table({"algorithm", "paper (s)", "model (s)", "dev"});
  for (const auto& row : rows) {
    const double model =
        gpu.exhaustive_time_s(5, hash::HashAlgo::kSha3_256, row.iter);
    table.add_row({std::string(sim::to_string(row.iter)), fmt(row.paper),
                   fmt(model), deviation(model, row.paper)});
  }
  table.print();

  std::printf(
      "\nNote: §4.5's prose claims 5.89x/6.77x speedups for Alg 382 over\n"
      "Alg 515/Gosper, inconsistent with Table 4's own 1.61x/1.29x ratios;\n"
      "this reproduction follows Table 4 (see EXPERIMENTS.md).\n");

  print_title("Host, iterate then hash — real iterator + real SHA-3 (shell k = 3)");
  const u64 sample = 400000;
  const IterAlgo families[] = {IterAlgo::kChase382, IterAlgo::kGosper,
                               IterAlgo::kAlg515};
  Table host({"algorithm", "seeds", "ns/seed", "vs Chase"});
  double unfused_ns[3] = {};
  for (int f = 0; f < 3; ++f) {
    const auto r = sim::probe_iterate_and_hash(families[f],
                                               hash::HashAlgo::kSha3_256, 3,
                                               sample);
    unfused_ns[f] = r.ns_per_op();
    host.add_row({std::string(sim::to_string(families[f])),
                  std::to_string(r.operations), fmt(r.ns_per_op(), 1),
                  fmt(r.ns_per_op() / unfused_ns[0], 2) + "x"});
  }
  host.print();
  std::printf(
      "\nExpected ordering on the host: Chase (O(1) Gray step) <= Gosper\n"
      "(256-bit arithmetic per step) < Alg 515 in unrank-each mode (binomial\n"
      "table walk per seed) — the same ordering Table 4 reports on the GPU.\n");

  print_title("Host, the search's scan — hash::SeedScan over the same candidates");
  std::printf("dispatch level: %s\n\n",
              std::string(hash::to_string(hash::active_simd_level())).c_str());
  Table scan({"algorithm", "scan ns/cand", "replay ns/cand", "iterator ns",
              "iterator share", "vs Chase", "fused/unfused"});
  double chase_scan_ns = 0.0;
  for (int f = 0; f < 3; ++f) {
    const double scan_ns =
        sim::probe_scan(families[f], 3, sample).ns_per_op();
    const double replay_ns =
        sim::probe_scan_replay(families[f], 3, sample).ns_per_op();
    if (f == 0) chase_scan_ns = scan_ns;
    scan.add_row({std::string(sim::to_string(families[f])), fmt(scan_ns, 1),
                  fmt(replay_ns, 1), fmt(scan_ns - replay_ns, 1),
                  fmt(100.0 * (scan_ns - replay_ns) / scan_ns, 1) + "%",
                  fmt(scan_ns / chase_scan_ns, 2) + "x",
                  fmt(scan_ns / unfused_ns[f], 3) + "x"});
  }
  scan.print();
  std::printf(
      "\nThe replay runs the scan's unfused block path at every level, so\n"
      "for Gosper and Alg 515 (whose sources fill a block after its rounds)\n"
      "scan minus replay is exactly the iterator's cost; for Chase at\n"
      "avx512 it also credits the fused kernel's hidden steps.\n");
  return 0;
}
