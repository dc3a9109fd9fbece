// One differential property test for every search path: the single-unit
// stream (each iterator family, batched and scalar hashing), the tiled
// search at 2-4 units and with tiny tiles, the reliability-ordered stream,
// the fused engine (canonical and ordered sessions sharing batches, and each
// iterator family's canonical sessions at that family's exact count), the
// GPU-emu kernel, the hetero co-search, the distributed ranks and the APU
// bit-sliced kernel. Each runs the oracle's cases (search_oracle.hpp), all
// at once as concurrent sessions, and must agree with brute force.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <thread>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/gosper.hpp"
#include "search_oracle.hpp"

namespace rbc::oracle {
namespace {

constexpr int kFull = comb::kSeedBits;

par::WorkerGroup& pool() {
  static par::WorkerGroup group(4);
  return group;
}

comb::Algorithm515Factory alg515(int n_bits) {
  return comb::Algorithm515Factory(comb::Alg515Mode::kSuccessor, n_bits);
}
comb::GosperFactory gosper(int n_bits) { return comb::GosperFactory(n_bits); }

struct Path {
  std::string name;
  int d;
  int n_bits;
  bool exhaustive;  // also searched without early exit
  Orders orders;
  Runner run;
  /// Exact early-exit count, for paths with one deterministic visit order.
  std::function<u64(const Case&)> visit;
};

std::vector<Path> paths() {
  static server::FusionEngine engine;
  const auto canonical = Orders::kCanonical;
  return {
      {"stream_chase", 3, 20, true, canonical, host_search(pool(), 1, chase),
       chase_visit},
      {"stream_alg515", 3, 20, true, canonical,
       host_search(pool(), 1, alg515),
       [](const Case& c) { return visit_position(c, alg515(c.n_bits)); }},
      {"stream_gosper", 3, 20, true, canonical,
       host_search(pool(), 1, gosper),
       [](const Case& c) { return visit_position(c, gosper(c.n_bits)); }},
      {"stream_scalar", 2, kFull, true, canonical,
       host_search</*kBatched=*/false>(pool(), 1, chase), chase_visit},
      {"tiled2_chase", 2, kFull, true, canonical, host_search(pool(), 2, chase),
       nullptr},
      {"tiled3_alg515", 3, 20, true, canonical,
       host_search(pool(), 3, alg515, /*tile_seeds=*/64), nullptr},
      {"tiled4_gosper", 3, 20, true, canonical,
       host_search(pool(), 4, gosper, /*tile_seeds=*/64), nullptr},
      {"tiled4_tiny_tiles", 3, 20, true, canonical,
       host_search(pool(), 4, chase, /*tile_seeds=*/7), nullptr},
      // Ordered searches run single-unit at any width: exact counts.
      {"ordered", 3, 20, true, Orders::kReliability,
       host_search(pool(), 3, chase), chase_visit},
      {"fused", 2, kFull, false, Orders::kBoth, fused_search(engine),
       chase_visit},
      {"fused_alg515", 2, kFull, false, canonical,
       fused_search(engine, sim::IterAlgo::kAlg515),
       [](const Case& c) { return visit_position(c, alg515(c.n_bits)); }},
      {"fused_gosper", 2, kFull, false, canonical,
       fused_search(engine, sim::IterAlgo::kGosper),
       [](const Case& c) { return visit_position(c, gosper(c.n_bits)); }},
      {"gpu_emu", 2, kFull, false, canonical,
       kernel_search(pool(), [](int k) { return k == 1 ? 3 : 16; }, 4),
       nullptr},
      {"hetero", 2, kFull, true, canonical, hetero_search(pool(), 8, 4),
       nullptr},
      {"dist", 2, kFull, true, canonical, dist_search(3), nullptr},
      {"apu_bitsliced", 3, 20, false, canonical, apu_search<>, apu_visit<>},
  };
}

void PrintTo(const Path& path, std::ostream* os) { *os << path.name; }

class SearchOracle : public ::testing::TestWithParam<Path> {};

TEST_P(SearchOracle, MatchesBruteForce) {
  const Path& path = GetParam();
  const std::vector<Case> all =
      cases(/*seed=*/19, path.d, path.n_bits, path.exhaustive, path.orders);
  // Every case at once, as concurrent sessions over the shared workers.
  std::vector<Outcome> got(all.size());
  std::vector<std::thread> sessions;
  for (std::size_t i = 0; i < all.size(); ++i)
    sessions.emplace_back([&, i] { got[i] = path.run(all[i]); });
  for (auto& session : sessions) session.join();
  for (std::size_t i = 0; i < all.size(); ++i) {
    expect_matches(all[i], brute_force(all[i]), got[i],
                   path.visit ? path.visit(all[i]) : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, SearchOracle, ::testing::ValuesIn(paths()),
                         [](const auto& test) { return test.param.name; });

}  // namespace
}  // namespace rbc::oracle
