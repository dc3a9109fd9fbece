// Figure 3: heatmap of GPU search-only time versus seeds-per-thread (n) and
// threads-per-block (b) for an exhaustive SHA-3 search at d = 5.
//
// The paper finds the minimum at n = 100, b = 128 (4.67 s) inside a broad
// flat region, with clear penalties at the extremes (n = 1 spawns >8 billion
// threads; huge blocks blow the shared-memory budget for the per-thread
// Chase state). The grid below is sim::autotune_gpu's sweep over the
// calibrated GPU execution model; the marked cell is its minimum.
#include "bench_util.hpp"
#include "sim/autotune.hpp"

int main() {
  using namespace rbc;
  using namespace rbc::bench;

  print_title("Figure 3 — GPU grid search, SHA-3 exhaustive d = 5 (model, s)");

  const sim::TuneResult tuned =
      sim::autotune_gpu(sim::GpuModel{}, 5, hash::HashAlgo::kSha3_256);
  const sim::TunePoint& best = tuned.best;

  // The grid is row-major over n x b: one table row per n.
  std::vector<std::string> headers{"n \\ b"};
  for (const sim::TunePoint& p : tuned.grid) {
    if (p.seeds_per_thread != tuned.grid.front().seeds_per_thread) break;
    headers.push_back(std::to_string(p.threads_per_block));
  }
  headers.push_back("total threads");
  const std::size_t row_cells = headers.size() - 2;
  Table table(headers);
  double paper_cell = 0.0;
  for (std::size_t i = 0; i < tuned.grid.size(); i += row_cells) {
    const int n = tuned.grid[i].seeds_per_thread;
    std::vector<std::string> row{std::to_string(n)};
    for (std::size_t j = i; j < i + row_cells; ++j) {
      const sim::TunePoint& p = tuned.grid[j];
      std::string cell = fmt(p.time_s, 2);
      if (n == best.seeds_per_thread &&
          p.threads_per_block == best.threads_per_block)
        cell = "[" + cell + "]";
      if (n == 100 && p.threads_per_block == 128) paper_cell = p.time_s;
      row.push_back(std::move(cell));
    }
    const u64 threads = (u64{8987138113} + static_cast<u64>(n) - 1) /
                        static_cast<u64>(n);
    row.push_back(fmt_sci(static_cast<double>(threads), 1));
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nModel minimum: %.2f s at n=%d, b=%d   (paper: 4.67 s at "
              "n=100, b=128)\n",
              best.time_s, best.seeds_per_thread, best.threads_per_block);
  std::printf("Paper-choice cell (100,128): %.2f s (%.1f%% off the model "
              "minimum)\n",
              paper_cell, (paper_cell / best.time_s - 1.0) * 100);
  std::printf(
      "Flatness check (paper: \"several sets of parameters achieve similarly "
      "good performance\"):\n");
  std::printf("  %d of %zu grid cells within 5%% of the minimum\n",
              tuned.near_optimal_count, tuned.grid.size());
  return 0;
}
