#include "parallel/tile_scheduler.hpp"

#include "common/check.hpp"

namespace rbc::par {

TileScheduler::TileScheduler(std::vector<u64> tiles_per_shell, int first_shell)
    : tiles_per_shell_(std::move(tiles_per_shell)),
      first_shell_(first_shell),
      completed_(tiles_per_shell_.size()) {
  for (const u64 tiles : tiles_per_shell_) total_ += tiles;
}

bool TileScheduler::acquire(Tile& out) {
  u64 index = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (index >= total_) return false;
  // d is small; walk the shells.
  std::size_t i = 0;
  while (index >= tiles_per_shell_[i]) index -= tiles_per_shell_[i++];
  out = Tile{first_shell_ + static_cast<int>(i), index};
  return true;
}

void TileScheduler::complete(const Tile& tile) {
  const std::size_t i = static_cast<std::size_t>(tile.shell - first_shell_);
  RBC_CHECK(i < tiles_per_shell_.size());
  completed_[i].fetch_add(1, std::memory_order_acq_rel);
}

int TileScheduler::completed_through() const {
  int watermark = first_shell_ - 1;
  for (std::size_t i = 0; i < tiles_per_shell_.size(); ++i) {
    if (completed_[i].load(std::memory_order_acquire) != tiles_per_shell_[i])
      break;
    watermark = first_shell_ + static_cast<int>(i);
  }
  return watermark;
}

}  // namespace rbc::par
