#include "mp/tile_plan.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace mpsim::mp {

TileGrid choose_tile_grid(int n_tiles) {
  MPSIM_CHECK(n_tiles >= 1, "tile count must be positive");
  // Largest factor pair (rows >= cols) closest to square.
  int best_cols = 1;
  for (int c = 1; c * c <= n_tiles; ++c) {
    if (n_tiles % c == 0) best_cols = c;
  }
  return TileGrid{n_tiles / best_cols, best_cols};
}

namespace {

/// Splits `total` into `parts` contiguous ranges differing by at most one.
std::vector<std::pair<std::size_t, std::size_t>> split_range(
    std::size_t total, int parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t base = total / std::size_t(parts);
  const std::size_t extra = total % std::size_t(parts);
  std::size_t begin = 0;
  for (int p = 0; p < parts; ++p) {
    const std::size_t count = base + (std::size_t(p) < extra ? 1 : 0);
    out.emplace_back(begin, count);
    begin += count;
  }
  return out;
}

/// One level of dealing: `tiles` over `n` bins by `assignment`.
void assign_tiles(std::vector<Tile>& tiles, int n, TileAssignment assignment) {
  if (assignment == TileAssignment::kLpt) {
    assign_tiles_lpt(tiles, n);
  } else {
    assign_tiles_round_robin(tiles, n);
  }
}

}  // namespace

std::vector<Tile> compute_tile_list(std::size_t n_r, std::size_t n_q,
                                    int n_tiles) {
  MPSIM_CHECK(n_r >= 1 && n_q >= 1, "empty segment ranges cannot be tiled");
  TileGrid grid = choose_tile_grid(n_tiles);
  // Never produce empty tiles for tiny inputs.
  if (std::size_t(grid.rows) > n_r) grid.rows = int(n_r);
  if (std::size_t(grid.cols) > n_q) grid.cols = int(n_q);

  const auto row_ranges = split_range(n_r, grid.rows);
  const auto col_ranges = split_range(n_q, grid.cols);

  std::vector<Tile> tiles;
  tiles.reserve(row_ranges.size() * col_ranges.size());
  int id = 0;
  for (const auto& [r0, rc] : row_ranges) {
    for (const auto& [q0, qc] : col_ranges) {
      tiles.push_back(Tile{r0, rc, q0, qc, 0, id++});
    }
  }
  return tiles;
}

void assign_tiles_round_robin(std::vector<Tile>& tiles, int n_devices) {
  MPSIM_CHECK(n_devices >= 1, "need at least one device");
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    tiles[i].device = int(i % std::size_t(n_devices));
  }
}

void assign_tiles_lpt(std::vector<Tile>& tiles, int n_devices) {
  MPSIM_CHECK(n_devices >= 1, "need at least one device");
  // Sort tile references by area, largest first (stable by id for
  // determinism), then greedily assign each to the least-loaded device.
  std::vector<std::size_t> order(tiles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t area_a = tiles[a].r_count * tiles[a].q_count;
    const std::size_t area_b = tiles[b].r_count * tiles[b].q_count;
    if (area_a != area_b) return area_a > area_b;
    return tiles[a].id < tiles[b].id;
  });
  std::vector<std::size_t> load(std::size_t(n_devices), 0);
  for (const std::size_t t : order) {
    int best = 0;
    for (int dev = 1; dev < n_devices; ++dev) {
      if (load[std::size_t(dev)] < load[std::size_t(best)]) best = dev;
    }
    tiles[t].device = best;
    load[std::size_t(best)] += tiles[t].r_count * tiles[t].q_count;
  }
}

void deal_tiles(std::vector<Tile>& tiles, int nodes, int devices,
                TileAssignment assignment) {
  MPSIM_CHECK(nodes >= 1 && devices >= 1, "need at least one device");
  assign_tiles(tiles, nodes, assignment);
  std::vector<std::vector<std::size_t>> shares(static_cast<std::size_t>(nodes));
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    shares[std::size_t(tiles[t].device)].push_back(t);
  }
  for (int k = 0; k < nodes; ++k) {
    const std::vector<std::size_t>& share = shares[std::size_t(k)];
    std::vector<Tile> placed;
    placed.reserve(share.size());
    for (const std::size_t t : share) placed.push_back(tiles[t]);
    assign_tiles(placed, devices, assignment);
    for (std::size_t i = 0; i < share.size(); ++i) {
      tiles[share[i]].device = k * devices + placed[i].device;
    }
  }
}

SliceFit classify_slice(std::size_t slice_r_begin, std::size_t slice_r_count,
                        std::size_t slice_q_begin, std::size_t slice_q_count,
                        std::size_t slice_dims, const Tile& tile,
                        std::size_t dims) {
  // Dimensional or column mismatch: the slice's profile entries cover a
  // different column set (or a different number of values per column)
  // than the tile merges — there is no bit-safe sub-range to extract,
  // because trimming columns would not reproduce the tile's own merge.
  if (slice_dims != dims) return SliceFit::kNone;
  if (slice_q_begin != tile.q_begin || slice_q_count != tile.q_count) {
    return SliceFit::kNone;
  }
  // Row-origin mismatch: the journalled rows were produced by a QT
  // recurrence seeded at slice_r_begin; a tile seeded elsewhere computes
  // different (both valid) bits for the same absolute rows.
  if (slice_r_begin != tile.r_begin) return SliceFit::kNone;
  if (slice_r_count == 0) return SliceFit::kNone;
  if (slice_r_count == tile.r_count) return SliceFit::kComplete;
  // More rows than the tile: the slice's profile is already min-merged
  // over rows past the tile's end — row contributions cannot be
  // un-merged, so a longer slice is unusable for a shorter tile.
  if (slice_r_count > tile.r_count) return SliceFit::kNone;
  return SliceFit::kPrefix;
}

}  // namespace mpsim::mp
