// Tiling scheme of the multi-tile algorithm (paper §III-B, Pseudocode 2).
//
// The (n_r x n_q) distance matrix is partitioned into a t_r x t_q grid of
// tiles; each tile is a standalone matrix profile over sub-ranges of the
// reference and query segments, later merged by column-wise min/argmin.
// Splitting the *reference* range is what bounds the error propagation of
// the iterative QT recurrence (the recurrence restarts from a fresh
// precalculation at each tile's first row), so the planner favours row
// splits: t_r >= t_q, with t_r * t_q = n_tiles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mp/options.hpp"

namespace mpsim::mp {

/// CUDA streams per GPU the paper overlaps tiles on (Pseudocode 2, §IV).
/// A term of the model only: model_tiles overlaps a device's copies with
/// its compute when it holds several tiles, and suggest_tiles sizes tiles
/// so up to this many working sets fit one device at once.  Execution
/// runs one tile attempt at a time per device.
constexpr int kStreamsPerDevice = 16;

struct Tile {
  std::size_t r_begin = 0;  ///< first reference segment of the tile
  std::size_t r_count = 0;
  std::size_t q_begin = 0;  ///< first query segment of the tile
  std::size_t q_count = 0;
  int device = 0;           ///< global device, assigned by deal_tiles
  int id = 0;
};

/// Factorisation n_tiles = t_r * t_q chosen by the planner.
struct TileGrid {
  int rows = 1;  ///< t_r — splits of the reference range
  int cols = 1;  ///< t_q — splits of the query range
};

/// Picks t_r x t_q = n_tiles with tiles as square as possible and
/// t_r >= t_q (row splits bound the numerical error, §III-B).
TileGrid choose_tile_grid(int n_tiles);

/// compute_tile_list of Pseudocode 2: partitions [0,n_r) x [0,n_q) into
/// the grid, spreading remainders over the leading tiles.  Tiles are
/// returned row-major (all column tiles of row block 0 first).
std::vector<Tile> compute_tile_list(std::size_t n_r, std::size_t n_q,
                                    int n_tiles);

/// assign_tile of Pseudocode 2: static Round-robin assignment to devices.
void assign_tiles_round_robin(std::vector<Tile>& tiles, int n_devices);

/// Longest-processing-time assignment: tiles sorted by area (the modelled
/// cost driver) are greedily given to the least-loaded device.  Mitigates
/// the odd-device-count imbalance the paper observes with Round-robin
/// (§V-C: "inefficiencies when using odd numbers of GPUs"), especially
/// when tiles are unevenly sized.
void assign_tiles_lpt(std::vector<Tile>& tiles, int n_devices);

/// Pseudocode 2's assign_tile over a cluster of `nodes` x `devices`:
/// deals the tiles to nodes by `assignment`, then spreads each node's
/// whole share over that node's devices by the same rule.  Tile::device
/// is the global device id, node * devices + local, so a tile's node is
/// device / devices.  With one node this is assign_tiles_*(devices).
/// Every run, and every model of a run, places its tiles here.
void deal_tiles(std::vector<Tile>& tiles, int nodes, int devices,
                TileAssignment assignment);

/// How a journalled result slice (absolute [r_begin, r_begin+r_count) x
/// [q_begin, q_begin+q_count) ranges, see mp/checkpoint.hpp) relates to a
/// tile of the *current* grid.  Used by elastic resume to re-key slices
/// written under a different tile grid or node count.
enum class SliceFit {
  /// Ranges disjoint from, column-mismatched with, or dimensionally
  /// incompatible with the tile — the slice cannot seed it.
  kNone,
  /// Covers the whole tile: restore it outright and skip execution.
  kComplete,
  /// Same seed origin (r_begin, q_begin, exact column range) but fewer
  /// rows than the tile: a bit-exact prefix — execution may continue the
  /// QT recurrence from the slice's journalled row and compute only the
  /// remainder.
  kPrefix,
};

/// Classifies a slice against a tile.  Bit-identity of the diagonal QT
/// recurrence depends only on the seed origin (r_begin, q_begin) and the
/// column extent — NOT on how many rows the tile runs — so:
///   - exact q range + same r_begin + r_count == tile rows  → kComplete
///   - exact q range + same r_begin + 0 < r_count < tile rows → kPrefix
///   - anything else (different origin, trimmed/shifted columns,
///     dims mismatch) → kNone (restarting the recurrence elsewhere
///     yields different rounding, docs/DESIGN.md).
SliceFit classify_slice(std::size_t slice_r_begin, std::size_t slice_r_count,
                        std::size_t slice_q_begin, std::size_t slice_q_count,
                        std::size_t slice_dims, const Tile& tile,
                        std::size_t dims);

}  // namespace mpsim::mp
