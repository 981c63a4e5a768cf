// Automatic tile-count selection — the paper's §III-B closes with "this
// design simplifies tuning for accuracy through careful selection of the
// number of tiles n_tiles"; this module performs that selection.
//
// Two constraints drive the choice:
//
//  1. Device memory: a tile's working set (input slices + precalculated
//     coefficient arrays + row buffers + profile) must fit the device,
//     with headroom for the paper's 16 concurrent streams per GPU.
//
//  2. Accuracy: the QT recurrence's rounding error grows with the number
//     of streaming steps (e ~ steps * eps, §V-B).  Bounding the error of
//     the Pearson correlation below `correlation_tolerance` bounds the
//     tile's row count by tolerance / (eps * m) up to a safety constant
//     (QT's magnitude is of order m for z-normalised data).
//
// The tuner returns the smallest tile count satisfying both, rounded up
// to a multiple of the device count so the Round-robin schedule balances
// (the paper's odd-GPU-count remedy).
#pragma once

#include <cstddef>

#include "gpusim/spec.hpp"
#include "mp/options.hpp"

namespace mpsim::mp {

struct TileTuningRequest {
  std::size_t n_r = 0;
  std::size_t n_q = 0;
  std::size_t dims = 1;
  std::size_t window = 64;
  PrecisionMode mode = PrecisionMode::FP64;
  int devices = 1;
  /// The resolved row path (use_fused_row_path): fused tiles allocate no
  /// distance / scan row buffers, so they are sized with
  /// fused_tile_working_set_bytes instead of tile_working_set_bytes.
  bool fused_rows = false;
  /// Acceptable rounding error of the Pearson correlation (dimensionless).
  /// The default of 3% keeps FP16 index recall near 95% in the stress
  /// tests; ignored for FP64/FP32, whose recurrence error is negligible
  /// at any realistic n.
  double correlation_tolerance = 0.03;
};

struct TileTuningResult {
  int tiles = 1;
  std::size_t tile_rows = 0;       ///< reference segments per tile
  std::size_t tile_cols = 0;       ///< query segments per tile
  std::size_t tile_bytes = 0;      ///< modelled working set per tile
  bool memory_limited = false;     ///< memory forced more tiles
  bool accuracy_limited = false;   ///< accuracy forced more tiles
};

/// Smallest tile count satisfying the memory and accuracy constraints on
/// `spec`, rounded to a multiple of the device count.
TileTuningResult suggest_tiles(const TileTuningRequest& request,
                               const gpusim::MachineSpec& spec);

/// Working-set bytes of one tile (the engine's device allocations).
std::size_t tile_working_set_bytes(std::size_t tile_rows,
                                   std::size_t tile_cols, std::size_t dims,
                                   std::size_t window, PrecisionMode mode);

/// Working-set bytes of one tile on the fused row path, which allocates
/// no distance / scan row buffers.
std::size_t fused_tile_working_set_bytes(std::size_t tile_rows,
                                         std::size_t tile_cols,
                                         std::size_t dims, std::size_t window,
                                         PrecisionMode mode);

/// Path-selection heuristic of the per-row pipeline: the fused path wins
/// whenever it supports the dimensionality (its column block and network
/// specialisations cap out at kMaxFusedRowDims), so kAuto resolves to
/// fused below the cap and cooperative above it.  Both paths produce
/// bit-identical output.
bool use_fused_row_path(RowPath requested, std::size_t dims);

/// Dispatch shape of the fused path's temporal-blocked rows
/// (fused_rows_blocked): one parallel_for_grained per batch of `rows`
/// tile rows, over column chunks of `chunk_cols`.
struct RowBlockShape {
  std::size_t chunk_cols = 1;  ///< ~tile_cols / (2 * workers)
  std::size_t rows = 1;        ///< bt: chunk_cols / 4, in [1, 64]
};

/// Block shape for a tile of `tile_cols` columns on a pool of `workers`.
/// Two chunks per worker balance the load; a chunk recomputes up to
/// rows - 1 halo columns per row, so rows stays at a quarter of the chunk
/// width (halo work <= 1/8 of the QT work).  The engine clips `rows` to
/// the tile's remaining rows and to the next slice boundary.
RowBlockShape row_block_shape(std::size_t tile_cols, std::size_t workers);

/// Rows per round of the diagonal-batched executor
/// (batched_rows_phase_a / batched_rows_merge), which the engine no
/// longer runs; the repository benchmark's probe still times it.
/// Targets ~4096 work items per round, capped at 64 rows and at the
/// tile's row count; 1 means unbatched.
std::size_t row_batch_rows(std::size_t tile_cols, std::size_t tile_rows);

/// Test/bench override of the batch rows of row_block_shape and
/// row_batch_rows (0 = auto).  Applies process-wide; values above 64 are
/// clamped.
void set_row_batch_override(std::size_t rows);

}  // namespace mpsim::mp
