#include "mp/tuning.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "mp/kernels.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {
/// Row cap of one batch: bounds the halo triangle a blocked chunk
/// recomputes (and the diagonal executor's scan buffer).
constexpr std::size_t kMaxBatchRows = 64;
/// Diagonal-batching target work items per dispatch round.
constexpr std::size_t kBatchTargetItems = 4096;
std::atomic<std::size_t> g_row_batch_override{0};
}  // namespace

RowBlockShape row_block_shape(std::size_t tile_cols, std::size_t workers) {
  RowBlockShape shape;
  const std::size_t chunks = 2 * std::max<std::size_t>(1, workers);
  shape.chunk_cols =
      std::max<std::size_t>(1, (tile_cols + chunks - 1) / chunks);
  const std::size_t ov = g_row_batch_override.load(std::memory_order_relaxed);
  shape.rows = ov != 0 ? ov
                       : std::clamp<std::size_t>(shape.chunk_cols / 4, 1,
                                                 kMaxBatchRows);
  return shape;
}

std::size_t row_batch_rows(std::size_t tile_cols, std::size_t tile_rows) {
  const std::size_t ov = g_row_batch_override.load(std::memory_order_relaxed);
  if (ov != 0) return std::max<std::size_t>(1, std::min(ov, tile_rows));
  if (tile_cols == 0 || tile_rows == 0) return 1;
  const std::size_t bt = std::clamp<std::size_t>(
      kBatchTargetItems / std::max<std::size_t>(1, tile_cols), 1,
      kMaxBatchRows);
  return std::min(bt, tile_rows);
}

void set_row_batch_override(std::size_t rows) {
  g_row_batch_override.store(std::min(rows, kMaxBatchRows),
                             std::memory_order_relaxed);
}

bool use_fused_row_path(RowPath requested, std::size_t dims) {
  if (requested == RowPath::kCooperative) return false;
  // kAuto: the fused block pipeline supports every mode and every d up to
  // its stack-block cap; beyond that only the cooperative path works.
  return dims <= kMaxFusedRowDims;
}

std::size_t tile_working_set_bytes(std::size_t tile_rows,
                                   std::size_t tile_cols, std::size_t dims,
                                   std::size_t window, PrecisionMode mode) {
  const std::size_t es = storage_bytes(mode);
  // Mirrors SingleTileEngine's DeviceBuffer allocations:
  //   input slices: (rows+m-1 + cols+m-1) * d
  //   per-row coefficient arrays: 4 per side + QT seeds (row + col)
  //   row buffers: qt_a, qt_b, dist, scan (4 * cols * d)
  //   profile (es) + index (8 bytes).
  const std::size_t inputs =
      (tile_rows + window - 1 + tile_cols + window - 1) * dims * es;
  const std::size_t coefficients =
      (4 * tile_rows + 4 * tile_cols + tile_cols + tile_rows) * dims * es;
  const std::size_t rows = 4 * tile_cols * dims * es;
  const std::size_t outputs = tile_cols * dims * (es + 8);
  return inputs + coefficients + rows + outputs;
}

std::size_t fused_tile_working_set_bytes(std::size_t tile_rows,
                                         std::size_t tile_cols,
                                         std::size_t dims, std::size_t window,
                                         PrecisionMode mode) {
  return tile_working_set_bytes(tile_rows, tile_cols, dims, window, mode) -
         2 * tile_cols * dims * storage_bytes(mode);
}

TileTuningResult suggest_tiles(const TileTuningRequest& request,
                               const gpusim::MachineSpec& spec) {
  MPSIM_CHECK(request.n_r >= 1 && request.n_q >= 1,
              "empty segment ranges cannot be tuned");
  MPSIM_CHECK(request.devices >= 1, "need at least one device");

  TileTuningResult out;

  // --- Accuracy constraint: bound the recurrence length (tile rows). ---
  // The deterministic bound on the QT recurrence error after k streaming
  // steps is ~ k * eps (§V-B), but per-step rounding errors are
  // mean-zero, so they accumulate diffusively in practice: e ~ sqrt(k) *
  // eps.  Demanding sqrt(k) * eps <= tol gives k <= (tol/eps)^2 — for
  // FP16 (eps = 2^-11) and tol = 1% that is ~420 rows per tile, which at
  // n = 2^16 lands at a few hundred tiles: precisely the paper's Fig. 7
  // sweet spot (256 tiles).
  std::size_t max_rows = request.n_r;
  const double eps = unit_roundoff(request.mode);
  if (eps > 0x1.0p-24 * 1.5) {  // only the half-precision families bind
    const double ratio = request.correlation_tolerance / eps;
    const double k_limit = ratio * ratio;
    if (k_limit < double(request.n_r)) {
      max_rows = std::max<std::size_t>(1, std::size_t(k_limit));
      out.accuracy_limited = true;
    }
  }

  // --- Memory constraint: concurrent tiles must fit the device. ---
  // The paper's GPU holds up to kStreamsPerDevice tiles at once, one per
  // stream; the rule models that device and requires that many working
  // sets (at most a device's share of the tiles) plus 20% headroom.
  const std::size_t capacity = spec.memory_capacity_bytes;
  const auto working_set = [&](std::size_t rows, std::size_t cols) {
    return request.fused_rows
               ? fused_tile_working_set_bytes(rows, cols, request.dims,
                                              request.window, request.mode)
               : tile_working_set_bytes(rows, cols, request.dims,
                                        request.window, request.mode);
  };

  auto feasible = [&](int tiles) {
    const TileGrid grid = choose_tile_grid(tiles);
    const std::size_t rows =
        (request.n_r + std::size_t(grid.rows) - 1) / std::size_t(grid.rows);
    const std::size_t cols =
        (request.n_q + std::size_t(grid.cols) - 1) / std::size_t(grid.cols);
    if (out.accuracy_limited && rows > max_rows) return false;
    if (capacity != 0) {
      const std::size_t ws = working_set(rows, cols);
      const std::size_t concurrent =
          std::min<std::size_t>(std::size_t(kStreamsPerDevice),
                                (std::size_t(tiles) +
                                 std::size_t(request.devices) - 1) /
                                    std::size_t(request.devices));
      if (double(ws) * double(std::max<std::size_t>(1, concurrent)) >
          0.8 * double(capacity)) {
        return false;
      }
    }
    return true;
  };

  // Grow the tile count (multiples of the device count) until feasible.
  int tiles = request.devices;
  while (!feasible(tiles)) {
    MPSIM_CHECK(std::size_t(tiles) < request.n_r * request.n_q,
                "no feasible tiling: a single-segment tile still violates "
                "the constraints; relax correlation_tolerance");
    tiles += request.devices;
    // Accelerate for huge problems: jump multiplicatively once large.
    if (tiles > 64 * request.devices) tiles *= 2;
  }

  // Determine whether memory (rather than accuracy) forced the growth.
  if (tiles > request.devices && capacity != 0) {
    const TileGrid grid = choose_tile_grid(request.devices);
    const std::size_t rows = (request.n_r + std::size_t(grid.rows) - 1) /
                             std::size_t(grid.rows);
    const std::size_t cols = (request.n_q + std::size_t(grid.cols) - 1) /
                             std::size_t(grid.cols);
    if (double(working_set(rows, cols)) > 0.8 * double(capacity)) {
      out.memory_limited = true;
    }
  }

  const TileGrid grid = choose_tile_grid(tiles);
  out.tiles = tiles;
  out.tile_rows =
      (request.n_r + std::size_t(grid.rows) - 1) / std::size_t(grid.rows);
  out.tile_cols =
      (request.n_q + std::size_t(grid.cols) - 1) / std::size_t(grid.cols);
  out.tile_bytes = working_set(out.tile_rows, out.tile_cols);
  return out;
}

}  // namespace mpsim::mp
