// Single-tile matrix-profile engine (paper Pseudocode 1).
//
// Runs one tile of the distance matrix on one simulated device:
//   1. async H2D copy of the (reduced-precision) input tile,
//   2. precalculation kernel (QT seeds + mu/inv/df/dg),
//   3. main loop over tile rows: dist_calc, sort_&_incl_scan,
//      update_mat_prof,
//   4. async D2H copy of the tile's profile and index.
//
// The whole tile runs on the calling thread (a device worker of the
// scheduler), its kernel bodies on the device's worker pool; within the
// tile the kernels are strictly ordered, matching the paper's
// per-iteration kernel cadence.  The paper's overlap of tiles on up to
// 16 CUDA streams per GPU is a term of the model (mp/model.hpp), not of
// the execution.  Host data is binary64; the precision reduction happens
// when the inputs are staged for the H2D copy, exactly where a real GPU
// port converts to the storage format.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/faults.hpp"
#include "gpusim/kernel.hpp"
#include "mp/gemm.hpp"
#include "mp/kernels.hpp"
#include "mp/options.hpp"
#include "mp/sketch.hpp"
#include "mp/staging.hpp"
#include "mp/tile_plan.hpp"
#include "mp/tuning.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::mp {

/// Per-tile result, filled when SingleTileEngine::run returns.
struct TileResult {
  std::vector<double> profile;       // [k * q_count + j], binary64 view
  std::vector<std::int64_t> index;   // global reference segment indices
  /// Raw storage-precision bytes of the QT row after the tile's last row
  /// (the recurrence state a longer tile with the same origin would carry
  /// on from).  Empty when the staged inputs were fault-corrupted, and on
  /// the CPU-fallback and memory-pressure-split paths.
  std::vector<std::uint8_t> qt;
  gpusim::KernelLedger ledger;       // this tile's modelled launches
  PrefilterStats prefilter;          // sketch-prefilter decision tallies
};

/// One row-slice snapshot: the tile's profile/index widened to binary64
/// after rows [start_row, rows_done), plus the raw QT row after row
/// rows_done - 1.  The engine refills the same object at every slice
/// boundary (resizing its vectors first), so a sink may modify it in
/// place or swap its vectors out instead of copying them.
struct SliceSnapshot {
  std::size_t rows_done = 0;
  std::vector<double> profile;
  std::vector<std::int64_t> index;
  std::vector<std::uint8_t> qt;
};

/// Mid-tile durability hooks (opt-in, scheduler-provided).
///
/// `start_row > 0` resumes the tile from a journalled row-slice prefix:
/// `start_qt` holds the raw QT row after row start_row - 1 (a snapshot's
/// `qt`: q_count * dims values, storage_bytes(mode) bytes each).  It is copied into the
/// recurrence's row buffer with one modelled H2D transfer, so row
/// start_row sees exactly the QT state the uninterrupted run handed it
/// and the freshly computed tail is bit-identical; rows [0, start_row)
/// are never re-run.  The engine's result then covers only rows
/// [start_row, nr); the caller min-merges its stored prefix back in (the
/// merge rule is associative, so prefix ⊕ tail ≡ the uninterrupted run).
///
/// `on_slice` (with `slice_rows > 0`) is invoked every slice_rows rows
/// past start_row (row batches end at those boundaries), except at the
/// tile's last row, with a snapshot of the contribution of rows
/// [start_row, rows_done).  Snapshots are pure reads: they cannot move
/// output bits.  The engine suppresses snapshots when the staged inputs
/// were fault-corrupted (a poisoned prefix must never become durable) and
/// under the sketch prefilter (whose skipped columns make mid-tile state
/// non-restorable).
struct SliceProgress {
  std::size_t start_row = 0;
  std::span<const std::uint8_t> start_qt;
  std::size_t slice_rows = 0;
  std::function<void(SliceSnapshot& snapshot)> on_slice;
};

namespace detail {

/// A storage value's raw format bits: binary64/binary32 by bit_cast, the
/// emulated formats through their bit accessors.
template <typename ST>
std::uint64_t storage_bits(ST v) {
  if constexpr (std::is_same_v<ST, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else if constexpr (std::is_same_v<ST, float>) {
    return std::bit_cast<std::uint32_t>(v);
  } else {
    return v.bits();
  }
}

/// Packs `n` storage values as `width` little-endian bytes each: the
/// format's width (storage_bytes), which can be narrower than the
/// emulating type's (bfloat16 is held in a 32-bit word).
template <typename ST>
void pack_storage(const ST* src, std::size_t n, std::size_t width,
                  std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = storage_bits(src[i]);
    for (std::size_t b = 0; b < width; ++b) {
      dst[i * width + b] = std::uint8_t(bits >> (8 * b));
    }
  }
}

/// Inverse of pack_storage.
template <typename ST>
void unpack_storage(const std::uint8_t* src, std::size_t n, std::size_t width,
                    ST* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < width; ++b) {
      bits |= std::uint64_t(src[i * width + b]) << (8 * b);
    }
    if constexpr (std::is_same_v<ST, double>) {
      dst[i] = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<ST, float>) {
      dst[i] = std::bit_cast<float>(std::uint32_t(bits));
    } else {
      dst[i] = ST::from_bits(decltype(ST().bits())(bits));
    }
  }
}

}  // namespace detail

template <typename Traits>
class SingleTileEngine {
 public:
  using ST = typename Traits::Storage;

  /// Runs the whole tile on `device` and returns when it has finished.
  /// `staging` (optional) supplies the series pre-converted to storage
  /// precision so the tile stages with a memcpy slice.  `row_path`
  /// selects the per-row execution path (fused vs cooperative; identical
  /// output bits either way).  `prefilter` opts the fused path into the
  /// approximate sketch gate (mp/sketch.hpp); the default-off config
  /// keeps every column exact and the output bit-identical to
  /// pre-prefilter builds.  The cooperative path ignores it (always
  /// exact).  `cancel` (optional) is polled once per tile row and inside
  /// every launch: a cancelled attempt unwinds with CancelledError —
  /// polling never touches the arithmetic, so outputs stay bit-identical
  /// with or without it.
  static void run(gpusim::Device& device, const TimeSeries& reference,
                  const TimeSeries& query, std::size_t m, const Tile& tile,
                  std::int64_t exclusion, TileResult& result,
                  StagingCache* staging = nullptr,
                  RowPath row_path = RowPath::kAuto,
                  const PrefilterConfig& prefilter = {},
                  const gpusim::CancellationToken* cancel = nullptr,
                  const SliceProgress* slice = nullptr) {
    const std::size_t d = reference.dims();
    const std::size_t nr = tile.r_count;
    const std::size_t nq = tile.q_count;
    const std::size_t len_r = nr + m - 1;
    const std::size_t len_q = nq + m - 1;
    const gpusim::LaunchConfig config =
        gpusim::LaunchConfig::tuned_for(device.spec());
    gpusim::KernelLedger* tl = &result.ledger;
    const bool fused = use_fused_row_path(row_path, d);

    // ---- Stage the input tile in storage precision and copy H2D. ----
    // With a staging cache the series is already in storage precision
    // (converted once per run per format) and the tile slice is a straight
    // memcpy; otherwise convert the slice element-wise here.  Both paths
    // produce identical bytes: the cache applies the same ST() casts.
    std::vector<ST> host_r(len_r * d), host_q(len_q * d);
    if (staging != nullptr) {
      const auto view = staging->template get<Traits>();
      for (std::size_t k = 0; k < d; ++k) {
        std::memcpy(host_r.data() + k * len_r,
                    view.reference + k * view.reference_len + tile.r_begin,
                    len_r * sizeof(ST));
        std::memcpy(host_q.data() + k * len_q,
                    view.query + k * view.query_len + tile.q_begin,
                    len_q * sizeof(ST));
      }
    } else {
      for (std::size_t k = 0; k < d; ++k) {
        const auto rdim = reference.dim(k);
        const auto qdim = query.dim(k);
        for (std::size_t t = 0; t < len_r; ++t) {
          host_r[k * len_r + t] = ST(rdim[tile.r_begin + t]);
        }
        for (std::size_t t = 0; t < len_q; ++t) {
          host_q[k * len_q + t] = ST(qdim[tile.q_begin + t]);
        }
      }
    }
    // Fault injection: value corruption (NaN poisoning / bit flips) hits
    // the staged reduced-precision buffers, exactly where a real GPU port
    // is exposed to conversion overflow and memory corruption.
    std::size_t corrupted = 0;
    if (gpusim::FaultInjector* injector = device.fault_injector()) {
      corrupted +=
          injector->corrupt_span(device.index(), host_r.data(), host_r.size());
      corrupted +=
          injector->corrupt_span(device.index(), host_q.data(), host_q.size());
    }
    gpusim::DeviceBuffer<ST> dev_r(device, host_r.size());
    gpusim::DeviceBuffer<ST> dev_q(device, host_q.size());
    gpusim::async_copy_h2d(device, host_r.data(), dev_r,
                           host_r.size(), tl, cancel);
    gpusim::async_copy_h2d(device, host_q.data(), dev_q,
                           host_q.size(), tl, cancel);

    // ---- Device working set. ----
    gpusim::DeviceBuffer<ST> mu_r(device, nr * d), inv_r(device, nr * d),
        df_r(device, nr * d), dg_r(device, nr * d);
    gpusim::DeviceBuffer<ST> mu_q(device, nq * d), inv_q(device, nq * d),
        df_q(device, nq * d), dg_q(device, nq * d);
    gpusim::DeviceBuffer<ST> qt_row(device, nq * d), qt_col(device, nr * d);
    gpusim::DeviceBuffer<ST> qt_a(device, nq * d), qt_b(device, nq * d);
    // The fused path never materialises the distance / scan rows — their
    // elimination is the point — so the buffers stay unallocated there.
    gpusim::DeviceBuffer<ST> dist_row(device, fused ? 0 : nq * d),
        scan_row(device, fused ? 0 : nq * d);
    gpusim::DeviceBuffer<ST> profile(device, nq * d);
    gpusim::DeviceBuffer<std::int64_t> index(device, nq * d);
    for (std::size_t e = 0; e < nq * d; ++e) {
      profile[e] = std::numeric_limits<ST>::infinity();
      index[e] = -1;
    }

    // Approximate sketch prefilter (opt-in, fused path only): per-segment
    // FP16 sketches, built inside the GEMM-seed launch below; the blocked
    // row loop scores column groups per row batch and runs the QT-only
    // recurrence where the score says no profile update is possible
    // (mp/sketch.hpp has the contract).
    TilePrefilter pf(fused ? prefilter : PrefilterConfig{}, m, d, nr, nq);

    // ---- precalculation kernel (Pseudocode 1, line 2). ----
    {
      ST* base_r = dev_r.data();
      ST* base_q = dev_q.data();
      auto body = [&, base_r, base_q](std::int64_t begin, std::int64_t end) {
        for (std::int64_t item = begin; item < end; ++item) {
          if (item < std::int64_t(d)) {
            const auto k = std::size_t(item);
            precalc_dimension<Traits>(base_r + k * len_r, m, nr,
                                      mu_r.data() + k * nr,
                                      inv_r.data() + k * nr,
                                      df_r.data() + k * nr,
                                      dg_r.data() + k * nr);
          } else {
            const auto k = std::size_t(item) - d;
            precalc_dimension<Traits>(base_q + k * len_q, m, nq,
                                      mu_q.data() + k * nq,
                                      inv_q.data() + k * nq,
                                      df_q.data() + k * nq,
                                      dg_q.data() + k * nq);
          }
        }
      };
      gpusim::launch_grid_stride(device, "precalculation", config,
                                 std::int64_t(2 * d),
                                 precalc_stats_cost<Traits>(nr, nq, d, m),
                                 body, tl, cancel);
      if (pf.enabled()) {
        pf.template prepare<Traits>(host_r.data(), len_r, mu_r.data(),
                                    inv_r.data(), host_q.data(), len_q,
                                    mu_q.data(), inv_q.data());
      }

      // QT seeds: first row (all query columns) and first column (all
      // reference rows), computed as a blocked GEMM over each chunk's
      // contiguous output ranges (mp/gemm.hpp) — bit-identical to the
      // naive centered_dot loop it replaces for every chunk split, since
      // output columns are independent.  Items [0, nq) are seed-row
      // columns, items [nq, nq + nr) are seed-column rows.  Under the
      // prefilter each chunk also sketches the same segments (any split
      // writes the same sketch bytes).
      auto seeds = [&, base_r, base_q](std::int64_t begin, std::int64_t end) {
        for (std::size_t k = 0; k < d; ++k) {
          if (begin < std::int64_t(nq)) {
            const auto j0 = std::size_t(begin);
            const auto j1 = std::size_t(std::min(end, std::int64_t(nq)));
            gemm_sliding_dots<Traits>(base_r + k * len_r, mu_r[k * nr + 0],
                                      base_q + k * len_q,
                                      mu_q.data() + k * nq, m, j0, j1,
                                      /*slide_first=*/false,
                                      qt_row.data() + k * nq);
          }
          if (end > std::int64_t(nq)) {
            const auto i0 =
                std::size_t(std::max(begin, std::int64_t(nq))) - nq;
            const auto i1 = std::size_t(end) - nq;
            gemm_sliding_dots<Traits>(base_q + k * len_q, mu_q[k * nq + 0],
                                      base_r + k * len_r,
                                      mu_r.data() + k * nr, m, i0, i1,
                                      /*slide_first=*/true,
                                      qt_col.data() + k * nr);
          }
        }
        if (pf.enabled()) {
          if (begin < std::int64_t(nq)) {
            pf.sketch_cols(std::size_t(begin),
                           std::size_t(std::min(end, std::int64_t(nq))));
          }
          if (end > std::int64_t(nq)) {
            pf.sketch_rows(
                std::size_t(std::max(begin, std::int64_t(nq))) - nq,
                std::size_t(end) - nq);
          }
        }
      };
      gpusim::launch_grid_stride(device, "precalculation", config,
                                 std::int64_t(nr + nq),
                                 gemm_seed_cost<Traits>(nr, nq, d, m), seeds,
                                 tl, cancel);
      if (pf.enabled()) pf.finish_build();
    }

    // ---- Main iteration loop (Pseudocode 1, lines 3-7). ----
    ST* qt_prev = qt_a.data();
    ST* qt_next = qt_b.data();
    const auto dist_cost = dist_calc_cost<Traits>(nq, d);
    const auto sort_cost = sort_scan_cost<Traits>(nq, d);
    const auto upd_cost = update_cost<Traits>(nq, d);

    // ---- Mid-tile durability (SliceProgress, opt-in). ----
    // Prefix restore: the journalled QT row after row start_row - 1 is
    // the whole recurrence state the tail rows need (see SliceProgress).
    const std::size_t start_row =
        slice != nullptr ? std::min(slice->start_row, nr) : 0;
    const std::size_t width = storage_bytes(Traits::kMode);
    if (start_row > 0) {
      MPSIM_CHECK(slice->start_qt.size() == nq * d * width,
                  "resuming at row " << start_row << " needs a "
                                     << nq * d * width
                                     << "-byte QT row, got "
                                     << slice->start_qt.size());
      std::vector<ST> host_qt(nq * d);
      detail::unpack_storage(slice->start_qt.data(), nq * d, width,
                             host_qt.data());
      gpusim::async_copy_h2d(device, host_qt.data(), qt_a,
                             host_qt.size(), tl, cancel);
    }
    // Direct reads of simulated device state: durability bookkeeping,
    // deliberately not modelled as D2H traffic.
    const auto read_qt = [&](std::vector<std::uint8_t>& out) {
      out.resize(nq * d * width);
      detail::pack_storage(qt_prev, nq * d, width, out.data());
    };
    // Snapshot emission: disabled when the staged inputs were corrupted
    // by fault injection (a poisoned prefix must never become durable).
    bool emit_slices = slice != nullptr && slice->on_slice &&
                       slice->slice_rows > 0 && corrupted == 0;
    std::size_t last_emitted = start_row;
    SliceSnapshot snap;
    const auto maybe_slice = [&](std::size_t rows_done) {
      if (!emit_slices || rows_done >= nr) return;
      if (rows_done - last_emitted < slice->slice_rows) return;
      last_emitted = rows_done;
      snap.rows_done = rows_done;
      snap.profile.resize(nq * d);
      snap.index.resize(nq * d);
      for (std::size_t e = 0; e < nq * d; ++e) {
        snap.profile[e] = double(profile[e]);
        snap.index[e] = index[e];
      }
      read_qt(snap.qt);
      slice->on_slice(snap);
    };
    // The final row's QT state, kept under the same rule as snapshots.
    const auto keep_final_qt = [&] {
      if (corrupted == 0) read_qt(result.qt);
    };
    // Single-dimensional fast path: sorting/scanning one value per column
    // is the identity, so the kernel is skipped entirely (the paper's
    // turbine case study is exactly this d = 1 setting; SCAMP has no such
    // kernel either).  update_mat_prof consumes the distance row directly.
    const bool skip_sort = d == 1;
    // Observability: which SIMD dispatch variant each stage runs with for
    // this attempt (additive mpsim-metrics-v2 counters).
    simd::note_tile_variants<Traits>(fused, skip_sort);

    if (fused) {
      // Fused row pipeline: one column-blocked host pass per tile row
      // performs all three kernels' work (see fused_row_body).  The three
      // logical kernels are still modeled, fault-injected and recorded
      // individually, in launch order, so ledgers, perf-model figures,
      // metrics counters and fault-injection schedules are identical to
      // the cooperative path's.
      const std::size_t lanes = next_pow2(d);
      if (!skip_sort) {
        // Same shared-memory feasibility contract as the cooperative
        // launch (values + scratch, p2 elements each per group).
        const std::size_t shared_bytes =
            2 * lanes * storage_bytes(Traits::kMode);
        gpusim::validate_group_shared_mem(device, "sort_&_incl_scan",
                                          std::int64_t(lanes), shared_bytes);
      }
      // The cooperative launch measures its device-wide barrier rounds
      // from the group bodies; the fused pass runs no simulated barriers,
      // so the sort's record carries the closed form instead — pinned
      // equal to the measured count by tests and mirrored in mp/model.cpp.
      auto sort_cost_fused = sort_cost;
      sort_cost_fused.barrier_rounds =
          sort_scan_barrier_rounds(d) *
          device.spec().wave_count(std::int64_t(nq) * std::int64_t(lanes));
      // Apportion each row's measured wall clock onto the three records
      // proportionally to their modeled times.
      const auto modeled = [&](gpusim::KernelCost c) {
        c.occupancy = config.occupancy(device.spec());
        return gpusim::modeled_seconds(device.spec(), c);
      };
      const double md = modeled(dist_cost);
      const double ms = skip_sort ? 0.0 : modeled(sort_cost_fused);
      const double mu = modeled(upd_cost);
      const double msum = std::max(md + ms + mu, 1e-300);

      // Per-row fault/cancel/accounting prologue and epilogue, run once
      // per row of each batch so fault-injection schedules, cancellation
      // poll counts and ledger records keep the per-row cadence regardless
      // of batching.
      const auto row_prologue = [&] {
        if (cancel != nullptr) cancel->poll("fused row");
        device.fault_point(gpusim::FaultSite::kKernelLaunch, "dist_calc",
                           cancel);
        if (!skip_sort) {
          device.fault_point(gpusim::FaultSite::kKernelLaunch,
                             "sort_&_incl_scan", cancel);
        }
        device.fault_point(gpusim::FaultSite::kKernelLaunch,
                           "update_mat_prof", cancel);
      };
      const auto row_records = [&](double measured) {
        gpusim::record_fused_launch(device, "dist_calc", config, dist_cost,
                                    tl, measured * md / msum);
        if (!skip_sort) {
          gpusim::record_fused_launch(device, "sort_&_incl_scan", config,
                                      sort_cost_fused, tl,
                                      measured * ms / msum);
        }
        gpusim::record_fused_launch(device, "update_mat_prof", config,
                                    upd_cost, tl, measured * mu / msum);
      };
      const bool prefiltered = pf.enabled();
      if (prefiltered) emit_slices = false;
      // Temporal-blocked rows (see kernels.hpp, fused_rows_blocked): one
      // dispatch per batch of bt rows; each column chunk runs the whole
      // batch, recomputing its QT halo instead of synchronising.  A batch
      // ends at the next slice boundary, so snapshots land on the same
      // rows as a per-row loop's.  Under the prefilter a batch also ends
      // at the next score-batch end: the decisions, scored against the
      // profile as of the score batch's first row, hold for all its rows,
      // and misses are sampled once its last row has run.
      //
      // The dispatch that ends a score batch also scores the next one:
      // chunks own whole column groups (chunk_cols is rounded up to the
      // group width), so after its rows each chunk reads its own columns'
      // final profile entries and flags its own groups; the calling thread
      // commits the flags in scan order once the dispatch has finished.
      RowBlockShape shape = row_block_shape(nq, device.pool().worker_count());
      const std::size_t sb = pf.batch_rows();
      const PrefilterDecision* groups = prefiltered ? pf.decisions() : nullptr;
      if (prefiltered) {
        constexpr std::size_t G = kPrefilterColGroup;
        shape.chunk_cols = (shape.chunk_cols + G - 1) / G * G;
        // The first score batch sees the all-infinite initial profile, so
        // nothing in it is skippable; it is scored serially.
        if (start_row < nr && start_row % sb == 0) {
          pf.template score_batch<Traits>(profile.data(), start_row,
                                          std::min(sb, nr - start_row));
        }
      }
      for (std::size_t i0 = start_row; i0 < nr;) {
        std::size_t bt = std::min(shape.rows, nr - i0);
        if (prefiltered) bt = std::min(bt, sb - i0 % sb);
        if (emit_slices) {
          bt = std::min(bt, last_emitted + slice->slice_rows - i0);
        }
        // The whole batch's per-row fault points fire first, in the exact
        // per-row order; a triggered fault unwinds the attempt before any
        // batched work ran (the scheduler discards the attempt's partial
        // state either way).
        for (std::size_t r = 0; r < bt; ++r) row_prologue();
        const std::size_t i1 = i0 + bt;
        const bool score_next = prefiltered && i1 % sb == 0 && i1 < nr;
        if (score_next) pf.set_row_box(i1, std::min(sb, nr - i1));
        Stopwatch watch;
        device.pool().parallel_for_grained(
            nq, shape.chunk_cols,
            [&, i0, bt, qt_prev, qt_next, score_next](std::size_t c0,
                                                      std::size_t c1) {
              fused_rows_blocked<Traits>(
                  std::int64_t(c0), std::int64_t(c1), bt, i0, nq, m, d,
                  qt_row.data(), qt_col.data(), nr, df_r.data(), dg_r.data(),
                  inv_r.data(), df_q.data(), dg_q.data(), inv_q.data(),
                  qt_prev, qt_next, std::int64_t(tile.r_begin),
                  std::int64_t(tile.q_begin), exclusion, profile.data(),
                  index.data(), groups);
              if (score_next) {
                pf.template flag_cols<Traits>(profile.data(), c0, c1);
              }
              // Progress inside the batch (its polls all ran up front).
              if (cancel != nullptr) cancel->note_progress();
            });
        const double per_row = watch.seconds() / double(bt);
        for (std::size_t r = 0; r < bt; ++r) row_records(per_row);
        std::swap(qt_prev, qt_next);
        i0 = i1;
        if (prefiltered && (i0 % sb == 0 || i0 == nr)) {
          const std::size_t b0 = (i0 - 1) / sb * sb;
          pf.note_batch_end(index.data(), std::int64_t(tile.r_begin + b0),
                            std::int64_t(tile.r_begin + i0 - 1));
          if (score_next) pf.commit_verdicts();
        }
        maybe_slice(i0);
      }

      result.prefilter = pf.stats();
      keep_final_qt();
      finish_tile(device, nq, d, profile, index, result, tl, cancel);
      return;
    }

    for (std::size_t i = start_row; i < nr; ++i) {
      if (cancel != nullptr) cancel->poll("row loop");
      gpusim::launch_grid_stride(
          device, "dist_calc", config, std::int64_t(nq * d),
          dist_cost,
          [&, i, qt_prev, qt_next](std::int64_t begin, std::int64_t end) {
            dist_calc_body<Traits>(begin, end, i, nq, m, qt_row.data(),
                                   qt_col.data(), nr, df_r.data(),
                                   dg_r.data(), inv_r.data(), df_q.data(),
                                   dg_q.data(), inv_q.data(), qt_prev,
                                   qt_next, dist_row.data());
          },
          tl, cancel);

      if (!skip_sort) {
        // Each group keeps its padded value and scratch buffers in
        // shared memory (values + scratch, p2 elements each).
        const std::size_t shared_bytes =
            2 * next_pow2(d) * storage_bytes(Traits::kMode);
        gpusim::launch_cooperative(
            device, "sort_&_incl_scan", config, std::int64_t(nq),
            std::int64_t(next_pow2(d)), sort_cost,
            [&](gpusim::GroupContext& group) {
              sort_scan_group_body<Traits>(group, nq, d, dist_row.data(),
                                           scan_row.data());
            },
            tl, shared_bytes, cancel);
      }

      const ST* scanned = skip_sort ? dist_row.data() : scan_row.data();
      gpusim::launch_grid_stride(
          device, "update_mat_prof", config, std::int64_t(nq * d),
          upd_cost,
          [&, i, scanned](std::int64_t begin, std::int64_t end) {
            update_body<Traits>(begin, end, nq,
                                std::int64_t(tile.r_begin + i),
                                std::int64_t(tile.q_begin), exclusion,
                                scanned, profile.data(), index.data());
          },
          tl, cancel);

      std::swap(qt_prev, qt_next);
      maybe_slice(i + 1);
    }

    keep_final_qt();
    finish_tile(device, nq, d, profile, index, result, tl, cancel);
  }

 private:
  /// D2H of the tile profile/index (Pseudocode 1, line 8) + the binary64
  /// widening of the host-side result.  Shared epilogue of both row paths.
  static void finish_tile(gpusim::Device& device, std::size_t nq,
                          std::size_t d,
                          const gpusim::DeviceBuffer<ST>& profile,
                          const gpusim::DeviceBuffer<std::int64_t>& index,
                          TileResult& result, gpusim::KernelLedger* tl,
                          const gpusim::CancellationToken* cancel) {
    std::vector<ST> host_profile(nq * d);
    result.index.assign(nq * d, -1);
    gpusim::async_copy_d2h(device, profile, host_profile.data(),
                           host_profile.size(), tl, cancel);
    gpusim::async_copy_d2h(device, index, result.index.data(),
                           result.index.size(), tl, cancel);
    result.profile.resize(nq * d);
    for (std::size_t e = 0; e < nq * d; ++e) {
      result.profile[e] = double(host_profile[e]);
    }
  }
};

}  // namespace mpsim::mp
