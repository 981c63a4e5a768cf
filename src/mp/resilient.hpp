// The parts of the resilient execution layer that hold no scheduler
// state: tile attempts and memory-pressure splits, journal restore and
// compaction, the CPU reference fallback, the final assembly of per-tile
// results and the RunEvent / RunHealth rendering.  Every scheduling
// decision lives in mp::SchedulerCore (mp/scheduler.hpp); the driver that
// applies them is mp::compute_matrix_profile (mp/coordinator.cpp).
//
// Invariant (tested): output bits do not depend on where, how often or on
// how many nodes a tile was (re)computed — an FP64 run under injected
// faults and device loss is bit-identical to the fault-free run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "mp/checkpoint.hpp"
#include "mp/options.hpp"
#include "mp/single_tile.hpp"
#include "mp/tile_plan.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::gpusim {
class CancellationToken;
}

namespace mpsim::mp {

class StagingCache;

/// Final per-tile results: what assemble_tile_results merges and a
/// journal records as complete slices.
struct CommittedTiles {
  std::vector<char> committed;        ///< per tile: results[t] is final
  std::vector<TileResult> results;
  std::vector<int> executed_device;   ///< global index (-1 = CPU)
  std::vector<PrecisionMode> final_mode;

  /// `tiles` empty slots at precision `mode`.
  void reset(std::size_t tiles, PrecisionMode mode);

  /// Marks tile `t` final, taking `result`'s vectors (its ledger is
  /// merged, its prefilter tallies copied).
  void commit(std::size_t t, TileResult& result, int device,
              PrecisionMode mode);
};

/// Journal state restored against the *current* tile grid.  Journals key
/// slices by absolute row/column ranges, so a journal written under a
/// different grid (or node count) re-keys here: slices that exactly cover
/// a current tile restore it whole (CommittedTiles); row-prefix slices
/// with a QT row seed a partial restore (the tail rows continue the
/// recurrence from that row); everything else — including a prefix with
/// no QT row, or one at another precision — is discarded with a
/// kSliceDiscarded record and its tile recomputed from row 0.
struct RestoredState : CommittedTiles {
  std::vector<CheckpointSlice> prefixes;  ///< per tile; r_count==0 = none
  /// The prior run's event history (the base journal's), then the
  /// restore-time events.
  std::vector<RunEvent> events;
  std::size_t base_events = 0;        ///< history entries of `events`
  /// Valid prefix in bytes of every journal file read whose header and
  /// fingerprint matched: a run journalling to one of them continues it
  /// from there.
  std::map<std::string, std::uint64_t> journal_prefixes;
  std::size_t resumed = 0;            ///< tiles restored whole
  std::size_t partial = 0;            ///< tiles seeded from a row prefix
  std::size_t discarded = 0;          ///< unusable slices and bad tails
  std::size_t fallbacks = 0;          ///< journals rejected (missing/...)
};

/// `path` for node -1 (the base journal), else the segment of node
/// `node`: `path + ".node<node>"`.
std::string journal_segment_path(const std::string& path, int node);

/// Streams `resume_path` plus any per-node segments
/// (`resume_path + ".node<k>"`) record by record and re-keys their slices
/// onto `tiles`, keeping only the first complete slice and the furthest
/// row prefix of each tile.  Unreadable journals never take the run down:
/// each missing / bad-header / fingerprint-mismatched file is reported as
/// a kResumeFallback entry in RestoredState::events (a missing base
/// journal is only reported when no journal at all was readable — node
/// segments are optional by design), and a bad record ends its file's
/// log with a kSliceDiscarded entry (tile -1) naming the byte offset,
/// the records before it still restored.
RestoredState restore_from_journals(const std::string& resume_path,
                                    std::uint64_t fingerprint,
                                    const std::vector<Tile>& tiles,
                                    std::size_t dims,
                                    const MatrixProfileConfig& config);

/// The read-only inputs of one run, shared by every attempt and journal.
struct RunInputs {
  const TimeSeries* reference = nullptr;
  const TimeSeries* query = nullptr;
  const MatrixProfileConfig* config = nullptr;
  const std::vector<Tile>* tiles = nullptr;  ///< the global grid
  StagingCache* staging = nullptr;  ///< reduced-precision conversions
  std::uint64_t fingerprint = 0;    ///< checkpoint identity of the run
};

/// Buffers committed tile `t` of `done` in `journal` as a complete slice
/// record, tagged with its executing node (-1 in a one-node run or for
/// the CPU).
void add_committed_slice(JournalWriter& journal, const RunInputs& run,
                         const CommittedTiles& done, std::size_t t);

/// Compaction: writes every committed tile of `done` and `events` as one
/// complete journal to the run's checkpoint path (temp file, sync,
/// rename), unlinks the path's node segments and returns the
/// kCheckpointWritten event that records it.
RunEvent compact_journal(const RunInputs& run, const CommittedTiles& done,
                         const std::vector<RunEvent>& events);

/// Executes one attempt of `tile` at `mode` on `device`, on the calling
/// thread, so any failure propagates to the caller.  Under memory
/// pressure (DeviceMemoryError) the tile is split along the row axis with
/// the planner's split_range boundaries (first half takes the extra row)
/// and the halves run sequentially, each from its own precalculation,
/// recursing until the pieces fit or kMaxTileSplits is spent (then the
/// error propagates like any other fault).  `on_split(detail)` is called
/// before each split's halves run.
void execute_with_split(
    const RunInputs& run, gpusim::Device& device, PrecisionMode mode,
    const Tile& tile, TileResult& result,
    const gpusim::CancellationToken* cancel, const SliceProgress* slice,
    const std::function<void(const std::string&)>& on_split, int depth = 0);

/// Assembles committed per-tile results into the final profile: the CPU
/// column merge (Pseudocode 2, lines 6-8) on `workers` host threads
/// (0 = all cores), the per-kernel breakdown of the committed attempts
/// (+ registry gauges) and the aggregated prefilter accounting.  The
/// modelled seconds, health and wall_seconds are left for the caller.
MatrixProfileResult assemble_tile_results(const std::vector<Tile>& tiles,
                                          std::vector<TileResult>& results,
                                          std::size_t n_q, std::size_t d,
                                          std::size_t workers);

/// Computes one tile on the CPU reference path (bit-identical to the FP64
/// GPU engine) — the coordinator's last resort for tiles no node could
/// finish.
void compute_tile_on_cpu(const TimeSeries& reference, const TimeSeries& query,
                         std::size_t window, const Tile& tile,
                         std::int64_t exclusion, TileResult& result);

}  // namespace mpsim::mp
