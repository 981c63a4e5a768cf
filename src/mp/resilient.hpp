// Resilient shard scheduler — the fault-tolerant execution layer of the
// paper's Pseudocode 2 below the coordinator (mp/coordinator.cpp).
//
// Every run is a coordinator run over config.nodes simulated nodes (one
// by default); each node executes its share of the tile grid as one
// *shard* of this scheduler over its own device fleet.  Tiles are spread
// over the node's devices with config.assignment (static Round-robin or
// LPT, preserving the paper's scaling behaviour and modelled makespan),
// and execution is supervised per tile:
//
//  * per-tile failure isolation — each tile runs as one stream task and is
//    synchronized individually, so the stream's error capture attributes
//    every failure to the tile that raised it;
//  * bounded retry with exponential backoff for transient faults
//    (TransientFaultError, DeviceMemoryError, ...);
//  * device blacklisting after K consecutive failed tiles, with
//    work-stealing reassignment of the blacklisted device's orphaned
//    tiles to healthy devices (the run completes on N-1 devices);
//  * graceful degradation — a tile no device can finish is deferred; the
//    coordinator finishes it on the CPU reference path (bit-identical in
//    FP64) unless another node picks it up first;
//  * numerical self-healing — a completed tile whose profile has too many
//    non-finite entries is re-run one precision rung up
//    (FP16 → Mixed → FP32 → FP64), per-tile, recording the escalation;
//  * a hung-tile watchdog with speculative backups, memory-pressure row
//    splits and row-slice journalling (see ResilienceConfig and
//    CheckpointConfig).
//
// The coordinator owns the global tile grid and per-tile commit state
// and talks to the shard only through ShardHooks (dispatch gate,
// first-commit-wins arbitration, cross-node stealing, node faults).
// Invariant (tested): output bits do not depend on where, how often or on
// how many nodes a tile was (re)computed — an FP64 run under injected
// faults and device loss is bit-identical to the fault-free run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
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
  std::vector<RunEvent> events;       ///< prior run's event history
  std::vector<RunEvent> log;          ///< restore-time events to append
  std::size_t resumed = 0;            ///< tiles restored whole
  std::size_t partial = 0;            ///< tiles seeded from a row prefix
  std::size_t discarded = 0;          ///< slices unusable on this grid
  std::size_t fallbacks = 0;          ///< journals rejected (missing/...)
};

/// Reads `resume_path` plus any per-node side journals
/// (`resume_path + ".node<k>"`) and re-keys their slices onto `tiles`.
/// Unreadable journals never take the run down: each missing / corrupt /
/// fingerprint-mismatched file is reported as a kResumeFallback entry in
/// RestoredState::log (a missing base journal is only reported when no
/// journal at all was readable — per-node files are optional by design).
RestoredState restore_from_journals(const std::string& resume_path,
                                    std::uint64_t fingerprint,
                                    const std::vector<Tile>& tiles,
                                    std::size_t dims,
                                    const MatrixProfileConfig& config);

/// The run's chronological event history, shared by the coordinator and
/// every shard.  Its mutex is a leaf: nothing is called while it is held.
class EventLog {
 public:
  void add(RunEvent event);
  std::vector<RunEvent> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<RunEvent> events_;
};

/// What every shard of one run shares (owned by the coordinator).
struct ShardRun {
  const TimeSeries* reference = nullptr;
  const TimeSeries* query = nullptr;
  const MatrixProfileConfig* config = nullptr;
  const std::vector<Tile>* tiles = nullptr;  ///< the global grid
  /// Per-tile restored row-slice prefixes (r_count == 0 = none).
  const std::vector<CheckpointSlice>* prefixes = nullptr;
  StagingCache* staging = nullptr;  ///< reduced-precision conversions
  EventLog* events = nullptr;
  std::uint64_t fingerprint = 0;    ///< checkpoint identity of the run
};

/// The journal of one run state: every committed tile of `done` as a
/// complete slice tagged with its executing node (-1 in a one-node run or
/// for the CPU), plus the row-slice snapshot in `partials` (r_count == 0
/// = none) of every uncommitted tile.  `node` >= 0 keeps only the
/// committed tiles executed on that node (a side journal).  The caller
/// adds the events.
CheckpointData journal_data(const ShardRun& run,
                            const CommittedTiles& done,
                            const std::vector<CheckpointSlice>& partials,
                            int node = -1);

/// Writes `data` to `path` and records it: the resilient.checkpoint_writes
/// counter and a kCheckpointWritten event in `log`.
void write_journal(const std::string& path, const CheckpointData& data,
                   EventLog& log);

/// Callbacks of the coordinator a shard scheduler runs under.  Every hook
/// except on_tile_start is invoked with the shard's scheduler mutex held,
/// so a hook may take the coordinator's lock (the lock order is always
/// shard → coordinator → event log) but must never call back into the
/// shard.  on_tile_start runs unlocked (it may stall for a long time)
/// after the attempt registered its cancellation token.
struct ShardHooks {
  /// Final gate before a popped tile executes: false when the tile was
  /// committed elsewhere (or this node's claim was revoked) while queued.
  std::function<bool(std::size_t tile)> should_run;

  /// First-commit-wins arbitration.  The winner's hook takes `result`
  /// into the coordinator's global arrays and returns true; false means
  /// another node got there first (the shard drops the result).
  /// `device` is the executing device's *global* index.  `kill` is set
  /// when this is the run's checkpoint.kill_after_tiles-th commit: the
  /// shard journals it, then requests the shutdown.
  std::function<bool(std::size_t tile, TileResult& result, int device,
                     PrecisionMode mode, bool& kill)>
      on_commit;

  /// No device of the shard can finish `tile` (every healthy one spent
  /// its retry budget on it): it leaves the device schedule, for another
  /// node or the coordinator's CPU fallback.
  std::function<void(std::size_t tile)> on_deferred;

  /// Liveness sweep: true when `tile` is already committed globally
  /// (restored from a journal, or won by any node), so in-flight local
  /// attempts of it should be cancelled.
  std::function<bool(std::size_t tile)> committed_elsewhere;

  /// The shard's periodic journal: journal_data over the coordinator's
  /// committed tiles (a side journal keeps this node's) and `partials`.
  std::function<CheckpointData(const std::vector<CheckpointSlice>& partials)>
      journal;

  /// Work stealing: asks the coordinator for one more tile (released by
  /// a crashed node, duplicated from a straggler, or stolen from a
  /// loaded peer).  nullopt = nothing to hand out right now.
  std::function<std::optional<std::size_t>()> acquire_more;

  /// Global completion: no tile needs device work any more; idle workers
  /// exit.
  std::function<bool()> all_done;

  /// Node-level fault hook, fired once per popped tile before its first
  /// attempt.  May stall in a cancellable sleep (node_stall/node_slow)
  /// or throw NodeFailedError (node_crash), which takes the whole shard
  /// down without flushing its journal.
  std::function<void(std::size_t tile, const gpusim::CancellationToken*)>
      on_tile_start;
};

/// What one node's shard run reports back to the coordinator.
struct ShardOutcome {
  bool interrupted = false;  ///< global shutdown observed mid-run
  bool crashed = false;      ///< NodeFailedError took the node down
  std::string crash_reason;
  RunHealth health;          ///< this shard's counters (events: EventLog)
  /// Furthest row-slice snapshot per tile (r_count == 0 = none); empty
  /// for a crashed shard, whose in-memory state dies with it.
  std::vector<CheckpointSlice> partials;
};

/// Runs node `node`'s shard over `system`'s devices: the full resilient
/// scheduler seeded with `share` (the node's tiles in grid order, spread
/// over its devices by config.assignment; tiles already committed are
/// skipped) and coordinated through `hooks`.  Device indices are global
/// (node * config.devices + local).  Every checkpoint.interval_tiles
/// commits it journals what hooks.journal returns — to write_path in a
/// one-node run, to `write_path + ".node<k>"` otherwise; the coordinator
/// writes the run's journal at interruption and completion.  Never
/// throws InterruptedError; shutdown and node crashes are reported in
/// the outcome.
ShardOutcome run_resilient_shard(gpusim::System& system, const ShardRun& run,
                                 int node,
                                 const std::vector<std::size_t>& share,
                                 const ShardHooks& hooks);

/// Assembles committed per-tile results into the final profile: the CPU
/// column merge (Pseudocode 2, lines 6-8), the modelled makespan grouped
/// by executing device (global indices; -1 = CPU fallback, no device
/// time), the per-kernel breakdown (+ registry gauges) and the
/// aggregated prefilter accounting.  health/wall_seconds are left for
/// the caller.
MatrixProfileResult assemble_tile_results(
    const std::vector<Tile>& tiles, std::vector<TileResult>& results,
    const std::vector<int>& executed_device, std::size_t n_q, std::size_t d,
    int streams_per_device);

/// Computes one tile on the CPU reference path (bit-identical to the FP64
/// GPU engine) — the coordinator's last resort for tiles no node could
/// finish.
void compute_tile_on_cpu(const TimeSeries& reference, const TimeSeries& query,
                         std::size_t window, const Tile& tile,
                         std::int64_t exclusion, TileResult& result);

}  // namespace mpsim::mp
