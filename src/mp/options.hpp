// Public configuration and result types of the matrix-profile library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "precision/modes.hpp"

namespace mpsim::gpusim {
class FaultInjector;
}

namespace mpsim::mp {

class StagingCache;

/// Tile-to-device assignment policy.  The paper uses static Round-robin
/// (Pseudocode 2); LPT (longest processing time first) mitigates the
/// imbalance it observes at odd device counts.
enum class TileAssignment { kRoundRobin, kLpt };

/// Execution path of the single-tile engine's per-row pipeline.
///
///  * kCooperative — three separate kernels per tile row (dist_calc,
///    cooperative sort_&_incl_scan, update_mat_prof), distance and scan
///    rows round-tripping through device buffers.  The literal Pseudocode
///    1 structure.
///  * kAuto — the fused path whenever the dimensionality supports it (the
///    default): one column-blocked pass per row computing distances, the
///    small-d Bitonic network + scan-average, and the profile merge while
///    the block is register/cache resident.  Bit-identical outputs; the
///    three logical kernels are still modeled and recorded individually.
enum class RowPath { kAuto, kCooperative };

inline std::string to_string(RowPath path) {
  switch (path) {
    case RowPath::kAuto: return "auto";
    case RowPath::kCooperative: return "cooperative";
  }
  return "auto";
}

inline RowPath parse_row_path(const std::string& name) {
  if (name == "auto") return RowPath::kAuto;
  if (name == "cooperative") return RowPath::kCooperative;
  throw ConfigError("unknown row path '" + name +
                    "' (expected auto|cooperative)");
}

/// Candidate prefilter in front of the exact per-row pipeline.
///
///  * kOff — every column runs the exact dist/sort/merge pipeline (the
///    default; output bits match the golden checksums).
///  * kSketch — FP16 random-projection sketches score column blocks per
///    row; blocks whose correlation upper bound proves no profile update
///    is possible run a QT-only recurrence update instead of the full
///    pipeline.  A deterministic sample of skippable blocks is executed
///    exactly anyway ("verify" blocks) to measure the miss rate.
enum class PrefilterMode { kOff, kSketch };

inline std::string to_string(PrefilterMode mode) {
  switch (mode) {
    case PrefilterMode::kOff: return "off";
    case PrefilterMode::kSketch: return "sketch";
  }
  return "off";
}

inline PrefilterMode parse_prefilter_mode(const std::string& name) {
  if (name == "off") return PrefilterMode::kOff;
  if (name == "sketch") return PrefilterMode::kSketch;
  throw ConfigError("unknown prefilter '" + name +
                    "' (expected off|sketch)");
}

/// Knobs of the approximate sketch prefilter (see PrefilterMode::kSketch).
struct PrefilterConfig {
  PrefilterMode mode = PrefilterMode::kOff;

  /// Target miss-rate bound: the acceptable probability that a column
  /// inside a skipped block would have updated the profile.  Smaller
  /// budgets widen the sketch guard band (fewer skips, fewer misses).
  double budget = 0.01;

  bool enabled() const { return mode != PrefilterMode::kOff; }
};

/// Per-tile (and, aggregated, per-run) decision accounting of the sketch
/// prefilter.  Pure sums, so sub-tile merges and the run-level aggregate
/// are plain additions; all counts are exact mode-independent block/column
/// tallies, not samples — only `cols_missed` comes from the verify sample.
struct PrefilterStats {
  std::uint64_t blocks_total = 0;    ///< (row, block) decisions scored
  std::uint64_t blocks_skipped = 0;  ///< ran the QT-only recurrence
  std::uint64_t blocks_verified = 0; ///< skippable but executed exactly
  std::uint64_t cols_skipped = 0;    ///< columns inside skipped blocks
  std::uint64_t cols_verified = 0;   ///< columns inside verify blocks
  std::uint64_t cols_missed = 0;     ///< verify columns this row updated

  void merge_from(const PrefilterStats& other) {
    blocks_total += other.blocks_total;
    blocks_skipped += other.blocks_skipped;
    blocks_verified += other.blocks_verified;
    cols_skipped += other.cols_skipped;
    cols_verified += other.cols_verified;
    cols_missed += other.cols_missed;
  }

  bool any() const { return blocks_total != 0; }
};

// Fixed policy of the resilient multi-tile scheduler.

/// Bounded retries of a tile on one device after transient faults
/// (TransientFaultError, DeviceMemoryError, ...).
constexpr int kMaxRetries = 3;
/// Base of the exponential retry backoff (doubles per retry).
constexpr double kRetryBackoffMs = 1.0;
/// A device with this many *consecutive* failed tiles (or calibrated
/// watchdog deadline overruns) is blacklisted; its queued jobs become
/// orphans that healthy devices take over.
constexpr int kBlacklistAfter = 3;
/// Fraction of non-finite profile entries above which a completed tile
/// escalates one precision rung (see ResilienceConfig::escalate_precision).
constexpr double kNonFiniteThreshold = 0.01;
/// Floor of every calibrated watchdog deadline.
constexpr double kWatchdogMinDeadlineMs = 100.0;
/// Watchdog slack: a calibrated deadline is this many times an attempt's
/// expected wall time; before calibration an attempt is overdue after
/// kWatchdogSlack × kWatchdogMinDeadlineMs (800 ms) without progress,
/// doubled per earlier uncalibrated fire on its job (kMaxRetries at most).
constexpr double kWatchdogSlack = 8.0;
/// Poll period of the run's monitor thread (shutdown and watchdog).
constexpr double kWatchdogPollMs = 10.0;
/// Memory-pressure degradation: a tile whose working set exceeds the
/// device's capacity is split along the row axis (each half restarts from
/// its own precalculation) up to this many times before the allocation
/// failure is treated like any other fault.
constexpr int kMaxTileSplits = 8;

/// Fault-tolerance knobs of the resilient multi-tile scheduler.  Tiles no
/// device can finish always complete on the CPU reference path.
struct ResilienceConfig {
  /// Numerical self-healing: after a tile completes, re-run it one
  /// precision rung up (FP16 → Mixed → FP32 → FP64) when the fraction of
  /// non-finite profile entries exceeds kNonFiniteThreshold.  Off by
  /// default so reduced-precision results match the paper's unguarded
  /// modes; enable via the CLI's --escalate-precision.
  bool escalate_precision = false;

  /// Hung-tile watchdog (docs/DESIGN.md, "Watchdog calibration"): an
  /// overdue attempt gets a speculative backup on another healthy
  /// device, or is cancelled and retried.  Off by default: without
  /// injected hangs it only adds work to the monitor, but it stays opt-in
  /// like the rest of the fault-tolerance surface.
  bool watchdog = false;

  /// React to a process-wide shutdown request (common/shutdown) by
  /// cancelling in-flight attempts, flushing the checkpoint and unwinding
  /// with InterruptedError — the right behaviour for a one-shot CLI run.
  /// The serve daemon sets this false: a drain must let admitted queries
  /// run to completion, the daemon itself stops accepting new work.
  bool honor_shutdown = true;
};

/// Durable checkpoint/resume of the resilient scheduler.  The journal
/// (format `mpsim-ckpt-v5`, see mp/checkpoint.hpp) is an append-only log
/// per node: every `interval_tiles` commits of a node append their merged
/// profile slices as records — and, with `slice_rows > 0`, each mid-tile
/// row-slice snapshot appends one record at once — with one fdatasync
/// per append.  A shutdown appends what is still pending plus the
/// RunEvent history; a finished run compacts into one complete journal
/// (temp + rename).
struct CheckpointConfig {
  std::string write_path;   ///< journal destination ("" = checkpointing off)
  std::string resume_path;  ///< journal to restore from ("" = fresh run)
  int interval_tiles = 4;   ///< K — commit cadence of the journal

  /// Chaos hook: request a shutdown after this many tile commits, exactly
  /// as SIGTERM would (0 = never).  Gives tests and the chaos soak a
  /// deterministic mid-run kill.
  int kill_after_tiles = 0;

  /// Mid-tile durability: journal a partial row-slice snapshot of every
  /// in-flight tile each time this many rows complete (0 = whole-tile
  /// commits only).  Each snapshot carries the tile's QT row, so resume
  /// restores the recurrence state and runs only the remaining rows; a
  /// sliced resume is bit-identical to the uninterrupted run.
  int slice_rows = 0;

  /// Chaos hook: request a shutdown once any one node has journalled this
  /// many row-slice snapshots of its own (0 = never).  Unlike
  /// kill_after_tiles, which counts the commits of the whole run, this
  /// counts per node (in a one-node run: the run's snapshots).  Either
  /// kill stops every node at once when the run honours shutdowns.
  int kill_after_slices = 0;

  bool enabled() const { return !write_path.empty(); }
};

/// User-facing configuration of one matrix-profile computation
/// (the knobs of Pseudocode 1 + Pseudocode 2).
struct MatrixProfileConfig {
  std::size_t window = 64;     ///< m — segment (subsequence) length
  PrecisionMode mode = PrecisionMode::FP64;

  int tiles = 1;               ///< n_tiles of the multi-tile algorithm
  int devices = 1;             ///< n_gpu
  std::string machine = "A100";  ///< simulated device spec (V100|A100)
  TileAssignment assignment = TileAssignment::kRoundRobin;

  /// Trivial-match exclusion radius for self-joins (0 = AB-join, the
  /// paper's reference-vs-query setting).
  std::int64_t exclusion = 0;

  /// Host worker threads backing the simulated devices (0 = all cores),
  /// split evenly across the nodes.
  std::size_t workers = 0;

  /// Simulated nodes the tile grid is sharded across, each a fleet of
  /// `devices` devices; nodes × devices is at most 64 (each device runs
  /// a worker thread and a pool; resume probes 64 per-node side
  /// journals).  Output bits never depend on it.
  int nodes = 1;

  /// Cross-node stealing: an idle device takes the last job of the
  /// deepest queue on another live node.  Off still moves orphans — jobs
  /// of a crashed node or of a node with no healthy device left — and
  /// requeues failed jobs onto other nodes.
  bool steal = true;

  /// Fault spec of the node-level injector (gpusim::parse_fault_spec;
  /// node_crash / node_stall / node_slow, "@k" selects the *node*).
  /// Separate from fault_injector, which addresses devices by their
  /// global index across every node's fleet.
  std::string node_faults;

  /// Per-row execution path of the tile engine (see RowPath).  Outputs are
  /// bit-identical across paths; this is a performance/debugging knob.
  RowPath row_path = RowPath::kAuto;

  /// Approximate candidate prefilter (off by default; kSketch trades a
  /// bounded miss rate for skipped per-row work — see PrefilterConfig).
  /// Unlike row_path/simd this CAN change results, so it participates in
  /// the checkpoint/serve-cache fingerprint.
  PrefilterConfig prefilter;

  /// Fault-tolerance policy of the resilient scheduler.
  ResilienceConfig resilience;

  /// Durable checkpoint/resume policy (off unless write_path/resume_path
  /// are set).
  CheckpointConfig checkpoint;

  /// Overrides every device's memory capacity in bytes (0 = the machine
  /// spec's capacity).  Exists to exercise memory-pressure tile splitting
  /// at test scale.
  std::size_t device_memory_bytes = 0;

  /// Optional fault injector (not owned; must outlive the computation).
  /// Attached to every device of every node's fleet.
  gpusim::FaultInjector* fault_injector = nullptr;

  /// Optional cross-run staging cache (not owned; must outlive the
  /// computation and be bound to the *same* reference/query series passed
  /// to compute_matrix_profile).  When set, the resilient scheduler reuses
  /// its reduced-precision conversions instead of converting per run — the
  /// serve daemon shares one per input pair across queries.  Staged bytes
  /// are identical either way, so results do not change.
  StagingCache* staging_cache = nullptr;
};

/// One typed scheduler event of a resilient run (what used to be a free-
/// form log string).  Machine-readable — the CLI's metrics/trace outputs
/// and tests consume the fields; to_string() renders the human line.
struct RunEvent {
  enum class Kind {
    kRetry,             ///< transient failure, retrying on the same device
    kRetriesExhausted,  ///< retry budget spent on one device
    kReassigned,        ///< tile moved to another device's queue
    kStolen,            ///< tile work-stolen from a blacklisted device
    kBlacklisted,       ///< device removed from scheduling
    kDeferredToCpu,     ///< no healthy device left for this tile
    kCpuFallback,       ///< tile completed on the CPU reference path
    kEscalated,         ///< tile re-run one precision rung up
    kWatchdogFired,     ///< in-flight attempt exceeded its deadline
    kSpeculated,        ///< backup attempt launched on another device
    kSpeculationWon,    ///< backup finished first; primary cancelled
    kSpeculationLost,   ///< backup cancelled; primary finished first
    kTileSplit,         ///< tile split into row sub-tiles (memory pressure)
    kResumed,           ///< tile restored from a checkpoint journal
    kCheckpointWritten, ///< journal records appended or compacted
    kInterrupted,       ///< shutdown requested; run stopped early
    // v3 additions — appended so the int32 wire encoding of the kinds
    // above stays frozen.
    kResumeFallback,    ///< --resume journal unusable; fresh run instead
    kSliceRestored,     ///< tile seeded from a journalled row-slice prefix
    kSliceDiscarded,    ///< journalled slice unusable on the current grid,
                        ///< or (tile -1) a journal's bad tail record
    kNodeJoined,        ///< node's device fleet came up (device = node)
    kNodeCrashed,       ///< node lost to an injected crash (device = node)
    kNodeStolen,        ///< tile stolen across nodes (device = thief node)
  };

  Kind kind = Kind::kRetry;
  int tile_id = -1;    ///< -1 when the event is device- not tile-scoped
  int device = -1;     ///< global device id (as in RunHealth::devices),
                       ///< or the node for kNode*; -1 = none / CPU
  std::string detail;  ///< error text, retry budget, modes, ...

  /// The chronological-log line this event renders as.
  std::string to_string() const;
};

/// Health report of one resilient run: every injected fault, retry,
/// blacklist event and precision escalation, plus per-device status.
struct RunHealth {
  struct DeviceStatus {
    int device = 0;
    int tiles_completed = 0;   ///< tiles whose final result this device ran
    int faults = 0;            ///< failed tile attempts observed here
    bool blacklisted = false;  ///< removed from scheduling mid-run
    bool offline = false;      ///< permanent injected device loss
  };
  struct Escalation {
    int tile_id = 0;
    PrecisionMode from = PrecisionMode::FP64;
    PrecisionMode to = PrecisionMode::FP64;
    double non_finite_fraction = 0.0;  ///< what triggered the escalation
  };

  int faults_injected = 0;     ///< events recorded by the FaultInjector
  int retries = 0;             ///< tile attempts repeated after a fault
  int reassigned_tiles = 0;    ///< tiles moved off their assigned device
  int blacklist_events = 0;    ///< devices removed mid-run
  int cpu_fallback_tiles = 0;  ///< tiles completed on the CPU reference
  int resumed_tiles = 0;       ///< tiles restored from a checkpoint journal
  int checkpoint_writes = 0;   ///< journal flushes this run
  int watchdog_fires = 0;      ///< attempts that exceeded their deadline
  int speculative_wins = 0;    ///< tiles won by a backup attempt
  int speculative_losses = 0;  ///< backups cancelled by the primary
  int tile_splits = 0;         ///< memory-pressure row splits
  int resume_fallbacks = 0;    ///< --resume journals rejected (missing/...)
  int partial_slices = 0;      ///< tiles seeded from a row-slice prefix
  int slices_discarded = 0;    ///< journalled slices unusable on this grid
  int slice_commits = 0;       ///< mid-tile row-slice snapshots journalled
  int node_crashes = 0;        ///< simulated nodes lost mid-run
  int node_steals = 0;         ///< jobs stolen across nodes
  int attempts = 0;            ///< tile attempts started on devices
  int tiles_dispatched = 0;    ///< tiles some device started
  int commit_conflicts = 0;    ///< finishers that lost to another node
  std::vector<Escalation> escalations;
  std::vector<DeviceStatus> devices;
  std::vector<RunEvent> events;  ///< chronological typed scheduler events
  bool degraded = false;  ///< run survived faults / lost devices

  /// Multi-line human-readable report (what mpsim_cli prints).
  std::string summary() const;
};

struct KernelBreakdownEntry {
  std::string name;
  std::int64_t launches = 0;
  double modeled_seconds = 0.0;   ///< roofline model on the device spec
  double measured_seconds = 0.0;  ///< host wall time inside the simulator
};

/// Result of a matrix-profile computation.
///
/// profile/index are dimension-major: entry [k*segments + j] is the
/// (k+1)-dimensional matrix profile of query segment j — the smallest
/// progressive average over the k+1 best-matching dimensions (Eq. 2/3).
struct MatrixProfileResult {
  std::size_t segments = 0;  ///< number of query segments (n_q - m + 1)
  std::size_t dims = 0;      ///< d
  std::vector<double> profile;       ///< z-normalised Euclidean distances
  std::vector<std::int64_t> index;   ///< nearest-neighbour segment in ref

  double wall_seconds = 0.0;            ///< measured host execution time
  /// Roofline makespan across GPUs of the run's *plan* (mp::plan_tiles
  /// evaluated by mp::model_tiles): equal to mp::model_matrix_profile of
  /// the same shape, and independent of faults, retries, steals,
  /// speculation, resume and the CPU fallback.
  double modeled_device_seconds = 0.0;
  double modeled_merge_seconds = 0.0;   ///< planned CPU-side tile merge
  /// Per-kernel model and host time of the attempts that committed.
  std::vector<KernelBreakdownEntry> breakdown;

  RunHealth health;  ///< fault-tolerance report of the resilient scheduler

  /// Aggregated sketch-prefilter decision accounting (all zero when the
  /// prefilter is off or every tile ran the exact CPU reference).
  PrefilterStats prefilter;

  double modeled_total_seconds() const {
    return modeled_device_seconds + modeled_merge_seconds;
  }

  double at(std::size_t j, std::size_t k) const {
    return profile[k * segments + j];
  }
  std::int64_t index_at(std::size_t j, std::size_t k) const {
    return index[k * segments + j];
  }
};

}  // namespace mpsim::mp
