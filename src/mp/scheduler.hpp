// The scheduling policy of a run — Pseudocode 2's tile dealing and
// supervision plus its §VII multi-node extension — as one single-threaded
// state machine: placement (own queue, then orphans, then cross-node
// steals), retries with backoff, requeues, blacklisting, precision
// escalation, the watchdog and its speculative backups, first-wins
// commits, each node's partial row slices, journal and kill cadence, and
// the run's tally (RunHealth, events included).  It has no mutex, reads no clock, touches no metrics
// registry and does no file I/O: each transition takes an event (with the
// time as an argument where it matters) and returns a Decision.  The
// device workers and monitor of mp::compute_matrix_profile call it under
// one mutex and apply its decisions; tests/test_scheduler_sim.cpp drives
// it on a virtual clock.  The rules are spelled out in docs/DESIGN.md
// ("Scheduler core", "Watchdog calibration").
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/options.hpp"
#include "mp/resilient.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

/// A unit of schedulable work: one tile at its current precision rung.
struct TileJob {
  std::size_t index = 0;       ///< into the tile table
  PrecisionMode mode = PrecisionMode::FP64;
  int retries_here = 0;        ///< attempts burned on the current device
  bool speculative = false;    ///< watchdog-launched backup
  std::set<int> exhausted{};   ///< devices whose retry budget it spent
  int stalls = 0;              ///< uncalibrated watchdog fires on it
};

/// One in-flight attempt of a job on a device.
struct Attempt {
  std::uint64_t id = 0;
  TileJob job{};
  int device = -1;               ///< global device index
  double start = 0.0;            ///< run-clock time the attempt started
  double modeled_seconds = 0.0;  ///< perf-model estimate for the deadline
  std::uint64_t progress = 0;    ///< token progress last seen by tick()
  double progress_at = 0.0;      ///< when `progress` last moved (or start)
  bool fired = false;            ///< the watchdog already flagged it
};

/// How an attempt ended, as its device worker saw it.
struct Outcome {
  enum class Kind {
    kDone,        ///< finished; `non_finite` and `result` are set
    kCancelled,   ///< the scheduler withdrew it (CancelledError)
    kTransient,   ///< any retryable fault
    kDeviceLost,  ///< DeviceFailedError: the device is gone for good
    kNodeLost,    ///< NodeFailedError: the device's whole node is gone
  };
  Kind kind = Kind::kDone;
  double non_finite = 0.0;          ///< share of non-finite profile entries
  std::string error{};              ///< the failure's message
  TileResult* result = nullptr;     ///< taken by the tile table on commit
};

/// What a transition asks its caller to do.
struct Decision {
  enum class Kind {
    kNone,   ///< tick / slice / interrupt / crash: only the effects below
    kRun,    ///< claim: run `attempt`
    kWait,   ///< claim: no work yet; claim again after the next decision
    kClaim,  ///< finish: claim again (a held job first) after `backoff_ms`
    kExit,   ///< the device's worker is done for good
  };
  Kind kind = Kind::kNone;
  Attempt attempt{};  ///< kRun: the registered attempt
  /// kRun: the node fault planned on this tile for this node, injected
  /// before the engine runs, and its place in the node's deal.
  std::optional<gpusim::FaultRule> node_fault{};
  std::uint64_t fault_claim = 0;
  double backoff_ms = 0.0;             ///< kClaim: sleep before claiming
  std::vector<std::uint64_t> cancel{}; ///< attempts whose tokens to cancel
  std::vector<std::uint64_t> fired{};  ///< tick: attempts the watchdog flagged
  bool journal = false;  ///< the device's node journal is due
  bool kill = false;     ///< a chaos kill hook fired
};

class SchedulerCore {
 public:
  /// Node fault planned for node `k`'s n-th dealt tile (1-based).
  using NodeFaultPlan = std::function<std::optional<gpusim::FaultRule>(
      int node, std::uint64_t claim)>;

  /// Queues the tiles `restored` did not commit where they were dealt
  /// (Tile::device) and plans node faults over each node's deal in grid
  /// order; `plan` may be empty.
  SchedulerCore(const MatrixProfileConfig& config,
                const std::vector<Tile>& tiles, std::size_t dims,
                RestoredState restored, const NodeFaultPlan& plan);

  /// Device `g` is idle (or between attempts of its held job) at `now`:
  /// kRun, kWait or kExit.
  Decision claim(int g, double now);
  /// Attempt `id` ended with `outcome` at `now`: kClaim or kExit, plus
  /// cancels, a due journal and a due kill.
  Decision finish(std::uint64_t id, Outcome outcome, double now);
  /// Device `g`'s attempt of tile `t` took snapshot `snap` (rows from 0):
  /// keep it as the node's partial slice (vectors swapped into the slot,
  /// so the engine refills the old buffers), journal, fire the kill hook.
  Decision slice(std::size_t t, int g, SliceSnapshot& snap);
  /// Runs the watchdog at `now`; `progress[g]` counts device g's token
  /// polls and progress notes in its current attempt.
  Decision tick(double now, const std::vector<std::uint64_t>& progress);
  /// A shutdown: the run unwinds and every attempt is cancelled.
  Decision interrupt();
  /// The driver caught an error no retry can clear (a journal write
  /// failed): every attempt is cancelled, nothing more is claimed,
  /// committed or journalled, and every worker exits.
  Decision fail();
  /// Node `k` is gone: its attempts are cancelled (they requeue as they
  /// unwind), its slices die and its queued jobs become orphans.
  Decision crash(int k, const std::string& reason);

  /// Tally-only events.
  void split(std::size_t t, int g, std::string detail);
  void journal_written(RunEvent written);
  /// What node `k` must journal at its next append, each tile once in
  /// ascending order; both lists start over empty.
  struct Unjournalled {
    /// Tiles committed on the node since its last append — and, in a run
    /// journalling to another file than it resumed from, the restored
    /// tiles of the node (node 0 for the CPU or a device this fleet lacks),
    /// so the run's own journal resumes it alone.
    std::vector<std::size_t> commits;
    /// Tiles given a new row-slice snapshot on the node since then.
    std::vector<std::size_t> slices;
  };
  Unjournalled take_unjournalled(int k);
  /// Tile `t`, left uncommitted by every device, finished on the CPU.
  void cpu_commit(std::size_t t, TileResult& result);

  const CommittedTiles& done() const { return done_; }
  /// Per tile: node `k`'s furthest kept row-slice snapshot (r_count 0 =
  /// none); cleared by the tile's commit on that node and by a crash.
  const std::vector<CheckpointSlice>& partials(int k) const {
    return nodes_[std::size_t(k)].partials;
  }
  std::vector<TileResult>& results() { return done_.results; }
  const RunHealth& health() const { return health_; }
  const std::map<std::uint64_t, Attempt>& inflight() const { return inflight_; }
  const std::vector<std::deque<TileJob>>& queues() const { return queues_; }
  /// Per device: the job kept between attempts (retry or rerun).
  const std::vector<std::optional<TileJob>>& held() const { return held_; }
  /// Per tile: queued, held or running speculative backups.
  int backups(std::size_t t) const { return tiles_state_[t].backups; }
  bool interrupted() const { return interrupted_; }
  bool failed() const { return failed_; }
  bool crashed(int k) const { return nodes_[std::size_t(k)].crashed; }
  std::size_t outstanding() const { return outstanding_; }

 private:
  struct TileState {
    bool started = false;       ///< some device began executing it
    bool left_for_cpu = false;  ///< no device can take it any more
    /// Node fault planned on it for the node it was dealt to.
    std::optional<gpusim::FaultRule> node_fault;
    std::uint64_t claim = 0;    ///< its place in that node's deal
    int backups = 0;
  };
  struct NodeState {
    bool crashed = false;
    std::vector<CheckpointSlice> partials;  ///< see partials()
    std::size_t slices = 0;               ///< what kill_after_slices counts
    std::size_t commits_since_journal = 0;
    Unjournalled unjournalled;            ///< see take_unjournalled()
  };

  int node_of(int g) const { return g / devices_; }
  bool healthy(int g) const;
  bool node_live(int k) const;
  int least_loaded(int k, int skip, const std::set<int>& exhausted = {}) const;
  int orphan_queue(int k) const;
  bool all_done() const;
  std::optional<TileJob> steal(int k);
  Decision start(int g, TileJob job, double now);
  void drop(const TileJob& job);
  void requeue(TileJob job, int k);
  void blacklist(int g, bool offline, const std::string& why);
  void calibrate(double modeled_seconds, double wall_seconds);
  void log(RunEvent::Kind kind, int tile_id, int device, std::string detail);

  const MatrixProfileConfig& config_;
  const std::vector<Tile>& tiles_;
  std::size_t dims_;
  int devices_;  ///< per node; global device g is on node g / devices_
  gpusim::MachineSpec spec_;

  CommittedTiles done_;
  std::vector<TileState> tiles_state_;
  std::size_t outstanding_ = 0;  ///< tiles not committed yet

  std::vector<NodeState> nodes_;
  std::vector<std::deque<TileJob>> queues_;
  std::vector<std::optional<TileJob>> held_;
  std::vector<char> blacklisted_;
  std::vector<int> consecutive_failed_tiles_;
  std::vector<int> watchdog_strikes_;
  double wall_per_modeled_ = 0.0;  ///< EWMA calibration of the model
  std::uint64_t next_attempt_ = 0;
  std::map<std::uint64_t, Attempt> inflight_;

  RunHealth health_;
  bool interrupted_ = false;
  bool failed_ = false;
};

}  // namespace mpsim::mp
