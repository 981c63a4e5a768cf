// The scheduler behind mp::compute_matrix_profile.  Every run is a
// coordinator run over config.nodes simulated nodes — a single-node run
// is simply the one-node case, as the paper's multi-node extension (§VII)
// only adds one more level of tile dealing to Pseudocode 2:
//
//   validate → plan (tiles dealt to nodes and devices) → restore
//   journals → queue the unrestored tiles → device workers + one monitor
//   → interrupt flush / CPU fallback → journal → assemble + the plan's
//   model → health
//
// One Scheduler holds every decision of the run under one mutex and one
// condition variable: the tile table (commit, started, left-for-CPU flag
// and planned node fault per tile), one job queue per global device,
// blacklists, watchdog strikes, the in-flight attempt map, the run's one
// watchdog calibration, each node's partial slices and crash flag, and
// one RunHealth.  The device queues are the only place work lives: a
// node is the devices [k·devices, (k+1)·devices) that crash together and
// share a side journal, and each node is a private gpusim::System fleet
// whose device workers — one thread per device — pop, run and commit
// tiles against that state directly.  Any commit, crash or interrupt
// wakes every idle worker at once.  A single monitor thread handles
// shutdown and the watchdog.
//
//  * dealing — mp::plan_tiles (deal_tiles: config.assignment over
//    nodes, then over each node's whole share of devices, restored tiles
//    included, so a resume places tiles where a fresh run did) fixes the
//    device queue each tile starts in;
//  * modelled seconds — the run reports the roofline model of that plan
//    (mp::model_tiles), so faults, steals, speculation, resume and the
//    CPU fallback never move them;
//  * placement — a worker with an empty queue first takes an orphan: a
//    job queued on a blacklisted device of its own node, or on any device
//    of a node with no healthy device left (a crashed node included),
//    whatever config.steal says.  Only then, with config.steal, does it
//    take the last job of the deepest queue on another live node; a job
//    planned to crash its node is never stolen;
//  * supervision — retries with backoff, blacklisting and precision
//    escalation on the device; a failed job is requeued on the
//    least-loaded healthy device it has not exhausted, in its own node
//    first and then in the others, and left for the CPU only when no
//    such device exists;
//  * watchdog — one wall-per-modelled calibration for the whole run
//    flags overdue attempts; each tile gets at most one speculative
//    backup, on the least-loaded healthy device other than the overdue
//    one, its own node first;
//  * node faults — config.node_faults rules are planned over each node's
//    dealt tiles in grid order, so `node_crash@k:at=n` always fires on
//    node k's n-th tile whatever the thread interleaving (a stall fires
//    only if its node still runs the tile).  A crash stops the node's
//    workers, cancels its attempts and drops its partial slices; the
//    unwinding workers requeue their jobs and its queued jobs become
//    orphans.  A tile no device can take is completed on the CPU
//    reference path after the workers exit;
//  * commit — the first attempt to finish a tile stores its result and
//    cancels every other attempt of it on any node; a finisher on another
//    node that still arrives later is dropped (node.commit_conflicts).
//
// Durability: every checkpoint.interval_tiles commits a node journals its
// commits and row-slice snapshots — straight to write_path in a one-node
// run, to the side journal `<write_path>.node<k>` otherwise — and the
// driver writes the journal of the whole run (committed tiles, the live
// nodes' partial slices, the event history) to write_path at interruption
// and completion.  Resume reads it plus every readable side journal and
// re-keys the slices onto the current grid (restore_from_journals), so a
// run killed at any point resumes onto a different node count — or tile
// grid — bit-identically.
//
// Bit-identity argument: a tile's output bits depend only on its seed
// origin and column range, never on which node/device computed it, how
// often it was retried or raced by a backup, or how its rows were sliced for
// journalling.  First-wins commits keep exactly one result per tile and
// the final column merge (assemble_tile_results) consumes the tiles in
// grid order — so any node count, M≠N-node resumes and regridded resumes
// all reproduce the same bytes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/model.hpp"
#include "mp/resilient.hpp"
#include "mp/staging.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// Per-tile scheduler instruments, registered once in the global registry
/// (per-call cost: relaxed atomics, nothing when the registry is
/// disabled).
struct SchedulerMetrics {
  Counter& tiles_completed;
  Counter& attempts;
  Counter& retries;
  Counter& reassigned;
  Counter& blacklists;
  Counter& cpu_fallback;
  Counter& escalations;
  Counter& checkpoint_writes;
  Counter& tiles_resumed;
  Counter& watchdog_fires;
  Counter& speculative_wins;
  Counter& speculative_losses;
  Counter& tile_splits;
  Counter& resume_fallback;
  Counter& slice_commits;
  Counter& slices_partial;
  Counter& slices_discarded;
  Histogram& tile_seconds;

  static SchedulerMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static SchedulerMetrics m{reg.counter("resilient.tiles_completed"),
                              reg.counter("resilient.attempts"),
                              reg.counter("resilient.retries"),
                              reg.counter("resilient.reassigned_tiles"),
                              reg.counter("resilient.blacklist_events"),
                              reg.counter("resilient.cpu_fallback_tiles"),
                              reg.counter("resilient.escalations"),
                              reg.counter("resilient.checkpoint_writes"),
                              reg.counter("resilient.tiles_resumed"),
                              reg.counter("resilient.watchdog_fires"),
                              reg.counter("resilient.speculative_wins"),
                              reg.counter("resilient.speculative_losses"),
                              reg.counter("resilient.tile_splits"),
                              reg.counter("resilient.resume_fallback"),
                              reg.counter("resilient.slice_commits"),
                              reg.counter("resilient.slices_partial"),
                              reg.counter("resilient.slices_discarded"),
                              reg.histogram("resilient.tile_seconds")};
    return m;
  }
};

/// Cross-node instruments, registered once (additive on the v2 metrics
/// schema).
struct CoordinatorMetrics {
  Counter& tiles_dispatched;  ///< tiles a node actually started
  Counter& steals;            ///< jobs stolen from another node's queue
  Counter& node_crashes;      ///< nodes lost to NodeFailedError
  Counter& cpu_fallback_tiles;///< tiles the coordinator finished on CPU
  Counter& node_commits;      ///< winning commits
  Counter& node_commit_conflicts;  ///< finishers that lost to another node
  Gauge& nodes;               ///< node count of the current run

  static CoordinatorMetrics& get() {
    static auto& reg = MetricsRegistry::global();
    static CoordinatorMetrics metrics{
        reg.counter("coordinator.tiles_dispatched"),
        reg.counter("coordinator.steals"),
        reg.counter("coordinator.node_crashes"),
        reg.counter("coordinator.cpu_fallback_tiles"),
        reg.counter("node.commits"),
        reg.counter("node.commit_conflicts"),
        reg.gauge("coordinator.nodes")};
    return metrics;
  }
};

/// A unit of schedulable work: one tile at its current precision rung.
struct TileJob {
  std::size_t index = 0;       ///< into the tile/result arrays
  PrecisionMode mode = PrecisionMode::FP64;
  int retries_here = 0;        ///< attempts burned on the current device
  bool speculative = false;    ///< watchdog-launched backup attempt
  std::set<int> exhausted;     ///< devices whose retry budget this tile spent
};

/// One in-flight attempt, visible to the monitor and to commits.  The
/// token is owned by the executing worker's stack frame; the record is
/// erased before that frame unwinds, so the pointer cannot dangle.
struct AttemptRecord {
  std::size_t job_index = 0;
  int tile_id = 0;
  int device = -1;               ///< global device index
  PrecisionMode mode = PrecisionMode::FP64;
  double start_seconds = 0.0;    ///< run-clock time the attempt started
  double modeled_seconds = 0.0;  ///< perf-model estimate for the deadline
  gpusim::CancellationToken* token = nullptr;
  bool fired = false;            ///< watchdog already flagged this attempt
};

/// Per-tile dispatch state.
struct TileState {
  bool started = false;       ///< some device began executing it
  bool left_for_cpu = false;  ///< no device could take it any more
  /// Node fault planned on this tile for the node it was dealt to.
  std::optional<gpusim::FaultRule> node_fault;
  std::uint64_t claim = 0;    ///< its place in that node's deal (1-based)
};

/// Per-node state.  Everything but the journal I/O lock is guarded by
/// Scheduler::mutex; system and journal_path are fixed before the
/// workers start.
struct NodeState {
  std::unique_ptr<gpusim::System> system;
  std::string journal_path;          ///< "" = not journalling
  std::mutex journal_io;             ///< serialises this node's writes
  /// Per tile: furthest row-slice snapshot (r_count == 0 = none).
  std::vector<CheckpointSlice> partials;
  std::size_t slice_commits = 0;     ///< what kill_after_slices counts
  std::size_t commits_since_checkpoint = 0;
  int live_workers = 0;
  bool crashed = false;              ///< NodeFailedError took it down
  std::unique_ptr<ScopedEvent> span; ///< the "node k" trace span
};

/// The whole run's scheduler state: one mutex, one condition variable.
/// The lock order is mutex → EventLog; a node's journal_io is taken
/// before the mutex and only around journal I/O.
struct Scheduler {
  RunInputs run;
  const std::vector<CheckpointSlice>* prefixes = nullptr;  ///< per tile
  const Stopwatch* clock = nullptr;
  EventLog* log = nullptr;
  gpusim::FaultInjector* node_faults = nullptr;
  int devices = 1;  ///< per node; global device g is on node g / devices

  std::mutex mutex;
  std::condition_variable cv;

  CommittedTiles done;               ///< what assemble_tile_results merges
  std::vector<TileState> state;
  std::size_t outstanding = 0;       ///< tiles not committed yet
  std::uint64_t total_commits = 0;   ///< restored tiles included

  std::vector<NodeState> nodes;
  std::vector<std::deque<TileJob>> queues;  ///< per global device
  std::vector<char> blacklisted;
  std::vector<int> consecutive_failed_tiles;
  std::vector<int> watchdog_strikes;
  std::vector<int> backups;          ///< per tile: queued/running backups
  double wall_per_modeled = 0.0;     ///< EWMA calibration of the perf model
  std::uint64_t next_attempt_id = 0;
  std::map<std::uint64_t, AttemptRecord> inflight;

  RunHealth health;  ///< counters only; events go to `log`
  bool interrupted = false;  ///< shutdown observed; the run is unwinding
  bool stop_monitor = false;

  const MatrixProfileConfig& config() const { return *run.config; }
};

void log_event(Scheduler& s, RunEvent event) { s.log->add(std::move(event)); }

/// Global device `g` can take work: not blacklisted, its node not
/// crashed.  Caller holds the lock.
bool healthy_locked(const Scheduler& s, int g) {
  return s.blacklisted[std::size_t(g)] == 0 &&
         !s.nodes[std::size_t(g / s.devices)].crashed;
}

/// Node `k` still has a healthy device.  Caller holds the lock.
bool node_live_locked(const Scheduler& s, int k) {
  for (int g = k * s.devices; g < (k + 1) * s.devices; ++g) {
    if (healthy_locked(s, g)) return true;
  }
  return false;
}

/// The least-loaded healthy device other than `skip` and outside
/// `exhausted`: in node `k` first, then in the other nodes; ties go to
/// the lowest index.  -1 = none.  Caller holds the lock.
int least_loaded_locked(const Scheduler& s, int k, int skip,
                        const std::set<int>& exhausted = {}) {
  int target = -1;
  std::size_t best = 0;
  const auto consider = [&](int g) {
    if (g == skip || !healthy_locked(s, g) || exhausted.count(g) != 0) {
      return;
    }
    const std::size_t depth = s.queues[std::size_t(g)].size();
    if (target < 0 || depth < best) {
      target = g;
      best = depth;
    }
  };
  for (int g = k * s.devices; g < (k + 1) * s.devices; ++g) consider(g);
  if (target >= 0) return target;
  for (int g = 0; g < int(s.queues.size()); ++g) {
    if (g / s.devices != k) consider(g);
  }
  return target;
}

/// No tile needs device work any more: each uncommitted one is left for
/// the CPU.  Once true it stays true.  Caller holds the lock.
bool all_done_locked(const Scheduler& s) {
  if (s.outstanding == 0) return true;
  for (std::size_t t = 0; t < s.state.size(); ++t) {
    if (!s.done.committed[t] && !s.state[t].left_for_cpu) return false;
  }
  return true;
}

/// Stops the run on a shutdown request: marks it interrupted and cancels
/// every in-flight attempt on every node.  Caller holds the lock.
void interrupt_locked(Scheduler& s) {
  s.interrupted = true;
  log_event(s, {RunEvent::Kind::kInterrupted, -1, -1,
                std::to_string(s.total_commits) + "/" +
                    std::to_string(s.state.size()) + " tiles committed"});
  for (auto& [id, attempt] : s.inflight) attempt.token->cancel();
  s.cv.notify_all();
}

/// A chaos kill hook fired: request the shutdown and, when the run
/// honours it, stop every node now rather than at the monitor's next
/// poll, so the attempt that triggered it unwinds instead of racing on.
void kill_run(Scheduler& s) {
  request_shutdown();
  if (!s.config().resilience.honor_shutdown) return;
  std::lock_guard lock(s.mutex);
  if (!s.interrupted) interrupt_locked(s);
}

/// Node `k` is gone (NodeFailedError): its workers stop, its attempts are
/// cancelled (their workers requeue the jobs as they unwind) and its
/// in-memory partial slices die with it — exactly what elastic resume has
/// to survive.  The jobs still queued on its devices become orphans.
/// Caller holds the lock.
void crash_node_locked(Scheduler& s, int k, const std::string& reason) {
  NodeState& node = s.nodes[std::size_t(k)];
  node.crashed = true;
  s.health.node_crashes += 1;
  CoordinatorMetrics::get().node_crashes.add();
  log_event(s, {RunEvent::Kind::kNodeCrashed, -1, k, reason});
  node.partials.assign(node.partials.size(), CheckpointSlice{});
  for (auto& [id, attempt] : s.inflight) {
    if (attempt.device / s.devices == k) attempt.token->cancel();
  }
  s.cv.notify_all();
}

/// Requeues a job that failed on node `k` on the least-loaded healthy
/// device it has not exhausted, in node `k` first and then in the other
/// nodes; leaves the tile for the CPU when no such device remains.
/// Caller holds the lock.
void requeue_locked(Scheduler& s, TileJob job, int tile_id, int k) {
  s.cv.notify_all();
  if (s.done.committed[job.index]) return;  // another attempt already won
  if (job.speculative) {
    // A requeued backup becomes an ordinary job; the backup slot frees up
    // so the watchdog may speculate again if the primary stays stuck.
    s.backups[job.index] -= 1;
    job.speculative = false;
  }
  const int target = least_loaded_locked(s, k, -1, job.exhausted);
  job.retries_here = 0;
  s.health.reassigned_tiles += 1;
  SchedulerMetrics::get().reassigned.add();
  if (target < 0) {
    TileState& ts = s.state[job.index];
    if (ts.left_for_cpu) return;
    ts.left_for_cpu = true;
    log_event(s, {RunEvent::Kind::kDeferredToCpu, tile_id, -1, ""});
  } else {
    log_event(s, {RunEvent::Kind::kReassigned, tile_id, target, ""});
    s.queues[std::size_t(target)].push_back(std::move(job));
  }
}

/// Marks global device `g` blacklisted.  Jobs still queued on it become
/// orphans.  Caller holds the lock.
void blacklist_locked(Scheduler& s, int g, bool offline,
                      const std::string& why) {
  s.blacklisted[std::size_t(g)] = 1;
  s.health.blacklist_events += 1;
  SchedulerMetrics::get().blacklists.add();
  auto& status = s.health.devices[std::size_t(g)];
  status.blacklisted = true;
  status.offline = offline;
  log_event(s, {RunEvent::Kind::kBlacklisted, -1, g, why});
}

/// The queue an idle worker of node `k` takes an orphan from: a
/// blacklisted device of its own node with jobs queued, else any device
/// with jobs queued on a node with no healthy device left.  -1 = none.
/// Caller holds the lock.
int orphan_queue_locked(const Scheduler& s, int k) {
  for (int g = k * s.devices; g < (k + 1) * s.devices; ++g) {
    if (s.blacklisted[std::size_t(g)] != 0 &&
        !s.queues[std::size_t(g)].empty()) {
      return g;
    }
  }
  for (int g = 0; g < int(s.queues.size()); ++g) {
    if (g / s.devices != k && !s.queues[std::size_t(g)].empty() &&
        !node_live_locked(s, g / s.devices)) {
      return g;
    }
  }
  return -1;
}

/// A job planned to crash its node: it never leaves that node's queues
/// by stealing.
bool crash_pinned(const TileState& ts) {
  return ts.node_fault && ts.node_fault->kind == gpusim::FaultKind::kNodeCrash;
}

/// Cross-node stealing for an idle worker of node `k`: takes the last
/// job of the deepest queue of a healthy device on another node, skipping
/// a crash-pinned job.  nullopt = nothing to steal.  Caller holds the
/// lock.
std::optional<TileJob> steal_locked(Scheduler& s, int k) {
  int victim = -1;
  std::size_t best = 0;
  std::size_t at = 0;
  for (int g = 0; g < int(s.queues.size()); ++g) {
    const std::deque<TileJob>& q = s.queues[std::size_t(g)];
    if (g / s.devices == k || q.size() <= best || !healthy_locked(s, g)) {
      continue;
    }
    for (std::size_t i = q.size(); i-- > 0;) {
      if (!crash_pinned(s.state[q[i].index])) {
        victim = g;
        best = q.size();
        at = i;
        break;
      }
    }
  }
  if (victim < 0) return std::nullopt;
  std::deque<TileJob>& q = s.queues[std::size_t(victim)];
  TileJob job = std::move(q[at]);
  q.erase(q.begin() + std::ptrdiff_t(at));
  s.health.node_steals += 1;
  CoordinatorMetrics::get().steals.add();
  log_event(s, {RunEvent::Kind::kNodeStolen, (*s.run.tiles)[job.index].id, k,
                "from node " + std::to_string(victim / s.devices)});
  return job;
}

/// Final gate before a popped job executes: false (the job is dropped)
/// when its tile committed while queued; otherwise the tile counts as
/// started.  Caller holds the lock.
bool claim_locked(Scheduler& s, const TileJob& job) {
  const std::size_t t = job.index;
  if (s.done.committed[t]) {
    if (job.speculative) s.backups[t] -= 1;
    return false;
  }
  TileState& ts = s.state[t];
  if (!ts.started) {
    ts.started = true;
    CoordinatorMetrics::get().tiles_dispatched.add();
  }
  return true;
}

/// Node-level fault hook, fired once per popped job of node `k` after its
/// attempt registered `token`; a tile's planned fault fires only on the
/// node it was dealt to.  May stall in a cancellable sleep
/// (node_stall/node_slow) or throw NodeFailedError (node_crash).  Runs
/// unlocked.
void fire_node_fault(Scheduler& s, int k, std::size_t t,
                     const gpusim::CancellationToken* token) {
  if (s.node_faults == nullptr) return;
  std::optional<gpusim::FaultRule> fault;
  std::uint64_t claim = 0;
  {
    std::lock_guard lock(s.mutex);
    TileState& ts = s.state[t];
    if (!ts.node_fault || (*s.run.tiles)[t].device / s.devices != k) return;
    fault = ts.node_fault;
    claim = ts.claim;
    ts.node_fault.reset();
  }
  s.node_faults->inject(*fault, k,
                        "tile " + std::to_string((*s.run.tiles)[t].id), claim,
                        token);
}

/// Feeds one finished attempt into the run's wall-per-modelled EWMA (the
/// watchdog's deadline calibration — one for every node, as every node
/// runs the same MachineSpec; hung attempts never get here, so a hang
/// cannot poison the deadline upward).  Caller holds the lock.
void calibrate_locked(Scheduler& s, double modeled_seconds,
                      double wall_seconds) {
  if (modeled_seconds <= 0.0 || wall_seconds <= 0.0) return;
  const double rate = wall_seconds / modeled_seconds;
  s.wall_per_modeled = s.wall_per_modeled <= 0.0
                           ? rate
                           : 0.7 * s.wall_per_modeled + 0.3 * rate;
}

/// Journals node `k`'s view: the committed tiles (all of them in a
/// one-node run, the node's own in a side journal) as complete slices
/// plus the node's partial slices and the event history.  The copy is
/// taken under the lock; the file I/O runs outside it, serialised per
/// journal file so concurrent writers cannot interleave temp files.
void write_checkpoint_now(Scheduler& s, int k) {
  NodeState& node = s.nodes[std::size_t(k)];
  if (node.journal_path.empty()) return;
  std::lock_guard io(node.journal_io);
  CheckpointData data;
  {
    std::lock_guard lock(s.mutex);
    if (node.crashed) return;
    data = journal_data(s.run, s.done, node.partials,
                        s.nodes.size() > 1 ? k : -1);
    data.events = s.log->snapshot();
    node.commits_since_checkpoint = 0;
  }
  write_journal(node.journal_path, data, *s.log);
  std::lock_guard lock(s.mutex);
  s.health.checkpoint_writes += 1;
  SchedulerMetrics::get().checkpoint_writes.add();
}

/// SliceProgress::on_slice sink: records the snapshot of rows
/// [0, rows_done) of tile `t` (with its QT row) as the partial slice of
/// device `g`'s node, keeping the furthest snapshot when concurrent
/// attempts race, flushes the node's journal, and honours the
/// kill_after_slices chaos hook (counted per node).  `prefix` (optional)
/// is the restored row prefix this attempt resumed from; its rows are
/// folded in so the stored slice always covers rows from 0.  The
/// snapshot's vectors are swapped with the slot's, so the engine refills
/// the previous snapshot's buffers instead of allocating.
void note_slice_snapshot(Scheduler& s, std::size_t t, int g,
                         const CheckpointSlice* prefix, SliceSnapshot& snap) {
  const Tile& tile = (*s.run.tiles)[t];
  const int k = g / s.devices;
  if (prefix != nullptr) {
    merge_min_into(snap.profile, snap.index, prefix->profile, prefix->index);
  }
  const std::size_t rows_done = snap.rows_done;
  bool kill_due = false;
  {
    std::lock_guard lock(s.mutex);
    NodeState& node = s.nodes[std::size_t(k)];
    if (s.done.committed[t] || s.interrupted || node.crashed) return;
    CheckpointSlice& slot = node.partials[t];
    if (slot.r_count >= rows_done) return;  // a racing attempt got further
    slot.tile_index = t;
    slot.tile_id = std::int32_t(tile.id);
    slot.device = std::int32_t(g);
    slot.node = std::int32_t(s.nodes.size() > 1 ? k : -1);
    slot.complete = 0;
    slot.mode = s.config().mode;
    slot.r_begin = tile.r_begin;
    slot.r_count = rows_done;
    slot.q_begin = tile.q_begin;
    slot.q_count = tile.q_count;
    slot.dims = s.run.reference->dims();
    slot.profile.swap(snap.profile);
    slot.index.swap(snap.index);
    slot.qt.swap(snap.qt);
    s.health.slice_commits += 1;
    SchedulerMetrics::get().slice_commits.add();
    node.slice_commits += 1;
    const int kill_after = s.config().checkpoint.kill_after_slices;
    kill_due = kill_after > 0 && node.slice_commits == std::size_t(kill_after);
  }
  write_checkpoint_now(s, k);
  if (kill_due) kill_run(s);
}

/// Watchdog: flags attempts that overran their deadline (slack × the
/// run's wall-per-modelled calibration × the attempt's modelled time),
/// blacklists devices that keep hanging and launches one speculative
/// backup per tile on the least-loaded other healthy device, in the
/// overdue device's node first and then in the others.  Caller holds the
/// lock.
void watchdog_locked(Scheduler& s) {
  const ResilienceConfig& rc = s.config().resilience;
  if (s.wall_per_modeled <= 0.0) return;  // no calibration yet
  const double now = s.clock->seconds();
  for (auto& [id, attempt] : s.inflight) {
    if (attempt.fired) continue;
    const int g = attempt.device;
    const double deadline =
        std::max(kWatchdogMinDeadlineMs * 1e-3,
                 rc.watchdog_slack * s.wall_per_modeled *
                     attempt.modeled_seconds);
    const double elapsed = now - attempt.start_seconds;
    if (elapsed < deadline) continue;

    attempt.fired = true;
    s.health.watchdog_fires += 1;
    SchedulerMetrics::get().watchdog_fires.add();
    log_event(s, {RunEvent::Kind::kWatchdogFired, attempt.tile_id, g,
                  "attempt overran its deadline (" + std::to_string(elapsed) +
                      " s vs " + std::to_string(deadline) + " s)"});
    if (MetricsRegistry::global().enabled()) {
      auto& reg = MetricsRegistry::global();
      reg.record_event({"watchdog fire tile " +
                            std::to_string(attempt.tile_id),
                        g, "watchdog", reg.now_seconds(), 0.0});
    }

    // Repeated hangs feed the blacklist exactly like failed tiles.
    s.watchdog_strikes[std::size_t(g)] += 1;
    const bool drop = s.blacklisted[std::size_t(g)] == 0 &&
                      s.watchdog_strikes[std::size_t(g)] >= kBlacklistAfter;
    if (drop) {
      blacklist_locked(s, g, /*offline=*/false,
                       std::to_string(kBlacklistAfter) +
                           " watchdog deadline overruns");
      for (auto& [other_id, other] : s.inflight) {
        if (other.device == g) other.token->cancel();
      }
    }

    // Speculative re-execution: one backup per tile at a time.  With no
    // other healthy device the overdue attempt is cancelled instead,
    // turning the hang into an ordinary retry on whatever device remains.
    const std::size_t t = attempt.job_index;
    if (s.done.committed[t] == 0 && s.backups[t] == 0) {
      const int target = least_loaded_locked(s, g / s.devices, g);
      if (target >= 0) {
        TileJob backup;
        backup.index = t;
        backup.mode = attempt.mode;
        backup.speculative = true;
        s.backups[t] += 1;
        s.queues[std::size_t(target)].push_back(std::move(backup));
        log_event(s, {RunEvent::Kind::kSpeculated, attempt.tile_id, target,
                      "backup of the attempt on device " +
                          std::to_string(g)});
      } else if (!drop) {
        attempt.token->cancel();
      }
    }
    s.cv.notify_all();
  }
}

/// The run's one monitor.  Wakes every kWatchdogPollMs: propagates a
/// requested shutdown (a signal cannot notify the condition variable) to
/// every node and, when the watchdog is enabled, runs it.
void monitor_thread(Scheduler& s) {
  const ResilienceConfig& rc = s.config().resilience;
  const auto poll = std::chrono::duration<double, std::milli>(kWatchdogPollMs);
  std::unique_lock lock(s.mutex);
  for (;;) {
    s.cv.wait_for(lock, poll, [&] { return s.stop_monitor; });
    if (s.stop_monitor) return;
    if (rc.honor_shutdown && !s.interrupted && shutdown_requested()) {
      interrupt_locked(s);
    }
    if (rc.watchdog && !s.interrupted) watchdog_locked(s);
  }
}

/// Worker of global device `g`: pulls jobs from its own queue, else an
/// orphan, else (config.steal) a stolen job; retries transient faults
/// with exponential backoff, escalates numerically poisoned tiles, commits
/// first-wins, and exits when blacklisted, interrupted, when its node
/// crashed, or when every uncommitted tile is left for the CPU.
void device_worker(Scheduler& s, int g) {
  const MatrixProfileConfig& config = s.config();
  const ResilienceConfig& rc = config.resilience;
  const int k = g / s.devices;
  const int local = g % s.devices;
  NodeState& node = s.nodes[std::size_t(k)];
  gpusim::Device& device = node.system->device(local);
  gpusim::CancellationToken token;
  for (;;) {
    TileJob job;
    {
      std::unique_lock lock(s.mutex);
      // An empty queue is not the end: jobs may still arrive (requeued
      // after a failure, a watchdog backup, orphaned by a blacklisted
      // device or a crashed node, stolen from a loaded peer), so idle
      // workers wait and exit only once no tile needs device work any
      // more.  Every change that can hand out work notifies; the timeout
      // is a backstop.
      int orphan = -1;
      for (;;) {
        if (s.blacklisted[std::size_t(g)] != 0 || s.interrupted ||
            node.crashed) {
          return;
        }
        if (!s.queues[std::size_t(g)].empty()) break;
        orphan = orphan_queue_locked(s, k);
        if (orphan >= 0) break;
        if (all_done_locked(s)) return;
        if (config.steal) {
          if (std::optional<TileJob> stolen = steal_locked(s, k)) {
            s.queues[std::size_t(g)].push_back(std::move(*stolen));
            continue;
          }
        }
        s.cv.wait_for(lock, std::chrono::milliseconds(25));
      }
      std::deque<TileJob>& from =
          s.queues[std::size_t(orphan < 0 ? g : orphan)];
      job = std::move(from.front());
      from.pop_front();
      if (!claim_locked(s, job)) continue;
      if (orphan >= 0) {
        s.health.reassigned_tiles += 1;
        SchedulerMetrics::get().reassigned.add();
        log_event(s, {RunEvent::Kind::kStolen,
                      (*s.run.tiles)[job.index].id, g, ""});
      }
    }
    const std::size_t t = job.index;
    const Tile& tile = (*s.run.tiles)[t];
    const std::function<void(const std::string&)> on_split =
        [&s, &tile, g](const std::string& detail) {
          std::lock_guard lock(s.mutex);
          s.health.tile_splits += 1;
          SchedulerMetrics::get().tile_splits.add();
          log_event(s, {RunEvent::Kind::kTileSplit, tile.id, g, detail});
        };

    // ---- Attempt loop: retries and precision escalations. ----
    bool announced = false;  ///< node-fault hook fired for this popped job
    for (;;) {
      // Attempts run into a local result so concurrent attempts of the
      // same tile (primary + backups) never share state; the winner moves
      // its vectors into the committed slot under the lock.
      TileResult attempt;
      token.reset();
      std::uint64_t attempt_id;
      const double modeled_seconds =
          model_tile_seconds(device.spec(), tile, s.run.reference->dims(),
                             config.window, job.mode);

      // Row-slice durability for this attempt.  A restored prefix only
      // applies at its own precision (escalated attempts recompute the
      // whole tile); snapshots are only emitted at the run's base mode
      // (an escalated tile's partial state would not be restorable) and
      // never under the sketch prefilter (the engine refuses anyway).
      const CheckpointSlice& restored = (*s.prefixes)[t];
      const CheckpointSlice* prefix =
          restored.r_count > 0 && restored.mode == job.mode ? &restored
                                                            : nullptr;
      const bool journal_slices = config.checkpoint.enabled() &&
                                  config.checkpoint.slice_rows > 0 &&
                                  job.mode == config.mode &&
                                  !config.prefilter.enabled();
      SliceProgress progress;
      const SliceProgress* slice_ptr = nullptr;
      if (prefix != nullptr || journal_slices) {
        if (prefix != nullptr) {
          progress.start_row = std::size_t(prefix->r_count);
          progress.start_qt = prefix->qt;
        }
        if (journal_slices) {
          progress.slice_rows = std::size_t(config.checkpoint.slice_rows);
          progress.on_slice = [&s, t, g, prefix](SliceSnapshot& snap) {
            note_slice_snapshot(s, t, g, prefix, snap);
          };
        }
        slice_ptr = &progress;
      }

      {
        std::lock_guard lock(s.mutex);
        if (node.crashed) {
          requeue_locked(s, std::move(job), tile.id, k);
          return;
        }
        if (s.done.committed[t] || s.interrupted) {
          if (job.speculative) s.backups[t] -= 1;
          break;
        }
        attempt_id = s.next_attempt_id++;
        s.inflight.emplace(attempt_id,
                           AttemptRecord{t, tile.id, g, job.mode,
                                         s.clock->seconds(), modeled_seconds,
                                         &token, false});
      }
      Stopwatch attempt_wall;
      try {
        // Measured wall-clock span of this attempt: the trace line every
        // Fig.4/Fig.5-style analysis of a *real* run is built from.
        ScopedEvent span(MetricsRegistry::global(),
                         "tile " + std::to_string(tile.id) + " " +
                             to_string(job.mode) +
                             (job.speculative ? " speculative" : ""),
                         g, "tile", &SchedulerMetrics::get().tile_seconds);
        SchedulerMetrics::get().attempts.add();
        // Node-level fault hook, once per popped job, registered in
        // inflight first so an injected node stall stays cancellable
        // (watchdog, a commit on another node, shutdown).
        if (!announced) {
          announced = true;
          fire_node_fault(s, k, t, &token);
        }
        execute_with_split(s.run, device, job.mode, tile, attempt, &token,
                           slice_ptr, on_split);
      } catch (const NodeFailedError& e) {
        // The simulated *node* is gone.  Its journal is deliberately NOT
        // flushed (a crashed node does not get a last orderly write).
        std::lock_guard lock(s.mutex);
        s.inflight.erase(attempt_id);
        if (!node.crashed) crash_node_locked(s, k, e.what());
        requeue_locked(s, std::move(job), tile.id, k);
        return;
      } catch (const CancelledError&) {
        // Not a fault: the scheduler itself withdrew this attempt.
        std::lock_guard lock(s.mutex);
        s.inflight.erase(attempt_id);
        if (s.done.committed[t]) {
          if (job.speculative) {
            s.backups[t] -= 1;
            s.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(s,
                      {RunEvent::Kind::kSpeculationLost, tile.id, g, ""});
          }
          break;  // tile done elsewhere; fetch the next job
        }
        if (s.interrupted) {
          if (job.speculative) s.backups[t] -= 1;
          break;  // run is unwinding; the wait loop exits the worker
        }
        if (node.crashed || s.blacklisted[std::size_t(g)] != 0) {
          requeue_locked(s, std::move(job), tile.id, k);
          return;  // this worker is done for good
        }
        continue;  // cancelled to break a hang: retry on the same device
      } catch (const DeviceFailedError& e) {
        std::lock_guard lock(s.mutex);
        s.inflight.erase(attempt_id);
        s.health.devices[std::size_t(g)].faults += 1;
        blacklist_locked(s, g, /*offline=*/true, e.what());
        requeue_locked(s, std::move(job), tile.id, k);
        return;  // this worker is done for good
      } catch (const std::exception& e) {
        std::unique_lock lock(s.mutex);
        s.inflight.erase(attempt_id);
        s.health.devices[std::size_t(g)].faults += 1;
        if (job.retries_here < rc.max_retries) {
          job.retries_here += 1;
          s.health.retries += 1;
          SchedulerMetrics::get().retries.add();
          log_event(s, {RunEvent::Kind::kRetry, tile.id, g,
                        std::string(e.what()) + " — retry " +
                            std::to_string(job.retries_here) + "/" +
                            std::to_string(rc.max_retries)});
          lock.unlock();
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              std::ldexp(kRetryBackoffMs, job.retries_here - 1)));
          continue;  // retry on the same device
        }
        // Retry budget spent here: the device failed this whole tile.
        s.consecutive_failed_tiles[std::size_t(g)] += 1;
        job.exhausted.insert(g);
        log_event(s, {RunEvent::Kind::kRetriesExhausted, tile.id, g,
                      e.what()});
        const bool drop = s.consecutive_failed_tiles[std::size_t(g)] >=
                          kBlacklistAfter;
        if (drop) {
          blacklist_locked(s, g, /*offline=*/false,
                           std::to_string(kBlacklistAfter) +
                               " consecutive failed tiles");
        }
        requeue_locked(s, std::move(job), tile.id, k);
        if (drop) return;
        break;  // fetch the next job
      }
      const double attempt_seconds = attempt_wall.seconds();

      // Fold the restored row-prefix into the tail rows' result so the
      // committed tile covers rows from 0.  A no-op after a
      // memory-pressure split (whose sub-tiles recomputed every row —
      // with identical bits, the recurrence only depends on the seed
      // origin, so re-folding the prefix is idempotent).
      if (prefix != nullptr) {
        merge_min_into(attempt.profile, attempt.index, prefix->profile,
                       prefix->index);
      }

      // ---- Success: numerical self-healing, then commit. ----
      const double bad = non_finite_fraction(attempt.profile);
      if (rc.escalate_precision && bad > kNonFiniteThreshold) {
        const PrecisionMode next = escalated_precision(job.mode);
        if (next != job.mode) {
          std::lock_guard lock(s.mutex);
          s.inflight.erase(attempt_id);
          s.health.escalations.push_back(
              RunHealth::Escalation{tile.id, job.mode, next, bad});
          SchedulerMetrics::get().escalations.add();
          log_event(s, {RunEvent::Kind::kEscalated, tile.id, g,
                        std::to_string(int(100.0 * bad)) +
                            "% non-finite, escalating " +
                            to_string(job.mode) + " -> " + to_string(next)});
          job.mode = next;
          continue;  // re-run one rung up
        }
      }
      bool checkpoint_due = false;
      bool kill_due = false;
      {
        std::lock_guard lock(s.mutex);
        s.inflight.erase(attempt_id);
        if (node.crashed) {  // a crashed node commits nothing
          requeue_locked(s, std::move(job), tile.id, k);
          return;
        }
        if (job.speculative) s.backups[t] -= 1;
        if (s.done.committed[t]) {
          // Lost the race against another attempt of the tile.
          if (job.speculative) {
            s.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(s, {RunEvent::Kind::kSpeculationLost, tile.id, g, ""});
          }
          if (s.done.executed_device[t] / s.devices != k) {
            // Another node committed first; this device still succeeded.
            CoordinatorMetrics::get().node_commit_conflicts.add();
            s.consecutive_failed_tiles[std::size_t(g)] = 0;
            s.watchdog_strikes[std::size_t(g)] = 0;
            calibrate_locked(s, modeled_seconds, attempt_seconds);
          }
          break;
        }
        s.done.commit(t, attempt, g, job.mode);
        s.outstanding -= 1;
        s.total_commits += 1;
        CoordinatorMetrics::get().node_commits.add();
        // Chaos kill at the Nth commit of the whole run (resumed tiles
        // included), whichever node made it.
        kill_due = config.checkpoint.kill_after_tiles > 0 &&
                   s.total_commits ==
                       std::uint64_t(config.checkpoint.kill_after_tiles);
        node.partials[t] = CheckpointSlice{};  // superseded
        s.health.devices[std::size_t(g)].tiles_completed += 1;
        SchedulerMetrics::get().tiles_completed.add();
        s.consecutive_failed_tiles[std::size_t(g)] = 0;
        s.watchdog_strikes[std::size_t(g)] = 0;
        if (job.speculative) {
          s.health.speculative_wins += 1;
          SchedulerMetrics::get().speculative_wins.add();
          log_event(s, {RunEvent::Kind::kSpeculationWon, tile.id, g, ""});
        }
        // First finisher wins: withdraw every other attempt of this tile,
        // on any node.
        for (auto& [other_id, other] : s.inflight) {
          if (other.job_index == t) other.token->cancel();
        }
        calibrate_locked(s, modeled_seconds, attempt_seconds);
        node.commits_since_checkpoint += 1;
        checkpoint_due = config.checkpoint.enabled() &&
                         node.commits_since_checkpoint >=
                             std::size_t(config.checkpoint.interval_tiles);
        s.cv.notify_all();
      }
      if (checkpoint_due) write_checkpoint_now(s, k);
      if (kill_due) kill_run(s);
      break;  // fetch the next job
    }
  }
}

/// Runs device_worker for global device `g`; the last worker of a node to
/// exit closes the node's trace span.
void worker_main(Scheduler& s, int g) {
  device_worker(s, g);
  std::unique_ptr<ScopedEvent> span;  // closed after the lock is released
  std::lock_guard lock(s.mutex);
  NodeState& node = s.nodes[std::size_t(g / s.devices)];
  if (--node.live_workers > 0) return;
  span = std::move(node.span);
}

gpusim::MachineSpec node_spec(const MatrixProfileConfig& config) {
  gpusim::MachineSpec spec = gpusim::spec_by_name(config.machine);
  if (config.device_memory_bytes != 0) {
    spec.memory_capacity_bytes = config.device_memory_bytes;
  }
  return spec;
}

/// Each node's share of the host worker threads.
std::size_t node_workers(const MatrixProfileConfig& config) {
  std::size_t total = config.workers;
  if (total == 0) {
    total = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, total / std::size_t(config.nodes));
}

}  // namespace

MatrixProfileResult compute_matrix_profile(const TimeSeries& reference,
                                           const TimeSeries& query,
                                           const MatrixProfileConfig& config) {
  validate_config(reference, query, config);
  const int nodes = config.nodes;
  const int devices = config.devices;
  const std::size_t m = config.window;
  const std::size_t d = reference.dims();
  const std::size_t n_q = query.segment_count(m);

  Stopwatch wall;
  auto& registry = MetricsRegistry::global();
  ScopedEvent run_span(registry, "coordinator", -1, "cpu");
  CoordinatorMetrics::get().nodes.set(double(nodes));

  // ---- Plan: tiles dealt to nodes, then over each node's devices
  // (Tile::device is the global device; its node is device / devices).
  // The run's modelled seconds are this plan's model.  Assignment never
  // affects output bits. ----
  ModelConfig plan;
  plan.spec = node_spec(config);
  plan.n_r = reference.segment_count(m);
  plan.n_q = n_q;
  plan.dims = d;
  plan.window = m;
  plan.mode = config.mode;
  plan.tiles = config.tiles;
  plan.nodes = nodes;
  plan.devices = devices;
  plan.assignment = config.assignment;
  const std::vector<Tile> tiles = plan_tiles(plan);

  EventLog log;
  // Conversions are staged once per run for every node (or across runs,
  // with a caller-provided cache such as the serve daemon's).
  StagingCache local_staging(reference, query);
  std::vector<CheckpointSlice> prefixes(tiles.size());
  Scheduler s;
  s.run.reference = &reference;
  s.run.query = &query;
  s.run.config = &config;
  s.run.tiles = &tiles;
  s.run.staging = config.staging_cache != nullptr ? config.staging_cache
                                                  : &local_staging;
  s.run.fingerprint = checkpoint_fingerprint(reference, query, config);
  s.prefixes = &prefixes;
  s.clock = &wall;
  s.log = &log;
  s.devices = devices;
  s.done.reset(tiles.size(), config.mode);
  s.state.assign(tiles.size(), TileState{});
  s.nodes = std::vector<NodeState>(std::size_t(nodes));
  s.backups.assign(tiles.size(), 0);
  RunHealth& health = s.health;

  // ---- Resume: re-key journalled slices onto this grid.  A bad journal
  // never takes the run down (every rejection is a kResumeFallback
  // event); exact-cover slices restore tiles whole, row prefixes
  // partially (the tail continues from the journalled QT row), the rest
  // is recomputed. ----
  if (!config.checkpoint.resume_path.empty()) {
    RestoredState restored = restore_from_journals(
        config.checkpoint.resume_path, s.run.fingerprint, tiles, d, config);
    for (RunEvent& event : restored.events) log.add(std::move(event));
    for (RunEvent& event : restored.log) log.add(std::move(event));
    if (restored.resumed > 0 || restored.partial > 0) {
      log.add({RunEvent::Kind::kResumed, -1, -1,
               std::to_string(restored.resumed) + "/" +
                   std::to_string(tiles.size()) + " tiles (+" +
                   std::to_string(restored.partial) + " partial) from " +
                   config.checkpoint.resume_path});
    }
    prefixes = std::move(restored.prefixes);
    s.total_commits = restored.resumed;
    health.resumed_tiles = int(restored.resumed);
    health.partial_slices = int(restored.partial);
    health.resume_fallbacks = int(restored.fallbacks);
    health.slices_discarded = int(restored.discarded);
    registry.counter("resilient.tiles_resumed").add(restored.resumed);
    registry.counter("resilient.slices_partial").add(restored.partial);
    registry.counter("resilient.resume_fallback").add(restored.fallbacks);
    registry.counter("resilient.slices_discarded").add(restored.discarded);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      if (!restored.committed[t]) continue;
      s.done.commit(t, restored.results[t], restored.executed_device[t],
                    restored.final_mode[t]);
    }
  }
  s.outstanding = tiles.size() - std::size_t(s.total_commits);

  // ---- Queue the tiles where they were dealt and plan the node faults
  // over each node's deal in grid order (a node plans nothing after a
  // crash).  The node injector is separate from config.fault_injector,
  // which keeps addressing devices by their global indices across every
  // fleet. ----
  gpusim::FaultInjector node_injector;
  if (!config.node_faults.empty()) {
    node_injector.configure(config.node_faults);
    s.node_faults = &node_injector;
  }
  // Tiles restored from a journal keep their place in the deal, so a
  // resumed run places its remaining tiles where the fresh run did.
  const std::size_t fleet = std::size_t(nodes) * std::size_t(devices);
  s.queues.resize(fleet);
  std::vector<std::uint64_t> claims(static_cast<std::size_t>(nodes), 0);
  std::vector<char> crash_planned(static_cast<std::size_t>(nodes), 0);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (s.done.committed[t]) continue;
    const int node = tiles[t].device / devices;
    TileJob job;
    job.index = t;
    job.mode = config.mode;
    s.queues[std::size_t(tiles[t].device)].push_back(std::move(job));
    TileState& ts = s.state[t];
    const std::uint64_t claim = ++claims[std::size_t(node)];
    if (s.node_faults != nullptr && !crash_planned[std::size_t(node)]) {
      ts.node_fault =
          node_injector.plan(gpusim::FaultSite::kNodeTile, node, claim);
      ts.claim = claim;
    }
    if (crash_pinned(ts)) crash_planned[std::size_t(node)] = 1;
  }

  if (s.outstanding > 0) {
    s.blacklisted.assign(fleet, 0);
    s.consecutive_failed_tiles.assign(fleet, 0);
    s.watchdog_strikes.assign(fleet, 0);
    for (int k = 0; k < nodes; ++k) {
      NodeState& node = s.nodes[std::size_t(k)];
      node.system = std::make_unique<gpusim::System>(
          node_spec(config), devices, node_workers(config),
          /*index_base=*/k * devices);
      node.system->attach_fault_injector(config.fault_injector);
      for (int dev = 0; dev < devices; ++dev) {
        RunHealth::DeviceStatus status;
        status.device = k * devices + dev;
        health.devices.push_back(status);
      }
      const std::string& path = config.checkpoint.write_path;
      node.journal_path = path.empty() || nodes == 1
                              ? path
                              : path + ".node" + std::to_string(k);
      node.partials.assign(tiles.size(), CheckpointSlice{});
      if (nodes > 1) {
        log.add({RunEvent::Kind::kNodeJoined, -1, k,
                 std::to_string(devices) + " device(s), global ids " +
                     std::to_string(k * devices) + ".." +
                     std::to_string((k + 1) * devices - 1)});
      }

      node.live_workers = devices;
      node.span = std::make_unique<ScopedEvent>(
          registry, "node " + std::to_string(k), k, "node");
    }

    // Workers always start, even with an empty initial queue: a device
    // may receive all of its work as orphans, requeues, backups or steals.
    std::vector<std::thread> workers;
    workers.reserve(fleet);
    for (int g = 0; g < int(fleet); ++g) {
      workers.emplace_back([&s, g] { worker_main(s, g); });
    }
    std::thread monitor([&s] { monitor_thread(s); });
    for (auto& w : workers) w.join();
    {
      std::lock_guard lock(s.mutex);
      s.stop_monitor = true;
    }
    s.cv.notify_all();
    monitor.join();
    // Nothing runs on the fleets any more: stop their pools before the
    // tile merge starts its own.
    for (NodeState& node : s.nodes) node.system.reset();
  }

  // The journal of the whole run: committed tiles plus the furthest
  // row-slice snapshot any live node holds of each uncommitted tile.
  const auto write_run_journal = [&] {
    std::vector<CheckpointSlice> partials(tiles.size());
    for (NodeState& node : s.nodes) {
      for (std::size_t t = 0; t < node.partials.size(); ++t) {
        if (node.partials[t].r_count > partials[t].r_count) {
          partials[t] = std::move(node.partials[t]);
        }
      }
    }
    CheckpointData data = journal_data(s.run, s.done, partials);
    data.events = log.snapshot();
    write_journal(config.checkpoint.write_path, data, log);
    health.checkpoint_writes += 1;
    SchedulerMetrics::get().checkpoint_writes.add();
  };

  // ---- Interruption: flush the journal and unwind. ----
  if (s.outstanding > 0 && config.resilience.honor_shutdown &&
      (s.interrupted || shutdown_requested())) {
    if (config.checkpoint.enabled()) write_run_journal();
    std::string what = "run interrupted: " +
                       std::to_string(s.total_commits) + "/" +
                       std::to_string(tiles.size()) + " tiles committed";
    if (config.checkpoint.enabled()) {
      what += "; checkpoint flushed to " + config.checkpoint.write_path +
              " (resume with --resume=" + config.checkpoint.write_path + ")";
    }
    throw InterruptedError(what);
  }

  // ---- Graceful degradation: finish what no device could on the CPU
  // reference path. ----
  for (std::size_t t = 0; t < tiles.size() && s.outstanding > 0; ++t) {
    if (s.done.committed[t]) continue;
    const Tile& tile = tiles[t];
    {
      ScopedEvent span(registry,
                       "tile " + std::to_string(tile.id) + " cpu-fallback",
                       -1, "cpu",
                       &registry.histogram("resilient.tile_seconds"));
      compute_tile_on_cpu(reference, query, m, tile, config.exclusion,
                          s.done.results[t]);
    }
    s.done.committed[t] = 1;
    s.done.executed_device[t] = -1;
    s.done.final_mode[t] = PrecisionMode::FP64;
    s.outstanding -= 1;
    s.total_commits += 1;
    health.cpu_fallback_tiles += 1;
    registry.counter("resilient.cpu_fallback_tiles").add();
    CoordinatorMetrics::get().cpu_fallback_tiles.add();
    log.add({RunEvent::Kind::kCpuFallback, tile.id, -1, ""});
  }

  // ---- Final journal: a complete run leaves a complete checkpoint. ----
  if (config.checkpoint.enabled()) write_run_journal();

  MatrixProfileResult out =
      assemble_tile_results(tiles, s.done.results, n_q, d, config.workers);
  const ModelReport planned = model_tiles(plan, tiles);
  out.modeled_device_seconds = planned.device_seconds;
  out.modeled_merge_seconds = planned.merge_seconds;

  // ---- Health report. ----
  out.health = std::move(health);
  out.health.events = log.snapshot();
  if (config.fault_injector != nullptr) {
    out.health.faults_injected = int(config.fault_injector->fault_count());
  }
  out.health.faults_injected += int(node_injector.fault_count());
  out.health.degraded =
      out.health.blacklist_events > 0 || out.health.cpu_fallback_tiles > 0 ||
      out.health.retries > 0 || out.health.reassigned_tiles > 0 ||
      out.health.watchdog_fires > 0 || out.health.tile_splits > 0 ||
      out.health.node_crashes > 0;
  out.wall_seconds = wall.seconds();
  return out;
}

}  // namespace mpsim::mp
