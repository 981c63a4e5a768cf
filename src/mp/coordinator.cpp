// The execution driver behind mp::compute_matrix_profile.  Every run is a
// coordinator run over config.nodes simulated nodes — a single-node run
// is simply the one-node case of the same dispatch, as the paper's
// multi-node extension (§VII) only adds one more level of tile
// assignment to Pseudocode 2:
//
//   validate → plan tiles → restore journals → run N shards →
//   interrupt flush / CPU fallback → journal → assemble → health
//
// Each node is a private gpusim::System fleet running the resilient
// scheduler as one *shard* (mp/resilient.hpp): retries, per-device
// blacklisting, the hang watchdog, in-node speculation and row-slice
// journalling all live there.  The coordinator owns the global tile grid
// and arbitrates through the ShardHooks:
//
//  * shard ownership — tiles are dealt to nodes up front (round-robin or
//    LPT over nodes; each shard then spreads its share over its devices);
//    a node's claim on an *unstarted* tile can be revoked at any time;
//  * cross-node work stealing — an idle node takes an unstarted tile
//    from the most-loaded live peer (config.steal = false disables this,
//    but not the recovery pool below);
//  * node faults — config.node_faults rules are planned over each node's
//    claims in the order they were dealt, so `node_crash@k:at=n` always
//    fires on node k's n-th claim whatever the thread interleaving (a
//    crash claim is never stolen; a stall claim fires only if its node
//    still runs it);
//  * recovery — a node lost to a crash (or one that exits with
//    uncommitted claims) has its tiles released into a pool every live
//    node drains; a tile no live node can finish is completed on the CPU
//    reference path after the shards return;
//  * straggler re-execution — with the watchdog on, an EWMA of per-tile
//    commit wall time flags overdue started tiles, which are re-dispatched
//    once to a second node; first commit wins, the loser is cancelled;
//  * commit ordering — on_commit is the single serialization point: the
//    first node to commit a tile stores its result in the global arrays,
//    every later finisher is dropped (node.commit_conflicts).
//
// Durability: shards journal their commits and row-slice snapshots every
// checkpoint.interval_tiles commits — straight to write_path in a
// one-node run, to the side journal `<write_path>.node<k>` otherwise —
// and the coordinator writes the journal of the whole run (committed
// tiles, the shards' partial slices, the event history) to write_path at
// interruption and completion.  Resume reads it plus every readable side
// journal and re-keys the slices onto the current grid
// (restore_from_journals), so a run killed at any point resumes onto a
// different node count — or tile grid — bit-identically.
//
// Bit-identity argument: a tile's output bits depend only on its seed
// origin and column range, never on which node/device computed it, how
// often it was retried or duplicated, or how its rows were sliced for
// journalling.  First-wins arbitration keeps exactly one result per tile
// and the final column merge (assemble_tile_results) consumes the tiles
// in grid order — so any node count, M≠N-node resumes and regridded
// resumes all reproduce the same bytes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
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
#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/resilient.hpp"
#include "mp/staging.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// Coordinator instruments, registered once (additive on the v2 metrics
/// schema).
struct CoordinatorMetrics {
  Counter& tiles_dispatched;  ///< tiles a node actually started
  Counter& steals;            ///< cross-node steals of unstarted tiles
  Counter& duplicates;        ///< straggler tiles re-dispatched
  Counter& node_crashes;      ///< shards lost to NodeFailedError
  Counter& cpu_fallback_tiles;///< tiles the coordinator finished on CPU
  Counter& node_commits;      ///< winning shard commits
  Counter& node_commit_conflicts;  ///< commits that lost the global race
  Gauge& nodes;               ///< node count of the current run

  static CoordinatorMetrics& get() {
    static auto& reg = MetricsRegistry::global();
    static CoordinatorMetrics metrics{
        reg.counter("coordinator.tiles_dispatched"),
        reg.counter("coordinator.steals"),
        reg.counter("coordinator.duplicates"),
        reg.counter("coordinator.node_crashes"),
        reg.counter("coordinator.cpu_fallback_tiles"),
        reg.counter("node.commits"),
        reg.counter("node.commit_conflicts"),
        reg.gauge("coordinator.nodes")};
    return metrics;
  }
};

/// Per-tile dispatch state, all guarded by Coord::mutex.
struct TileState {
  int owner = -1;        ///< node currently responsible (-1 = pooled)
  int dup_runner = -1;   ///< second node racing a straggler (-1 = none)
  bool started = false;  ///< some node began executing it
  bool dup_issued = false;   ///< straggler duplicate already issued
  bool pooled = false;       ///< an unclaimed recovery-pool entry exists
  double start_seconds = 0.0;
  /// Nodes none of whose devices could finish the tile (bit k = node k;
  /// nodes <= 64).  They never get it back.
  std::uint64_t deferred_by = 0;
  /// Node fault planned on the dealt claim of this tile.
  std::optional<gpusim::FaultRule> node_fault;
  int fault_node = -1;        ///< the node whose claim it is
  std::uint64_t claim = 0;    ///< that node's claim number (1-based)
};

/// Global coordinator state shared by every node's hooks, the straggler
/// monitor and the driver.  One mutex; the lock order is always
/// shard mutex → Coord::mutex → EventLog (hooks run under the shard's
/// lock).
struct Coord {
  std::mutex mutex;
  const MatrixProfileConfig* config = nullptr;
  const ShardRun* run = nullptr;
  const std::vector<Tile>* tiles = nullptr;
  const Stopwatch* clock = nullptr;
  EventLog* log = nullptr;
  gpusim::FaultInjector* node_faults = nullptr;

  CommittedTiles done;               ///< what assemble_tile_results merges
  std::vector<TileState> state;
  /// Per node: owned, queued, stealable tiles.
  std::vector<std::set<std::size_t>> unstarted;
  std::deque<std::size_t> pool;      ///< released / duplicated tiles
  std::uint64_t alive = 0;           ///< bit k = node k still running
  std::size_t outstanding = 0;       ///< tiles not committed yet
  std::uint64_t total_commits = 0;

  int steals = 0;
  int duplicates = 0;
  int crashes = 0;

  /// EWMA of started→committed wall seconds, the straggler baseline.
  double wall_ewma = 0.0;

  /// No tile needs device work any more: each uncommitted one was
  /// deferred by every live node.  Caller holds the lock.
  bool all_done_locked() const {
    if (outstanding == 0) return true;
    for (std::size_t t = 0; t < state.size(); ++t) {
      if (!done.committed[t] && (alive & ~state[t].deferred_by) != 0) {
        return false;
      }
    }
    return true;
  }
};

std::uint64_t node_bit(int k) { return std::uint64_t(1) << k; }

/// Builds the ShardHooks of node `k` — the entire cross-node protocol.
ShardHooks make_hooks(Coord& coord, int k) {
  ShardHooks hooks;

  hooks.should_run = [&coord, k](std::size_t t) {
    std::lock_guard lock(coord.mutex);
    if (coord.done.committed[t]) return false;
    TileState& ts = coord.state[t];
    if (ts.owner != k && ts.dup_runner != k) return false;  // claim revoked
    if (!ts.started) {
      ts.started = true;
      ts.start_seconds = coord.clock->seconds();
      coord.unstarted[std::size_t(k)].erase(t);
      CoordinatorMetrics::get().tiles_dispatched.add();
    }
    return true;
  };

  hooks.on_commit = [&coord](std::size_t t, TileResult& result, int device,
                             PrecisionMode mode, bool& kill) {
    std::lock_guard lock(coord.mutex);
    if (coord.done.committed[t]) {
      CoordinatorMetrics::get().node_commit_conflicts.add();
      return false;
    }
    coord.done.commit(t, result, device, mode);
    coord.outstanding -= 1;
    coord.total_commits += 1;
    TileState& ts = coord.state[t];
    if (ts.started) {
      const double elapsed = coord.clock->seconds() - ts.start_seconds;
      coord.wall_ewma = coord.wall_ewma <= 0.0
                            ? elapsed
                            : 0.7 * coord.wall_ewma + 0.3 * elapsed;
    }
    CoordinatorMetrics::get().node_commits.add();
    // Chaos kill at the Nth commit of the whole run (resumed tiles
    // included), whichever node made it.
    kill = coord.config->checkpoint.kill_after_tiles > 0 &&
           coord.total_commits ==
               std::uint64_t(coord.config->checkpoint.kill_after_tiles);
    return true;
  };

  hooks.on_deferred = [&coord, k](std::size_t t) {
    std::lock_guard lock(coord.mutex);
    if (coord.done.committed[t]) return;
    TileState& ts = coord.state[t];
    ts.deferred_by |= node_bit(k);
    if (ts.dup_runner == k) ts.dup_runner = -1;
    if (ts.owner != k) return;  // a peer still runs it
    // Offer it to the other nodes; the CPU takes it if none can.
    ts.owner = ts.dup_runner;
    ts.dup_runner = -1;
    if (ts.owner != -1) return;
    ts.started = false;
    if (!ts.pooled) {
      ts.pooled = true;
      coord.pool.push_back(t);
    }
  };

  hooks.committed_elsewhere = [&coord](std::size_t t) {
    std::lock_guard lock(coord.mutex);
    return coord.done.committed[t] != 0;
  };

  hooks.journal = [&coord, k](const std::vector<CheckpointSlice>& partials) {
    std::lock_guard lock(coord.mutex);
    return journal_data(*coord.run, coord.done, partials,
                        coord.config->nodes > 1 ? k : -1);
  };

  hooks.all_done = [&coord] {
    std::lock_guard lock(coord.mutex);
    return coord.all_done_locked();
  };

  hooks.acquire_more = [&coord, k]() -> std::optional<std::size_t> {
    std::lock_guard lock(coord.mutex);
    // Recovery pool first — released tiles of crashed nodes, deferred
    // tiles and straggler duplicates.  Always active: steal = false only
    // disables peer stealing.
    const std::size_t scan = coord.pool.size();
    for (std::size_t i = 0; i < scan; ++i) {
      const std::size_t t = coord.pool.front();
      coord.pool.pop_front();
      TileState& ts = coord.state[t];
      ts.pooled = false;
      if (coord.done.committed[t]) continue;  // stale entry, drop
      if ((ts.deferred_by & node_bit(k)) != 0 ||
          (ts.started && ts.owner == k)) {
        coord.pool.push_back(t);  // leave it for another node
        ts.pooled = true;
        continue;
      }
      if (ts.started) {
        // Straggler duplicate: races the node already running it.
        if (ts.dup_runner != -1) continue;  // already claimed, drop
        ts.dup_runner = k;
        coord.duplicates += 1;
        CoordinatorMetrics::get().duplicates.add();
        coord.log->add({RunEvent::Kind::kNodeDuplicated, (*coord.tiles)[t].id,
                        k, "owner node " + std::to_string(ts.owner) +
                               " overdue"});
        return t;
      }
      // Unstarted release (crashed, early-exited or deferring owner).
      ts.owner = k;
      coord.unstarted[std::size_t(k)].insert(t);
      return t;
    }
    if (!coord.config->steal) return std::nullopt;
    // Steal one unstarted tile from the most-loaded live peer.
    int victim = -1;
    std::size_t best = 0;
    for (int j = 0; j < int(coord.unstarted.size()); ++j) {
      if (j == k || (coord.alive & node_bit(j)) == 0) continue;
      if (coord.unstarted[std::size_t(j)].size() > best) {
        best = coord.unstarted[std::size_t(j)].size();
        victim = j;
      }
    }
    if (victim < 0) return std::nullopt;
    auto& set = coord.unstarted[std::size_t(victim)];
    auto it = std::prev(set.end());
    const std::size_t t = *it;
    set.erase(it);
    coord.state[t].owner = k;
    coord.unstarted[std::size_t(k)].insert(t);
    coord.steals += 1;
    CoordinatorMetrics::get().steals.add();
    coord.log->add({RunEvent::Kind::kNodeStolen, (*coord.tiles)[t].id, k,
                    "from node " + std::to_string(victim)});
    return t;
  };

  hooks.on_tile_start = [&coord, k](std::size_t t,
                                    const gpusim::CancellationToken* token) {
    if (coord.node_faults == nullptr) return;
    std::optional<gpusim::FaultRule> fault;
    std::uint64_t claim = 0;
    {
      std::lock_guard lock(coord.mutex);
      TileState& ts = coord.state[t];
      if (!ts.node_fault || ts.fault_node != k) return;
      fault = ts.node_fault;
      claim = ts.claim;
      ts.node_fault.reset();
    }
    coord.node_faults->inject(*fault, k,
                              "tile " + std::to_string((*coord.tiles)[t].id),
                              claim, token);
  };

  return hooks;
}

/// Marks node `k` gone and releases its uncommitted claims into the
/// recovery pool (promoting a live duplicate runner to owner when one
/// exists).  Called by the node-runner thread the moment its shard
/// returns, so recovery overlaps the surviving nodes' execution.
void release_node(Coord& coord, int k) {
  std::lock_guard lock(coord.mutex);
  coord.alive &= ~node_bit(k);
  for (std::size_t t = 0; t < coord.state.size(); ++t) {
    if (coord.done.committed[t]) continue;
    TileState& ts = coord.state[t];
    if (ts.dup_runner == k) {
      ts.dup_runner = -1;
      ts.dup_issued = false;  // the monitor may re-duplicate
    }
    if (ts.owner != k) continue;
    if (ts.dup_runner != -1 && (coord.alive & node_bit(ts.dup_runner)) != 0) {
      ts.owner = ts.dup_runner;  // promote the backup runner
      ts.dup_runner = -1;
      continue;
    }
    ts.owner = -1;
    ts.started = false;
    ts.dup_issued = false;
    if (!ts.pooled) {
      ts.pooled = true;
      coord.pool.push_back(t);
    }
  }
  coord.unstarted[std::size_t(k)].clear();
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
  const std::size_t m = config.window;
  const std::size_t d = reference.dims();
  const std::size_t n_q = query.segment_count(m);

  Stopwatch wall;
  auto& registry = MetricsRegistry::global();
  ScopedEvent run_span(registry, "coordinator", -1, "cpu");
  CoordinatorMetrics::get().nodes.set(double(nodes));

  // ---- Plan: tiles → nodes here (Tile::device holds the owning *node*);
  // each shard spreads its share over its devices.  Assignment never
  // affects output bits. ----
  auto tiles = compute_tile_list(reference.segment_count(m), n_q,
                                 config.tiles);
  if (config.assignment == TileAssignment::kLpt) {
    assign_tiles_lpt(tiles, nodes);
  } else {
    assign_tiles_round_robin(tiles, nodes);
  }

  EventLog log;
  // Conversions are staged once per run for every node (or across runs,
  // with a caller-provided cache such as the serve daemon's).
  StagingCache local_staging(reference, query);
  std::vector<CheckpointSlice> prefixes(tiles.size());
  ShardRun run;
  run.reference = &reference;
  run.query = &query;
  run.config = &config;
  run.tiles = &tiles;
  run.prefixes = &prefixes;
  run.staging = config.staging_cache != nullptr ? config.staging_cache
                                                : &local_staging;
  run.events = &log;
  run.fingerprint = checkpoint_fingerprint(reference, query, config);

  Coord coord;
  coord.config = &config;
  coord.run = &run;
  coord.tiles = &tiles;
  coord.clock = &wall;
  coord.log = &log;
  coord.done.reset(tiles.size(), config.mode);
  coord.state.assign(tiles.size(), TileState{});
  coord.unstarted.assign(std::size_t(nodes), {});
  coord.alive = nodes == 64 ? ~std::uint64_t(0) : node_bit(nodes) - 1;

  RunHealth health;

  // ---- Resume: re-key journalled slices onto this grid.  A bad journal
  // never takes the run down (every rejection is a kResumeFallback
  // event); exact-cover slices restore tiles whole, row prefixes
  // partially (the tail continues from the journalled QT row), the rest
  // is recomputed. ----
  if (!config.checkpoint.resume_path.empty()) {
    RestoredState restored = restore_from_journals(
        config.checkpoint.resume_path, run.fingerprint, tiles, d, config);
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
    coord.total_commits = restored.resumed;
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
      coord.done.commit(t, restored.results[t], restored.executed_device[t],
                        restored.final_mode[t]);
    }
  }
  coord.outstanding = tiles.size() - std::size_t(coord.total_commits);

  // ---- Deal the claims and plan the node faults over them.  The node
  // injector is separate from config.fault_injector, which keeps
  // addressing devices by their global indices across every fleet. ----
  gpusim::FaultInjector node_injector;
  if (!config.node_faults.empty()) {
    node_injector.configure(config.node_faults);
    coord.node_faults = &node_injector;
  }
  std::vector<std::vector<std::size_t>> shares(static_cast<std::size_t>(nodes));
  std::vector<std::uint64_t> claims(static_cast<std::size_t>(nodes), 0);
  std::vector<char> crash_planned(static_cast<std::size_t>(nodes), 0);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const int owner = tiles[t].device;
    shares[std::size_t(owner)].push_back(t);
    if (coord.done.committed[t]) continue;
    TileState& ts = coord.state[t];
    ts.owner = owner;
    const std::uint64_t claim = ++claims[std::size_t(owner)];
    if (coord.node_faults != nullptr && !crash_planned[std::size_t(owner)]) {
      ts.node_fault =
          node_injector.plan(gpusim::FaultSite::kNodeTile, owner, claim);
      ts.fault_node = owner;
      ts.claim = claim;
    }
    if (ts.node_fault && ts.node_fault->kind == gpusim::FaultKind::kNodeCrash) {
      crash_planned[std::size_t(owner)] = 1;
      continue;  // pinned: a crash claim is never stolen
    }
    coord.unstarted[std::size_t(owner)].insert(t);
  }

  std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(nodes));
  if (coord.outstanding > 0) {
    std::vector<std::unique_ptr<gpusim::System>> systems;
    for (int k = 0; k < nodes; ++k) {
      systems.push_back(std::make_unique<gpusim::System>(
          node_spec(config), config.devices, node_workers(config),
          /*index_base=*/k * config.devices));
      systems.back()->attach_fault_injector(config.fault_injector);
      if (nodes > 1) {
        log.add({RunEvent::Kind::kNodeJoined, -1, k,
                 std::to_string(config.devices) + " device(s), global ids " +
                     std::to_string(k * config.devices) + ".." +
                     std::to_string((k + 1) * config.devices - 1)});
      }
    }

    // ---- Straggler monitor (opt-in with the watchdog, like in-node
    // speculation).  Re-dispatches an overdue started tile to the
    // recovery pool once; the claiming node races the owner, first
    // commit wins. ----
    std::atomic<bool> stop_monitor{false};
    std::thread monitor;
    if (config.resilience.watchdog && config.resilience.speculate &&
        nodes > 1) {
      monitor = std::thread([&coord, &config, &wall, &stop_monitor] {
        const auto poll = std::chrono::duration<double, std::milli>(
            config.resilience.watchdog_poll_ms);
        while (!stop_monitor.load(std::memory_order_relaxed)) {
          {
            std::lock_guard lock(coord.mutex);
            // Duplicate only once calibrated: the EWMA needs at least one
            // commit before "overdue" means anything.
            if (coord.wall_ewma > 0.0) {
              const double deadline = std::max(
                  coord.wall_ewma * config.resilience.watchdog_slack,
                  config.resilience.watchdog_min_deadline_ms / 1000.0);
              const double now = wall.seconds();
              for (std::size_t t = 0; t < coord.state.size(); ++t) {
                TileState& ts = coord.state[t];
                if (coord.done.committed[t] || !ts.started ||
                    ts.dup_issued || ts.pooled || ts.dup_runner != -1) {
                  continue;
                }
                if (now - ts.start_seconds <= deadline) continue;
                ts.dup_issued = true;
                ts.pooled = true;
                coord.pool.push_back(t);
              }
            }
          }
          std::this_thread::sleep_for(poll);
        }
      });
    }

    // ---- Run the shards, one thread per node.  Each thread releases its
    // node's claims the moment the shard returns, so crash recovery
    // overlaps the survivors' execution. ----
    std::vector<std::thread> runners;
    runners.reserve(std::size_t(nodes));
    for (int k = 0; k < nodes; ++k) {
      runners.emplace_back([&, k] {
        ScopedEvent span(registry, "node " + std::to_string(k), k, "node");
        const ShardHooks hooks = make_hooks(coord, k);
        ShardOutcome& outcome = outcomes[std::size_t(k)];
        outcome = run_resilient_shard(*systems[std::size_t(k)], run, k,
                                      shares[std::size_t(k)], hooks);
        if (outcome.crashed) {
          std::lock_guard lock(coord.mutex);
          coord.crashes += 1;
          CoordinatorMetrics::get().node_crashes.add();
          log.add({RunEvent::Kind::kNodeCrashed, -1, k, outcome.crash_reason});
        }
        release_node(coord, k);
      });
    }
    for (auto& runner : runners) runner.join();
    stop_monitor.store(true, std::memory_order_relaxed);
    if (monitor.joinable()) monitor.join();
  }

  // ---- Merge the shards' health reports. ----
  bool any_interrupted = false;
  for (ShardOutcome& outcome : outcomes) {
    any_interrupted = any_interrupted || outcome.interrupted;
    RunHealth& h = outcome.health;
    health.retries += h.retries;
    health.reassigned_tiles += h.reassigned_tiles;
    health.blacklist_events += h.blacklist_events;
    health.checkpoint_writes += h.checkpoint_writes;
    health.watchdog_fires += h.watchdog_fires;
    health.speculative_wins += h.speculative_wins;
    health.speculative_losses += h.speculative_losses;
    health.tile_splits += h.tile_splits;
    health.slice_commits += h.slice_commits;
    for (auto& escalation : h.escalations) {
      health.escalations.push_back(escalation);
    }
    for (auto& device : h.devices) health.devices.push_back(device);
  }
  health.node_crashes = coord.crashes;
  health.node_steals = coord.steals;
  health.node_duplicates = coord.duplicates;

  // The journal of the whole run: committed tiles plus the furthest
  // row-slice snapshot any live shard holds of each uncommitted tile.
  const auto write_run_journal = [&] {
    std::vector<CheckpointSlice> partials(tiles.size());
    for (ShardOutcome& outcome : outcomes) {
      for (std::size_t t = 0; t < outcome.partials.size(); ++t) {
        if (outcome.partials[t].r_count > partials[t].r_count) {
          partials[t] = std::move(outcome.partials[t]);
        }
      }
    }
    CheckpointData data = journal_data(run, coord.done, partials);
    data.events = log.snapshot();
    write_journal(config.checkpoint.write_path, data, log);
    health.checkpoint_writes += 1;
  };

  // ---- Interruption: flush the journal and unwind. ----
  if (coord.outstanding > 0 && config.resilience.honor_shutdown &&
      (any_interrupted || shutdown_requested())) {
    if (config.checkpoint.enabled()) write_run_journal();
    std::string what = "run interrupted: " +
                       std::to_string(coord.total_commits) + "/" +
                       std::to_string(tiles.size()) + " tiles committed";
    if (config.checkpoint.enabled()) {
      what += "; checkpoint flushed to " + config.checkpoint.write_path +
              " (resume with --resume=" + config.checkpoint.write_path + ")";
    }
    throw InterruptedError(what);
  }

  // ---- Graceful degradation: finish what no node could on the CPU
  // reference path. ----
  if (coord.outstanding > 0 && !config.resilience.cpu_fallback) {
    throw Error("all devices failed and the CPU fallback is disabled (" +
                std::to_string(coord.outstanding) + " tiles incomplete)");
  }
  for (std::size_t t = 0; t < tiles.size() && coord.outstanding > 0; ++t) {
    if (coord.done.committed[t]) continue;
    const Tile& tile = tiles[t];
    {
      ScopedEvent span(registry,
                       "tile " + std::to_string(tile.id) + " cpu-fallback",
                       -1, "cpu",
                       &registry.histogram("resilient.tile_seconds"));
      compute_tile_on_cpu(reference, query, m, tile, config.exclusion,
                          coord.done.results[t]);
    }
    coord.done.committed[t] = 1;
    coord.done.executed_device[t] = -1;
    coord.done.final_mode[t] = PrecisionMode::FP64;
    coord.outstanding -= 1;
    coord.total_commits += 1;
    health.cpu_fallback_tiles += 1;
    registry.counter("resilient.cpu_fallback_tiles").add();
    CoordinatorMetrics::get().cpu_fallback_tiles.add();
    log.add({RunEvent::Kind::kCpuFallback, tile.id, -1, ""});
  }

  // ---- Final journal: a complete run leaves a complete checkpoint. ----
  if (config.checkpoint.enabled()) write_run_journal();

  MatrixProfileResult out = assemble_tile_results(
      tiles, coord.done.results, coord.done.executed_device, n_q, d,
      config.streams_per_device);

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
