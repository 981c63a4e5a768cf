#include "mp/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mp/model.hpp"

namespace mpsim::mp {

namespace {

/// A job planned to crash its node is never stolen.
bool crash_pinned(const std::optional<gpusim::FaultRule>& fault) {
  return fault && fault->kind == gpusim::FaultKind::kNodeCrash;
}

}  // namespace

SchedulerCore::SchedulerCore(const MatrixProfileConfig& config,
                             const std::vector<Tile>& tiles, std::size_t dims,
                             RestoredState restored, const NodeFaultPlan& plan)
    : config_(config),
      tiles_(tiles),
      dims_(dims),
      devices_(config.devices),
      spec_(gpusim::spec_by_name(config.machine)) {
  const std::size_t n = tiles.size();
  const std::size_t fleet =
      std::size_t(config.nodes) * std::size_t(config.devices);
  tiles_state_.assign(n, TileState{});
  nodes_.assign(std::size_t(config.nodes), NodeState{});
  for (NodeState& node : nodes_) node.partials.assign(n, {});
  queues_.resize(fleet);
  held_.resize(fleet);
  blacklisted_.assign(fleet, 0);
  consecutive_failed_tiles_.assign(fleet, 0);
  watchdog_strikes_.assign(fleet, 0);

  // ---- Resume: what the journals restored, and their history. ----
  health_.events = std::move(restored.events);
  if (restored.resumed > 0 || restored.partial > 0) {
    log(RunEvent::Kind::kResumed, -1, -1,
        std::to_string(restored.resumed) + "/" + std::to_string(n) +
            " tiles (+" + std::to_string(restored.partial) +
            " partial) from " + config.checkpoint.resume_path);
  }
  health_.resumed_tiles = int(restored.resumed);
  health_.partial_slices = int(restored.partial);
  health_.resume_fallbacks = int(restored.fallbacks);
  health_.slices_discarded = int(restored.discarded);
  outstanding_ = n - restored.resumed;
  done_ = std::move(static_cast<CommittedTiles&>(restored));
  if (config.checkpoint.enabled() &&
      config.checkpoint.write_path != config.checkpoint.resume_path) {
    for (std::size_t t = 0; t < n; ++t) {
      if (!done_.committed[t]) continue;
      const int k = node_of(done_.executed_device[t]);
      nodes_[k >= 0 && k < config.nodes ? std::size_t(k) : 0]
          .unjournalled.commits.push_back(t);
    }
  }

  // ---- Deal: queue the tiles where they were dealt and plan the node
  // faults over each node's deal in grid order (a node plans nothing
  // after a crash).  Restored tiles keep their place in the deal, so a
  // resumed run places its remaining tiles where the fresh run did. ----
  std::vector<std::uint64_t> claims(nodes_.size(), 0);
  std::vector<char> crash_planned(nodes_.size(), 0);
  for (std::size_t t = 0; t < n; ++t) {
    if (done_.committed[t]) continue;
    const int k = node_of(tiles[t].device);
    queues_[std::size_t(tiles[t].device)].push_back({t, config.mode});
    TileState& ts = tiles_state_[t];
    const std::uint64_t claim = ++claims[std::size_t(k)];
    if (plan && !crash_planned[std::size_t(k)]) {
      ts.node_fault = plan(k, claim);
      ts.claim = claim;
    }
    if (crash_pinned(ts.node_fault)) crash_planned[std::size_t(k)] = 1;
  }
  if (outstanding_ == 0) return;
  for (int g = 0; g < int(fleet); ++g) health_.devices.push_back({g});
  for (int k = 0; k < config.nodes && config.nodes > 1; ++k) {
    log(RunEvent::Kind::kNodeJoined, -1, k,
        std::to_string(devices_) + " device(s), global ids " +
            std::to_string(k * devices_) + ".." +
            std::to_string((k + 1) * devices_ - 1));
  }
}

void SchedulerCore::log(RunEvent::Kind kind, int tile_id, int device,
                        std::string detail) {
  health_.events.push_back({kind, tile_id, device, std::move(detail)});
}

/// Global device `g` can take work: not blacklisted, its node not crashed.
bool SchedulerCore::healthy(int g) const {
  return blacklisted_[std::size_t(g)] == 0 && !crashed(node_of(g));
}

/// Node `k` still has a healthy device.
bool SchedulerCore::node_live(int k) const {
  for (int g = k * devices_; g < (k + 1) * devices_; ++g) {
    if (healthy(g)) return true;
  }
  return false;
}

/// The least-loaded healthy device other than `skip` and outside
/// `exhausted`: in node `k` first, then in the other nodes; ties go to
/// the lowest index.  -1 = none.
int SchedulerCore::least_loaded(int k, int skip,
                                const std::set<int>& exhausted) const {
  int target = -1;
  std::size_t best = 0;
  const auto consider = [&](int g) {
    if (g == skip || !healthy(g) || exhausted.count(g) != 0) return;
    const std::size_t depth = queues_[std::size_t(g)].size();
    if (target < 0 || depth < best) {
      target = g;
      best = depth;
    }
  };
  for (int g = k * devices_; g < (k + 1) * devices_; ++g) consider(g);
  if (target >= 0) return target;
  for (int g = 0; g < int(queues_.size()); ++g) {
    if (node_of(g) != k) consider(g);
  }
  return target;
}

/// The queue an idle device of node `k` takes an orphan from: a
/// blacklisted device of its own node with jobs queued, else any device
/// with jobs queued on a node with no healthy device left.  -1 = none.
int SchedulerCore::orphan_queue(int k) const {
  for (int g = k * devices_; g < (k + 1) * devices_; ++g) {
    if (blacklisted_[std::size_t(g)] != 0 &&
        !queues_[std::size_t(g)].empty()) {
      return g;
    }
  }
  for (int g = 0; g < int(queues_.size()); ++g) {
    if (node_of(g) != k && !queues_[std::size_t(g)].empty() &&
        !node_live(node_of(g))) {
      return g;
    }
  }
  return -1;
}

/// Every uncommitted tile is left for the CPU (once true, stays true).
bool SchedulerCore::all_done() const {
  if (outstanding_ == 0) return true;
  for (std::size_t t = 0; t < tiles_state_.size(); ++t) {
    if (!done_.committed[t] && !tiles_state_[t].left_for_cpu) return false;
  }
  return true;
}

/// Cross-node stealing for an idle device of node `k`: the last job of
/// the deepest queue of a healthy device on another node, skipping a
/// crash-pinned job.
std::optional<TileJob> SchedulerCore::steal(int k) {
  int victim = -1;
  std::size_t best = 0;
  std::size_t at = 0;
  for (int g = 0; g < int(queues_.size()); ++g) {
    const std::deque<TileJob>& q = queues_[std::size_t(g)];
    if (node_of(g) == k || q.size() <= best || !healthy(g)) continue;
    for (std::size_t i = q.size(); i-- > 0;) {
      if (!crash_pinned(tiles_state_[q[i].index].node_fault)) {
        victim = g;
        best = q.size();
        at = i;
        break;
      }
    }
  }
  if (victim < 0) return std::nullopt;
  std::deque<TileJob>& q = queues_[std::size_t(victim)];
  TileJob job = std::move(q[at]);
  q.erase(q.begin() + std::ptrdiff_t(at));
  health_.node_steals += 1;
  log(RunEvent::Kind::kNodeStolen, tiles_[job.index].id, k,
      "from node " + std::to_string(node_of(victim)));
  return job;
}

/// A job leaves the schedule: its backup slot frees up.
void SchedulerCore::drop(const TileJob& job) {
  if (job.speculative) tiles_state_[job.index].backups -= 1;
}

/// Requeues a job that failed on node `k` on the least-loaded healthy
/// device it has not exhausted, node `k` first; leaves the tile for the
/// CPU when no such device remains.
void SchedulerCore::requeue(TileJob job, int k) {
  // A requeued backup becomes an ordinary job: its backup slot frees up
  // so the watchdog may speculate again if the primary stays stuck.
  drop(job);
  job.speculative = false;
  if (done_.committed[job.index]) return;  // another attempt already won
  const int tile_id = tiles_[job.index].id;
  const int target = least_loaded(k, -1, job.exhausted);
  job.retries_here = 0;
  health_.reassigned_tiles += 1;
  if (target < 0) {
    TileState& ts = tiles_state_[job.index];
    if (ts.left_for_cpu) return;
    ts.left_for_cpu = true;
    log(RunEvent::Kind::kDeferredToCpu, tile_id, -1, "");
  } else {
    log(RunEvent::Kind::kReassigned, tile_id, target, "");
    queues_[std::size_t(target)].push_back(std::move(job));
  }
}

/// Marks device `g` blacklisted; jobs still queued on it become orphans.
void SchedulerCore::blacklist(int g, bool offline, const std::string& why) {
  blacklisted_[std::size_t(g)] = 1;
  health_.blacklist_events += 1;
  RunHealth::DeviceStatus& status = health_.devices[std::size_t(g)];
  status.blacklisted = true;
  status.offline = offline;
  log(RunEvent::Kind::kBlacklisted, -1, g, why);
}

/// Feeds one finished attempt into the run's wall-per-modelled EWMA (one
/// for every node, as every node runs the same MachineSpec; hung attempts
/// never finish here, so a hang cannot poison the deadline upward).
void SchedulerCore::calibrate(double modeled_seconds, double wall_seconds) {
  if (modeled_seconds <= 0.0 || wall_seconds <= 0.0) return;
  const double rate = wall_seconds / modeled_seconds;
  wall_per_modeled_ =
      wall_per_modeled_ <= 0.0 ? rate : 0.7 * wall_per_modeled_ + 0.3 * rate;
}

Decision SchedulerCore::claim(int g, double now) {
  if (failed_) return {Decision::Kind::kExit};
  const int k = node_of(g);
  if (std::optional<TileJob>& held = held_[std::size_t(g)]) {
    TileJob job = std::move(*held);
    held.reset();
    if (crashed(k)) {
      requeue(std::move(job), k);
      return {Decision::Kind::kExit};
    }
    if (!done_.committed[job.index] && !interrupted_) {
      return start(g, std::move(job), now);
    }
    drop(job);
  }
  // An idle device waits for jobs that may still arrive (requeues,
  // backups, orphans, steals) until no tile needs device work any more.
  for (;;) {
    if (blacklisted_[std::size_t(g)] != 0 || interrupted_ || crashed(k)) {
      return {Decision::Kind::kExit};
    }
    int from = g;
    if (queues_[std::size_t(g)].empty()) {
      from = orphan_queue(k);
      if (from < 0) {
        if (all_done()) return {Decision::Kind::kExit};
        if (!config_.steal) return {Decision::Kind::kWait};
        std::optional<TileJob> stolen = steal(k);
        if (!stolen) return {Decision::Kind::kWait};
        queues_[std::size_t(g)].push_back(std::move(*stolen));
        continue;
      }
    }
    std::deque<TileJob>& queue = queues_[std::size_t(from)];
    TileJob job = std::move(queue.front());
    queue.pop_front();
    if (done_.committed[job.index]) {  // committed while queued
      drop(job);
      continue;
    }
    TileState& ts = tiles_state_[job.index];
    if (!ts.started) {
      ts.started = true;
      health_.tiles_dispatched += 1;
    }
    if (from != g) {
      health_.reassigned_tiles += 1;
      log(RunEvent::Kind::kStolen, tiles_[job.index].id, g, "");
    }
    return start(g, std::move(job), now);
  }
}

/// Registers an attempt of `job` on device `g`.  A tile's planned node
/// fault goes with its first attempt on the node it was dealt to.
Decision SchedulerCore::start(int g, TileJob job, double now) {
  Decision d{Decision::Kind::kRun};
  const Tile& tile = tiles_[job.index];
  TileState& ts = tiles_state_[job.index];
  if (ts.node_fault && node_of(tile.device) == node_of(g)) {
    d.node_fault = std::move(ts.node_fault);
    d.fault_claim = ts.claim;
    ts.node_fault.reset();
  }
  const double modeled =
      model_tile_seconds(spec_, tile, dims_, config_.window, job.mode);
  d.attempt = inflight_[next_attempt_] = {
      .id = next_attempt_, .job = std::move(job), .device = g, .start = now,
      .modeled_seconds = modeled, .progress_at = now};
  next_attempt_ += 1;
  health_.attempts += 1;
  return d;
}

Decision SchedulerCore::finish(std::uint64_t id, Outcome outcome,
                               double now) {
  const auto it = inflight_.find(id);
  Attempt attempt = std::move(it->second);
  inflight_.erase(it);
  TileJob& job = attempt.job;
  const int g = attempt.device;
  const int k = node_of(g);
  const std::size_t t = job.index;
  const int tile_id = tiles_[t].id;
  RunHealth::DeviceStatus& status = health_.devices[std::size_t(g)];
  Decision d;
  if (failed_) {  // the run is over: whatever the attempt made is dropped
    drop(job);
    return {Decision::Kind::kExit};
  }
  switch (outcome.kind) {
    case Outcome::Kind::kNodeLost:
      // The node is gone; its journal is deliberately not flushed (a
      // crashed node gets no last orderly write).
      d = crash(k, outcome.error);
      requeue(std::move(job), k);
      d.kind = Decision::Kind::kExit;
      return d;

    case Outcome::Kind::kCancelled:
      if (done_.committed[t]) {  // the tile was won elsewhere
        if (job.speculative) {
          drop(job);
          health_.speculative_losses += 1;
          log(RunEvent::Kind::kSpeculationLost, tile_id, g, "");
        }
        return {Decision::Kind::kClaim};
      }
      if (interrupted_) {
        drop(job);
        return {Decision::Kind::kClaim};
      }
      if (crashed(k) || blacklisted_[std::size_t(g)] != 0) {
        requeue(std::move(job), k);
        return {Decision::Kind::kExit};
      }
      // Cancelled to break a hang: retry on the same device (tick bounds
      // how often before calibration).
      held_[std::size_t(g)] = std::move(job);
      return {Decision::Kind::kClaim};

    case Outcome::Kind::kDeviceLost:
      status.faults += 1;
      blacklist(g, /*offline=*/true, outcome.error);
      requeue(std::move(job), k);
      return {Decision::Kind::kExit};

    case Outcome::Kind::kTransient: {
      status.faults += 1;
      if (job.retries_here < kMaxRetries) {
        job.retries_here += 1;
        health_.retries += 1;
        log(RunEvent::Kind::kRetry, tile_id, g,
            outcome.error + " — retry " + std::to_string(job.retries_here) +
                "/" + std::to_string(kMaxRetries));
        d.kind = Decision::Kind::kClaim;
        d.backoff_ms = std::ldexp(kRetryBackoffMs, job.retries_here - 1);
        held_[std::size_t(g)] = std::move(job);
        return d;
      }
      // Retry budget spent here: the device failed this whole tile.
      consecutive_failed_tiles_[std::size_t(g)] += 1;
      job.exhausted.insert(g);
      log(RunEvent::Kind::kRetriesExhausted, tile_id, g, outcome.error);
      const bool drop_device =
          consecutive_failed_tiles_[std::size_t(g)] >= kBlacklistAfter;
      if (drop_device) {
        blacklist(g, /*offline=*/false,
                  std::to_string(kBlacklistAfter) +
                      " consecutive failed tiles");
      }
      requeue(std::move(job), k);
      return {drop_device ? Decision::Kind::kExit : Decision::Kind::kClaim};
    }

    case Outcome::Kind::kDone:
      break;
  }

  // ---- Success: numerical self-healing, then commit. ----
  if (config_.resilience.escalate_precision &&
      outcome.non_finite > kNonFiniteThreshold) {
    const PrecisionMode next = escalated_precision(job.mode);
    if (next != job.mode) {
      health_.escalations.push_back(
          RunHealth::Escalation{tile_id, job.mode, next, outcome.non_finite});
      log(RunEvent::Kind::kEscalated, tile_id, g,
          std::to_string(int(100.0 * outcome.non_finite)) +
              "% non-finite, escalating " + to_string(job.mode) + " -> " +
              to_string(next));
      job.mode = next;
      held_[std::size_t(g)] = std::move(job);
      return {Decision::Kind::kClaim};
    }
  }
  if (crashed(k)) {  // a crashed node commits nothing
    requeue(std::move(job), k);
    return {Decision::Kind::kExit};
  }
  drop(job);
  const double wall = now - attempt.start;
  if (done_.committed[t]) {
    // Lost the race against another attempt of the tile.
    if (job.speculative) {
      health_.speculative_losses += 1;
      log(RunEvent::Kind::kSpeculationLost, tile_id, g, "");
    }
    if (node_of(done_.executed_device[t]) != k) {
      // Another node committed first; this device still succeeded.
      health_.commit_conflicts += 1;
      consecutive_failed_tiles_[std::size_t(g)] = 0;
      watchdog_strikes_[std::size_t(g)] = 0;
      calibrate(attempt.modeled_seconds, wall);
    }
    return {Decision::Kind::kClaim};
  }
  TileResult none;
  done_.commit(t, outcome.result != nullptr ? *outcome.result : none, g,
               job.mode);
  outstanding_ -= 1;
  d.kind = Decision::Kind::kClaim;
  // Chaos kill at the Nth commit of the whole run (resumed tiles
  // included), whichever node made it.
  d.kill = config_.checkpoint.kill_after_tiles > 0 &&
           tiles_.size() - outstanding_ ==
               std::size_t(config_.checkpoint.kill_after_tiles);
  NodeState& node = nodes_[std::size_t(k)];
  node.partials[t] = {};  // superseded
  status.tiles_completed += 1;
  consecutive_failed_tiles_[std::size_t(g)] = 0;
  watchdog_strikes_[std::size_t(g)] = 0;
  if (job.speculative) {
    health_.speculative_wins += 1;
    log(RunEvent::Kind::kSpeculationWon, tile_id, g, "");
  }
  // First finisher wins: withdraw every other attempt of this tile, on
  // any node.
  for (const auto& [other_id, other] : inflight_) {
    if (other.job.index == t) d.cancel.push_back(other_id);
  }
  calibrate(attempt.modeled_seconds, wall);
  node.unjournalled.commits.push_back(t);
  node.commits_since_journal += 1;
  if (config_.checkpoint.enabled() &&
      node.commits_since_journal >=
          std::size_t(config_.checkpoint.interval_tiles)) {
    d.journal = true;
    node.commits_since_journal = 0;
  }
  return d;
}

Decision SchedulerCore::slice(std::size_t t, int g, SliceSnapshot& snap) {
  Decision d;
  const int k = node_of(g);
  NodeState& node = nodes_[std::size_t(k)];
  if (done_.committed[t] || interrupted_ || failed_ || node.crashed) {
    return d;
  }
  CheckpointSlice& slot = node.partials[t];
  if (slot.r_count >= snap.rows_done) return d;  // a racing attempt led
  const Tile& tile = tiles_[t];
  slot = {.tile_index = t, .tile_id = tile.id, .device = g,
          .node = nodes_.size() > 1 ? k : -1, .complete = 0,
          .mode = config_.mode, .r_begin = tile.r_begin,
          .r_count = snap.rows_done, .q_begin = tile.q_begin,
          .q_count = tile.q_count, .dims = dims_,
          .profile = std::exchange(snap.profile, std::move(slot.profile)),
          .index = std::exchange(snap.index, std::move(slot.index)),
          .qt = std::exchange(snap.qt, std::move(slot.qt)), .prefilter = {}};
  health_.slice_commits += 1;
  node.slices += 1;
  node.unjournalled.slices.push_back(t);
  d.journal = config_.checkpoint.enabled();
  if (d.journal) node.commits_since_journal = 0;
  const int kill_after = config_.checkpoint.kill_after_slices;
  d.kill = kill_after > 0 && node.slices == std::size_t(kill_after);
  return d;
}

Decision SchedulerCore::tick(double now,
                             const std::vector<std::uint64_t>& progress) {
  Decision d;
  if (!config_.resilience.watchdog || interrupted_ || failed_) return d;
  const bool calibrated = wall_per_modeled_ > 0.0;
  for (auto& [id, attempt] : inflight_) {
    if (attempt.fired) continue;
    const int g = attempt.device;
    if (progress[std::size_t(g)] != attempt.progress) {
      attempt.progress = progress[std::size_t(g)];
      attempt.progress_at = now;
    }
    // Before any attempt completed there is no calibration: a hang is
    // told from slow work by its progress instead.  Each uncalibrated fire
    // on a job doubles its no-progress limit, and after kMaxRetries the
    // job is left alone until calibration, so sparse progress finishes.
    if (!calibrated && attempt.job.stalls >= kMaxRetries) continue;
    const double deadline =
        calibrated ? std::max(kWatchdogMinDeadlineMs * 1e-3,
                              kWatchdogSlack * wall_per_modeled_ *
                                  attempt.modeled_seconds)
                   : std::ldexp(kWatchdogSlack * kWatchdogMinDeadlineMs * 1e-3,
                                attempt.job.stalls);
    const double elapsed =
        now - (calibrated ? attempt.start : attempt.progress_at);
    if (elapsed < deadline) continue;

    attempt.fired = true;
    if (!calibrated) attempt.job.stalls += 1;
    d.fired.push_back(id);
    health_.watchdog_fires += 1;
    const std::size_t t = attempt.job.index;
    log(RunEvent::Kind::kWatchdogFired, tiles_[t].id, g,
        calibrated ? "attempt overran its deadline (" +
                         std::to_string(elapsed) + " s vs " +
                         std::to_string(deadline) + " s)"
                   : "no progress for " + std::to_string(elapsed) +
                         " s before calibration (limit " +
                         std::to_string(deadline) + " s)");

    // Repeated calibrated overruns blacklist a device like failed tiles.
    bool drop_device = false;
    if (calibrated) {
      watchdog_strikes_[std::size_t(g)] += 1;
      drop_device = blacklisted_[std::size_t(g)] == 0 &&
                    watchdog_strikes_[std::size_t(g)] >= kBlacklistAfter;
    }
    if (drop_device) {
      blacklist(g, /*offline=*/false,
                std::to_string(kBlacklistAfter) +
                    " watchdog deadline overruns");
      for (const auto& [other_id, other] : inflight_) {
        if (other.device == g) d.cancel.push_back(other_id);
      }
    }

    // One backup per tile at a time; with no other healthy device the
    // overdue attempt is cancelled and retried instead.
    TileState& ts = tiles_state_[t];
    if (done_.committed[t] || ts.backups != 0) continue;
    const int target = least_loaded(node_of(g), g);
    if (target >= 0) {
      ts.backups += 1;
      queues_[std::size_t(target)].push_back(
          {.index = t, .mode = attempt.job.mode, .speculative = true});
      log(RunEvent::Kind::kSpeculated, tiles_[t].id, target,
          "backup of the attempt on device " + std::to_string(g));
    } else if (!drop_device) {
      d.cancel.push_back(id);
    }
  }
  return d;
}

Decision SchedulerCore::interrupt() {
  Decision d;
  if (interrupted_) return d;
  interrupted_ = true;
  log(RunEvent::Kind::kInterrupted, -1, -1,
      std::to_string(tiles_.size() - outstanding_) + "/" +
          std::to_string(tiles_.size()) +
          " tiles committed");
  for (const auto& [id, attempt] : inflight_) d.cancel.push_back(id);
  return d;
}

Decision SchedulerCore::fail() {
  Decision d;
  if (failed_) return d;
  failed_ = true;
  for (const auto& [id, attempt] : inflight_) d.cancel.push_back(id);
  return d;
}

Decision SchedulerCore::crash(int k, const std::string& reason) {
  Decision d;
  NodeState& node = nodes_[std::size_t(k)];
  if (node.crashed) return d;
  node.crashed = true;
  health_.node_crashes += 1;
  log(RunEvent::Kind::kNodeCrashed, -1, k, reason);
  node.partials.assign(node.partials.size(), {});
  for (const auto& [id, attempt] : inflight_) {
    if (node_of(attempt.device) == k) d.cancel.push_back(id);
  }
  return d;
}

void SchedulerCore::split(std::size_t t, int g, std::string detail) {
  health_.tile_splits += 1;
  log(RunEvent::Kind::kTileSplit, tiles_[t].id, g, std::move(detail));
}

void SchedulerCore::journal_written(RunEvent written) {
  health_.checkpoint_writes += 1;
  health_.events.push_back(std::move(written));
}

SchedulerCore::Unjournalled SchedulerCore::take_unjournalled(int k) {
  Unjournalled out = std::exchange(nodes_[std::size_t(k)].unjournalled, {});
  for (std::vector<std::size_t>* tiles : {&out.commits, &out.slices}) {
    std::sort(tiles->begin(), tiles->end());
    tiles->erase(std::unique(tiles->begin(), tiles->end()), tiles->end());
  }
  return out;
}

void SchedulerCore::cpu_commit(std::size_t t, TileResult& result) {
  done_.commit(t, result, -1, PrecisionMode::FP64);
  outstanding_ -= 1;
  health_.cpu_fallback_tiles += 1;
  log(RunEvent::Kind::kCpuFallback, tiles_[t].id, -1, "");
}

}  // namespace mpsim::mp
