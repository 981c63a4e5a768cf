// The driver behind mp::compute_matrix_profile.  Every run is a
// coordinator run over config.nodes simulated nodes (one by default):
//
//   validate → plan → restore journals → SchedulerCore → device workers
//   + one monitor → interrupt flush / CPU fallback → compaction →
//   assemble + the plan's model → health
//
// Every decision is the SchedulerCore's (mp/scheduler.hpp).  The driver
// owns what the core must not — the threads, the one mutex and condition
// variable the core is called under, the cancellation tokens, engine
// calls, trace spans, journal I/O and the metrics registry — and only
// applies decisions (see docs/DESIGN.md "Execution driver").  Output
// bits depend only on a tile's seed origin and column range, so any node
// count, resume or regridding reproduces the same bytes.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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
#include "mp/scheduler.hpp"
#include "mp/staging.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// The driver's half of one node.
struct NodeState {
  std::unique_ptr<gpusim::System> system;
  std::string journal_path;          ///< "" = not journalling
  std::mutex journal_io;             ///< serialises this node's appends
  std::unique_ptr<JournalWriter> segment;  ///< made at the first append
  int live_workers = 0;
  std::unique_ptr<ScopedEvent> span; ///< the "node k" trace span
};

/// One run's driver state.  The core is only touched under `mutex`; a
/// node's journal_io is taken before the mutex and only around I/O.
struct Driver {
  const RunInputs& run;
  SchedulerCore core;
  std::vector<NodeState> nodes;
  std::vector<gpusim::CancellationToken> tokens;  ///< per global device
  const std::vector<CheckpointSlice>& prefixes;   ///< per tile
  /// Journal files restore read, with their valid prefixes in bytes.
  const std::map<std::string, std::uint64_t>& journal_prefixes;
  /// The core's events already in the base journal (`write_path`).
  std::size_t journalled_events;
  const Stopwatch& clock;
  gpusim::FaultInjector& node_faults;
  Histogram& tile_seconds;
  std::mutex mutex{};
  std::condition_variable cv{};
  bool stop_monitor = false;
  /// The first error a driver thread could not handle; rethrown on the
  /// calling thread once every thread has joined.
  std::exception_ptr failure{};

  const MatrixProfileConfig& config() const { return *run.config; }
};

/// Cancels what a decision withdraws and wakes every idle worker (locked).
void apply_locked(Driver& s, const Decision& d) {
  for (const std::uint64_t id : d.cancel) {
    s.tokens[std::size_t(s.core.inflight().at(id).device)].cancel();
  }
  s.cv.notify_all();
}

/// A chaos kill hook fired: request the shutdown and, when the run
/// honours it, interrupt now rather than at the monitor's next poll.
void kill_run(Driver& s) {
  request_shutdown();
  if (!s.config().resilience.honor_shutdown) return;
  std::lock_guard lock(s.mutex);
  apply_locked(s, s.core.interrupt());
}

/// A driver thread's root caught `error`: keep the first one for the
/// calling thread and stop the run (every node, every claim).
void fail_run(Driver& s, std::exception_ptr error) {
  std::lock_guard lock(s.mutex);
  if (!s.failure) s.failure = std::move(error);
  apply_locked(s, s.core.fail());
}

/// A writer of journal file `path`: it continues the valid prefix that
/// restore read from `path` (a run resuming from the file it journals
/// to), else starts the file fresh.
std::unique_ptr<JournalWriter> journal_writer(const Driver& s,
                                              const std::string& path) {
  const auto it = s.journal_prefixes.find(path);
  return std::make_unique<JournalWriter>(
      path, s.run.fingerprint, s.run.tiles->size(),
      it == s.journal_prefixes.end() ? 0 : it->second);
}

/// Buffers in node `k`'s segment what it has not journalled yet (see
/// SchedulerCore::take_unjournalled): each due commit as a complete
/// slice, each still uncommitted tile's latest row-slice snapshot on the
/// node, and — in a one-node run, whose segment is the base journal —
/// the events since the last append.  The
/// caller holds the node's journal_io and, while workers run, the mutex.
/// Returns the kCheckpointWritten detail of the append.
std::string stage_journal(Driver& s, int k) {
  NodeState& node = s.nodes[std::size_t(k)];
  if (!node.segment) node.segment = journal_writer(s, node.journal_path);
  const CommittedTiles& done = s.core.done();
  const std::vector<CheckpointSlice>& partials = s.core.partials(k);
  const SchedulerCore::Unjournalled due = s.core.take_unjournalled(k);
  std::size_t partial = 0;
  for (const std::size_t t : due.commits) {
    add_committed_slice(*node.segment, s.run, done, t);
  }
  for (const std::size_t t : due.slices) {
    // A tile committed since (here or elsewhere) needs no prefix.
    if (done.committed[t] || partials[t].r_count == 0) continue;
    node.segment->add_slice(partials[t]);
    partial += 1;
  }
  if (s.nodes.size() == 1) {
    const std::vector<RunEvent>& events = s.core.health().events;
    node.segment->add_events(
        std::span(events).subspan(s.journalled_events));
    s.journalled_events = events.size();
  }
  return std::to_string(due.commits.size()) + " tile(s) + " +
         std::to_string(partial) + " partial slice(s)";
}

/// Appends what is buffered in `journal` (one write, one fdatasync) and
/// logs the kCheckpointWritten event of `staged`; with nothing buffered
/// it does neither.
void append_journal(Driver& s, JournalWriter& journal,
                    const std::string& staged) {
  const std::size_t bytes = journal.append();
  if (bytes == 0) return;
  std::lock_guard lock(s.mutex);
  s.core.journal_written({RunEvent::Kind::kCheckpointWritten, -1, -1,
                          staged + " appended (" + std::to_string(bytes) +
                              " bytes) -> " + journal.path()});
}

/// Appends node `k`'s unjournalled slices to its segment: staged under
/// the lock, written and synced outside it, serialised per node.
void write_node_journal(Driver& s, int k) {
  NodeState& node = s.nodes[std::size_t(k)];
  if (node.journal_path.empty()) return;
  std::lock_guard io(node.journal_io);
  std::string staged;
  {
    std::lock_guard lock(s.mutex);
    if (s.core.crashed(k)) return;
    staged = stage_journal(s, k);
  }
  append_journal(s, *node.segment, staged);
}

/// SliceProgress::on_slice sink: hands the snapshot, with the restored
/// `prefix` (if any) folded in so it covers rows from 0, to the core.  A
/// kept snapshot's vectors are swapped with the slot's, so the engine
/// refills the old buffers.
void note_slice_snapshot(Driver& s, std::size_t t, int g,
                         const CheckpointSlice* prefix, SliceSnapshot& snap) {
  if (prefix != nullptr) {
    merge_min_into(snap.profile, snap.index, prefix->profile, prefix->index);
  }
  Decision d;
  {
    std::lock_guard lock(s.mutex);
    d = s.core.slice(t, g, snap);
  }
  if (d.journal) write_node_journal(s, g / s.config().devices);
  if (d.kill) kill_run(s);
}

/// Runs the claimed attempt on device `g` (unlocked) and reports how it
/// ended; a finished attempt's result is left in `result`.
Outcome run_attempt(Driver& s, int g, gpusim::Device& device,
                    const Decision& claim,
                    const gpusim::CancellationToken& token,
                    TileResult& result) {
  const MatrixProfileConfig& config = s.config();
  const TileJob& job = claim.attempt.job;
  const std::size_t t = job.index;
  const Tile& tile = (*s.run.tiles)[t];

  // A restored prefix only applies at its own precision; snapshots are
  // only emitted at the run's base mode (an escalated tile's partial
  // state is not restorable) and never under the sketch prefilter.
  const CheckpointSlice& restored = s.prefixes[t];
  const CheckpointSlice* prefix =
      restored.r_count > 0 && restored.mode == job.mode ? &restored : nullptr;
  const bool journal_slices = config.checkpoint.enabled() &&
                              config.checkpoint.slice_rows > 0 &&
                              job.mode == config.mode &&
                              !config.prefilter.enabled();
  SliceProgress progress;
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
  const std::function<void(const std::string&)> on_split =
      [&s, t, g](const std::string& detail) {
        std::lock_guard lock(s.mutex);
        s.core.split(t, g, detail);
      };

  try {
    // Measured wall-clock span of this attempt: the trace line every
    // Fig.4/Fig.5-style analysis of a *real* run is built from.
    ScopedEvent span(MetricsRegistry::global(),
                     "tile " + std::to_string(tile.id) + " " +
                         to_string(job.mode) +
                         (job.speculative ? " speculative" : ""),
                     g, "tile", &s.tile_seconds);
    // Inside the registered attempt, so an injected node stall stays
    // cancellable (watchdog, a commit elsewhere, shutdown).
    if (claim.node_fault) {
      s.node_faults.inject(*claim.node_fault, g / s.config().devices,
                            "tile " + std::to_string(tile.id),
                            claim.fault_claim, &token);
    }
    execute_with_split(s.run, device, job.mode, tile, result, &token,
                       prefix != nullptr || journal_slices ? &progress
                                                           : nullptr,
                       on_split);
  } catch (const NodeFailedError& e) {
    return {Outcome::Kind::kNodeLost, 0.0, e.what()};
  } catch (const CancelledError&) {
    return {Outcome::Kind::kCancelled};
  } catch (const DeviceFailedError& e) {
    return {Outcome::Kind::kDeviceLost, 0.0, e.what()};
  } catch (const IoError&) {
    throw;  // a journal write failed: no retry can clear it
  } catch (const std::exception& e) {
    return {Outcome::Kind::kTransient, 0.0, e.what()};
  }
  // Fold the restored prefix in so the tile covers rows from 0 (a no-op
  // after a memory-pressure split, whose sub-tiles recomputed every row
  // with identical bits).
  if (prefix != nullptr) {
    merge_min_into(result.profile, result.index, prefix->profile,
                   prefix->index);
  }
  return {Outcome::Kind::kDone, non_finite_fraction(result.profile), "",
          &result};
}

/// The run's one monitor.  Wakes every kWatchdogPollMs: turns a requested
/// shutdown (a signal cannot notify the condition variable) into an
/// interrupt and, when the watchdog is enabled, ticks it with each
/// device's progress.
void monitor(Driver& s) {
  const ResilienceConfig& rc = s.config().resilience;
  const auto poll = std::chrono::duration<double, std::milli>(kWatchdogPollMs);
  auto& registry = MetricsRegistry::global();
  std::vector<std::uint64_t> progress(s.tokens.size());
  std::unique_lock lock(s.mutex);
  for (;;) {
    s.cv.wait_for(lock, poll, [&] { return s.stop_monitor; });
    if (s.stop_monitor) return;
    if (rc.honor_shutdown && !s.core.interrupted() && shutdown_requested()) {
      apply_locked(s, s.core.interrupt());
    }
    if (!rc.watchdog) continue;
    for (std::size_t g = 0; g < progress.size(); ++g) {
      progress[g] = s.tokens[g].progress();
    }
    const Decision d = s.core.tick(s.clock.seconds(), progress);
    for (const std::uint64_t id : d.fired) {
      if (!registry.enabled()) break;
      const Attempt& attempt = s.core.inflight().at(id);
      registry.record_event(
          {"watchdog fire tile " +
               std::to_string((*s.run.tiles)[attempt.job.index].id),
           attempt.device, "watchdog", registry.now_seconds(), 0.0});
    }
    apply_locked(s, d);
  }
}

/// Claims, runs and reports attempts on global device `g` until the core
/// says kExit.
void claim_and_run(Driver& s, int g) {
  const int k = g / s.config().devices;
  NodeState& node = s.nodes[std::size_t(k)];
  gpusim::Device& device = node.system->device(g % s.config().devices);
  gpusim::CancellationToken& token = s.tokens[std::size_t(g)];
  std::unique_lock lock(s.mutex);
  for (;;) {
    const Decision claim = s.core.claim(g, s.clock.seconds());
    if (claim.kind == Decision::Kind::kWait) {
      s.cv.wait(lock);
      continue;
    }
    apply_locked(s, claim);
    if (claim.kind == Decision::Kind::kExit) break;
    token.reset();
    lock.unlock();
    // Attempts run into a local result so concurrent attempts of the same
    // tile (primary + backups) never share state; the core takes the
    // winner's vectors on commit.
    TileResult result;
    Outcome outcome = run_attempt(s, g, device, claim, token, result);
    lock.lock();
    const Decision next = s.core.finish(claim.attempt.id, std::move(outcome),
                                        s.clock.seconds());
    apply_locked(s, next);
    if (next.journal || next.kill || next.backoff_ms > 0.0) {
      lock.unlock();
      if (next.journal) write_node_journal(s, k);
      if (next.kill) kill_run(s);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(next.backoff_ms));
      lock.lock();
    }
    if (next.kind == Decision::Kind::kExit) break;
  }
}

/// Thread roots.  Whatever escapes one (a failed journal write, say)
/// fails the run instead of terminating the process.
void monitor_thread(Driver& s) {
  try {
    monitor(s);
  } catch (...) {
    fail_run(s, std::current_exception());
  }
}

/// Worker of global device `g`; the last worker of a node to exit closes
/// the node's trace span.
void device_worker(Driver& s, int g) {
  try {
    claim_and_run(s, g);
  } catch (...) {
    fail_run(s, std::current_exception());
  }
  NodeState& node = s.nodes[std::size_t(g / s.config().devices)];
  std::unique_ptr<ScopedEvent> span;  // closed after the lock is released
  std::lock_guard lock(s.mutex);
  if (--node.live_workers == 0) span = std::move(node.span);
}

/// Adds one run's tally to the registry.  Every counter is added, zero
/// included, so each appears in a snapshot once any run finished.
void publish_tally(const RunHealth& h, int nodes) {
  auto& reg = MetricsRegistry::global();
  int device_commits = 0;
  for (const auto& dev : h.devices) device_commits += dev.tiles_completed;
  const std::pair<const char*, int> counts[] = {
      {"resilient.tiles_completed", device_commits},
      {"resilient.attempts", h.attempts},
      {"resilient.retries", h.retries},
      {"resilient.reassigned_tiles", h.reassigned_tiles},
      {"resilient.blacklist_events", h.blacklist_events},
      {"resilient.cpu_fallback_tiles", h.cpu_fallback_tiles},
      {"resilient.escalations", int(h.escalations.size())},
      {"resilient.checkpoint_writes", h.checkpoint_writes},
      {"resilient.tiles_resumed", h.resumed_tiles},
      {"resilient.watchdog_fires", h.watchdog_fires},
      {"resilient.speculative_wins", h.speculative_wins},
      {"resilient.speculative_losses", h.speculative_losses},
      {"resilient.tile_splits", h.tile_splits},
      {"resilient.resume_fallback", h.resume_fallbacks},
      {"resilient.slice_commits", h.slice_commits},
      {"resilient.slices_partial", h.partial_slices},
      {"resilient.slices_discarded", h.slices_discarded},
      {"coordinator.tiles_dispatched", h.tiles_dispatched},
      {"coordinator.steals", h.node_steals},
      {"coordinator.node_crashes", h.node_crashes},
      {"coordinator.cpu_fallback_tiles", h.cpu_fallback_tiles},
      {"node.commits", device_commits},
      {"node.commit_conflicts", h.commit_conflicts},
  };
  for (const auto& [name, n] : counts) reg.counter(name).add(std::uint64_t(n));
  reg.gauge("coordinator.nodes").set(double(nodes));
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

  // ---- Plan: tiles dealt to nodes, then over each node's devices
  // (Tile::device is the global device; its node is device / devices).
  // The run's modelled seconds are this plan's model.  Assignment never
  // affects output bits. ----
  const ModelConfig plan{.spec = node_spec(config),
                         .n_r = reference.segment_count(m),
                         .n_q = n_q, .dims = d, .window = m,
                         .mode = config.mode, .tiles = config.tiles,
                         .nodes = nodes, .devices = devices,
                         .assignment = config.assignment};
  const std::vector<Tile> tiles = plan_tiles(plan);

  // Conversions are staged once per run for every node (or across runs,
  // with a caller-provided cache such as the serve daemon's).
  StagingCache local_staging(reference, query);
  const RunInputs run{
      .reference = &reference, .query = &query, .config = &config,
      .tiles = &tiles,
      .staging = config.staging_cache != nullptr ? config.staging_cache
                                                 : &local_staging,
      .fingerprint = checkpoint_fingerprint(reference, query, config)};

  // ---- Resume: re-key journalled slices onto this grid (a bad journal
  // is a kResumeFallback event, never a failed run). ----
  RestoredState restored = restore_from_journals(
      config.checkpoint.resume_path, run.fingerprint, tiles, d, config);
  const std::vector<CheckpointSlice> prefixes = std::move(restored.prefixes);
  const std::map<std::string, std::uint64_t> journal_prefixes =
      std::move(restored.journal_prefixes);
  // The history restore read from the base journal is already in it when
  // this run continues that very file.
  const std::size_t journalled_events =
      journal_prefixes.count(config.checkpoint.write_path) != 0
          ? restored.base_events
          : 0;

  // ---- Deal and plan the node faults.  The node injector is separate
  // from config.fault_injector, which keeps addressing devices by their
  // global indices across every fleet. ----
  gpusim::FaultInjector node_injector;
  SchedulerCore::NodeFaultPlan plan_node_fault;
  if (!config.node_faults.empty()) {
    node_injector.configure(config.node_faults);
    plan_node_fault = [&node_injector](int k, std::uint64_t claim) {
      return node_injector.plan(gpusim::FaultSite::kNodeTile, k, claim);
    };
  }
  const std::size_t fleet = std::size_t(nodes) * std::size_t(devices);
  Driver s{run,
           SchedulerCore(config, tiles, d, std::move(restored),
                         plan_node_fault),
           std::vector<NodeState>(std::size_t(nodes)),
           std::vector<gpusim::CancellationToken>(fleet),
           prefixes,
           journal_prefixes,
           journalled_events,
           wall,
           node_injector,
           registry.histogram("resilient.tile_seconds")};
  struct PublishOnExit {
    const SchedulerCore& core;
    int nodes;
    ~PublishOnExit() { publish_tally(core.health(), nodes); }
  } publish{s.core, nodes};

  if (s.core.outstanding() > 0) {
    for (int k = 0; k < nodes; ++k) {
      NodeState& node = s.nodes[std::size_t(k)];
      node.system = std::make_unique<gpusim::System>(
          node_spec(config), devices, node_workers(config),
          /*index_base=*/k * devices);
      node.system->attach_fault_injector(config.fault_injector);
      const std::string& path = config.checkpoint.write_path;
      node.journal_path = path.empty() || nodes == 1
                              ? path
                              : journal_segment_path(path, k);
      node.live_workers = devices;
      node.span = std::make_unique<ScopedEvent>(
          registry, "node " + std::to_string(k), k, "node");
    }

    // Workers always start, even with an empty initial queue: a device
    // may receive all of its work as orphans, requeues, backups or steals.
    std::vector<std::thread> workers;
    workers.reserve(fleet);
    for (int g = 0; g < int(fleet); ++g) {
      workers.emplace_back([&s, g] { device_worker(s, g); });
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
    if (s.failure) std::rethrow_exception(s.failure);
  }

  // ---- Interruption: append what the segments still lack — commits
  // since the last append and the events — and unwind. ----
  if (s.core.outstanding() > 0 && config.resilience.honor_shutdown &&
      (s.core.interrupted() || shutdown_requested())) {
    if (config.checkpoint.enabled()) {
      for (int k = 0; k < nodes; ++k) {  // the workers have joined
        const std::string staged = stage_journal(s, k);
        append_journal(s, *s.nodes[std::size_t(k)].segment, staged);
      }
      if (nodes > 1) {  // events go to the base journal only
        const std::span events =
            std::span(s.core.health().events).subspan(s.journalled_events);
        const std::unique_ptr<JournalWriter> base =
            journal_writer(s, config.checkpoint.write_path);
        base->add_events(events);
        append_journal(s, *base, std::to_string(events.size()) + " event(s)");
      }
    }
    std::string what = "run interrupted: " +
                       std::to_string(tiles.size() - s.core.outstanding()) +
                       "/" + std::to_string(tiles.size()) +
                       " tiles committed";
    if (config.checkpoint.enabled()) {
      what += "; checkpoint flushed to " + config.checkpoint.write_path +
              " (resume with --resume=" + config.checkpoint.write_path + ")";
    }
    throw InterruptedError(what);
  }

  // ---- Graceful degradation: finish what no device could on the CPU
  // reference path. ----
  for (std::size_t t = 0; t < tiles.size() && s.core.outstanding() > 0;
       ++t) {
    if (s.core.done().committed[t]) continue;
    const Tile& tile = tiles[t];
    TileResult result;
    {
      ScopedEvent span(registry,
                       "tile " + std::to_string(tile.id) + " cpu-fallback",
                       -1, "cpu", &s.tile_seconds);
      compute_tile_on_cpu(reference, query, m, tile, config.exclusion,
                          result);
    }
    s.core.cpu_commit(t, result);
  }

  // ---- Compaction: a complete run leaves one complete journal. ----
  if (config.checkpoint.enabled()) {
    for (NodeState& node : s.nodes) node.segment.reset();
    s.core.journal_written(
        compact_journal(s.run, s.core.done(), s.core.health().events));
  }

  MatrixProfileResult out =
      assemble_tile_results(tiles, s.core.results(), n_q, d, config.workers);
  const ModelReport planned = model_tiles(plan, tiles);
  out.modeled_device_seconds = planned.device_seconds;
  out.modeled_merge_seconds = planned.merge_seconds;

  // ---- Health report. ----
  out.health = s.core.health();
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
