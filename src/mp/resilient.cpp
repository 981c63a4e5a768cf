#include "mp/resilient.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/stream.hpp"
#include "mp/checkpoint.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/model.hpp"
#include "mp/single_tile.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// Splits a tile ledger total into kernel vs copy seconds (the copy share
/// can overlap compute when multiple streams are configured).
struct TileTimes {
  double kernels = 0.0;
  double copies = 0.0;
};

TileTimes tile_times(const gpusim::KernelLedger& ledger) {
  TileTimes t;
  for (const auto& [name, stats] : ledger.all()) {
    if (name.rfind("memcpy", 0) == 0) {
      t.copies += stats.modeled_seconds;
    } else {
      t.kernels += stats.modeled_seconds;
    }
  }
  return t;
}

/// A unit of schedulable work: one tile at its current precision rung.
struct TileJob {
  std::size_t index = 0;       ///< into the tile/result arrays
  PrecisionMode mode = PrecisionMode::FP64;
  int retries_here = 0;        ///< attempts burned on the current device
  bool speculative = false;    ///< watchdog-launched backup attempt
  std::set<int> exhausted;     ///< devices whose retry budget this tile spent
};

/// Counters + histograms of the resilient scheduler, registered once in
/// the global registry (per-call cost: relaxed atomics, nothing when the
/// registry is disabled).
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

/// One in-flight attempt, visible to the watchdog monitor.  The token is
/// owned by the executing worker's stack frame; the record is erased
/// before that frame unwinds, so the pointer cannot dangle.
struct AttemptRecord {
  std::size_t job_index = 0;
  int tile_id = 0;
  int device = -1;
  PrecisionMode mode = PrecisionMode::FP64;
  double start_seconds = 0.0;    ///< run-clock time the attempt started
  double modeled_seconds = 0.0;  ///< perf-model estimate for the deadline
  gpusim::CancellationToken* token = nullptr;
  bool speculative = false;
  bool fired = false;            ///< watchdog already flagged this attempt
};

/// Shared scheduler state, guarded by one mutex.
struct SchedulerState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<TileJob>> queues;  ///< per-device work queues
  std::vector<char> deferred;  ///< per tile: handed to on_deferred
  std::vector<char> blacklisted;
  std::vector<int> consecutive_failed_tiles;
  RunHealth health;  ///< counters only; events go to `log`
  EventLog* log = nullptr;

  // ---- Durability & liveness layer. ----
  std::vector<char> committed;       ///< per tile: done here or elsewhere
  std::vector<int> backups_inflight; ///< per tile: queued/running backups
  std::vector<int> watchdog_strikes; ///< per device: deadline overruns
  std::uint64_t next_attempt_id = 0;
  std::map<std::uint64_t, AttemptRecord> inflight;
  double wall_per_modeled = 0.0;  ///< EWMA calibration of the perf model
  bool interrupted = false;       ///< shutdown observed; run is unwinding
  bool stop_monitor = false;
  std::size_t total_commits = 0;
  std::size_t commits_since_checkpoint = 0;
  std::mutex checkpoint_mutex;    ///< serialises journal writes (I/O only)

  // ---- Row-slice durability + node bookkeeping. ----
  std::vector<CheckpointSlice> partials;  ///< per tile: best snapshot so far
  std::size_t slice_commits_total = 0;
  bool shard_failed = false;       ///< NodeFailedError: shard is going down
  std::string shard_fail_reason;
};

void log_event(SchedulerState& st, RunEvent event) {
  st.log->add(std::move(event));
}

/// Everything the per-device workers need to execute tiles: the run
/// shared by every shard plus this node's fleet and coordinator hooks.
struct RunContext : ShardRun {
  gpusim::System* system = nullptr;
  std::vector<gpusim::StreamPool*> pools;
  const Stopwatch* clock = nullptr;   ///< shard clock (watchdog time base)
  const ShardHooks* hooks = nullptr;
  int device_base = 0;                ///< local dev -> global device index
  int journal_node = -1;              ///< node id journalled with slices
  std::string journal_path;           ///< "" = not journalling
};

/// Picks the healthiest destination queue for a requeued job (fewest
/// pending tiles, skipping blacklisted devices and devices the job has
/// already exhausted); defers the tile to the coordinator when none
/// remain.  Caller holds the lock.
void requeue_locked(const RunContext& ctx, SchedulerState& st, TileJob job,
                    int tile_id) {
  if (st.committed[job.index]) return;  // another attempt already won
  if (job.speculative) {
    // A requeued backup becomes an ordinary job; the backup slot frees up
    // so the watchdog may speculate again if the primary stays stuck.
    st.backups_inflight[job.index] -= 1;
    job.speculative = false;
  }
  int target = -1;
  std::size_t best = 0;
  for (int dev = 0; dev < int(st.queues.size()); ++dev) {
    if (st.blacklisted[std::size_t(dev)] != 0) continue;
    if (job.exhausted.count(dev) != 0) continue;
    const std::size_t depth = st.queues[std::size_t(dev)].size();
    if (target < 0 || depth < best) {
      target = dev;
      best = depth;
    }
  }
  job.retries_here = 0;
  st.health.reassigned_tiles += 1;
  SchedulerMetrics::get().reassigned.add();
  if (target < 0) {
    if (st.deferred[job.index]) return;  // already deferred once
    log_event(st, {RunEvent::Kind::kDeferredToCpu, tile_id, -1, ""});
    st.deferred[job.index] = 1;
    ctx.hooks->on_deferred(job.index);
  } else {
    log_event(st, {RunEvent::Kind::kReassigned, tile_id, target, ""});
    st.queues[std::size_t(target)].push_back(std::move(job));
  }
}

/// Marks `dev` blacklisted and hands its in-hand job elsewhere.  Orphans
/// still queued on `dev` are work-stolen by the healthy workers.  Caller
/// holds the lock.
void blacklist_locked(SchedulerState& st, int dev, bool offline,
                      const std::string& why) {
  st.blacklisted[std::size_t(dev)] = 1;
  st.health.blacklist_events += 1;
  SchedulerMetrics::get().blacklists.add();
  auto& status = st.health.devices[std::size_t(dev)];
  status.blacklisted = true;
  status.offline = offline;
  log_event(st, {RunEvent::Kind::kBlacklisted, -1, dev, why});
}

/// Runs one attempt of a tile on `dev` as a single stream task and
/// synchronizes that stream, so any failure is attributed to this tile.
void execute_attempt(const RunContext& ctx, int dev, PrecisionMode mode,
                     const Tile& tile, TileResult& result,
                     const gpusim::CancellationToken* cancel,
                     const SliceProgress* slice) {
  gpusim::Device& device = ctx.system->device(dev);
  gpusim::Stream& stream = ctx.pools[std::size_t(dev)]->next();
  dispatch_precision(mode, [&]<typename Traits>() {
    SingleTileEngine<Traits>::enqueue(device, &stream, *ctx.reference,
                                      *ctx.query, ctx.config->window, tile,
                                      ctx.config->exclusion, result,
                                      ctx.staging, ctx.config->row_path,
                                      ctx.config->prefilter, cancel, slice);
  });
  stream.synchronize();
}

/// Column-wise min/argmin fold of (src_profile, src_index) into the dst
/// arrays — the same lexicographic tie rule as merge_sub_tiles and
/// merge_tile_results (smaller distance wins; on equal distance the
/// smaller non-negative index wins; NaN never displaces).  Folding a
/// journalled row-slice prefix into the tail rows' attempt with this rule
/// reproduces the uninterrupted run's bits because the rule is exactly
/// the per-row profile update's and is associative.
void min_merge_into(std::vector<double>& dst_profile,
                    std::vector<std::int64_t>& dst_index,
                    const std::vector<double>& src_profile,
                    const std::vector<std::int64_t>& src_index) {
  for (std::size_t e = 0; e < dst_profile.size(); ++e) {
    const double p = src_profile[e];
    const std::int64_t idx = src_index[e];
    if (p < dst_profile[e] ||
        (p == dst_profile[e] && idx >= 0 &&
         (dst_index[e] < 0 || idx < dst_index[e]))) {
      dst_profile[e] = p;
      dst_index[e] = idx;
    }
  }
}

/// Column-wise min/argmin merge of row sub-tiles into their parent tile's
/// result slot.  The sub-tiles cover disjoint reference rows of the same
/// query columns, so entries align 1:1; the tie rule is exactly
/// merge_tile_results' (smaller distance wins; on equal distance the
/// smaller non-negative index wins; NaN never displaces), and because the
/// rule is a lexicographic min it is associative — merging sub-tiles here
/// and then tiles at run level is bit-identical to merging the sub-tiles
/// as planner tiles directly.
void merge_sub_tiles(const TileResult& left, const TileResult& right,
                     TileResult& out) {
  const std::size_t entries = left.profile.size();
  out.profile.assign(entries, std::numeric_limits<double>::infinity());
  out.index.assign(entries, -1);
  for (const TileResult* sub : {&left, &right}) {
    for (std::size_t e = 0; e < entries; ++e) {
      const double p = sub->profile[e];
      const std::int64_t idx = sub->index[e];
      if (p < out.profile[e] ||
          (p == out.profile[e] && idx >= 0 &&
           (out.index[e] < 0 || idx < out.index[e]))) {
        out.profile[e] = p;
        out.index[e] = idx;
      }
    }
  }
  out.qt.clear();  // the right half restarted its own recurrence
  out.ledger.reset();
  out.ledger.merge_from(left.ledger);
  out.ledger.merge_from(right.ledger);
  out.prefilter = {};
  out.prefilter.merge_from(left.prefilter);
  out.prefilter.merge_from(right.prefilter);
}

/// Executes a tile, degrading under memory pressure: when the device
/// cannot hold the tile's working set, split it along the row axis with
/// the planner's split_range boundaries (first half takes the extra row)
/// and run the halves sequentially, each restarting from its own
/// precalculation.  Recurses until the pieces fit or the split budget is
/// spent (then the DeviceMemoryError propagates like any other fault).
void execute_with_split(const RunContext& ctx, SchedulerState& st, int dev,
                        PrecisionMode mode, const Tile& tile,
                        TileResult& result,
                        const gpusim::CancellationToken* cancel, int depth,
                        const SliceProgress* slice) {
  try {
    execute_attempt(ctx, dev, mode, tile, result, cancel, slice);
    return;
  } catch (const DeviceMemoryError& e) {
    const ResilienceConfig& rc = ctx.config->resilience;
    if (depth >= rc.max_tile_splits || tile.r_count < 2) throw;
    Tile left = tile;
    Tile right = tile;
    left.r_count = tile.r_count - tile.r_count / 2;
    right.r_begin = tile.r_begin + left.r_count;
    right.r_count = tile.r_count - left.r_count;
    {
      std::lock_guard lock(st.mutex);
      st.health.tile_splits += 1;
      SchedulerMetrics::get().tile_splits.add();
      log_event(st, {RunEvent::Kind::kTileSplit, tile.id, dev,
                     "rows [" + std::to_string(tile.r_begin) + ", +" +
                         std::to_string(tile.r_count) + ") split at +" +
                         std::to_string(left.r_count) + ": " + e.what()});
    }
    TileResult left_result, right_result;
    // Sub-tiles restart from their own precalculation and cover the full
    // row ranges: no prefix resume, no snapshot emission (their row state
    // is not a prefix of the whole tile's).
    execute_with_split(ctx, st, dev, mode, left, left_result, cancel,
                       depth + 1, nullptr);
    execute_with_split(ctx, st, dev, mode, right, right_result, cancel,
                       depth + 1, nullptr);
    merge_sub_tiles(left_result, right_result, result);
  }
}

/// Journals the committed tiles the coordinator's journal hook hands out
/// (as complete row slices) plus the best partial row-slice of every
/// in-flight tile and the event history.  The copy is taken under the
/// scheduler lock; the file I/O runs outside it (serialised by
/// checkpoint_mutex so concurrent committers cannot interleave temp
/// files).
void write_checkpoint_now(const RunContext& ctx, SchedulerState& st) {
  if (ctx.journal_path.empty()) return;
  std::lock_guard io(st.checkpoint_mutex);
  CheckpointData data;
  {
    std::lock_guard lock(st.mutex);
    data = ctx.hooks->journal(st.partials);
    data.events = st.log->snapshot();
    st.commits_since_checkpoint = 0;
  }
  write_journal(ctx.journal_path, data, *st.log);
  std::lock_guard lock(st.mutex);
  st.health.checkpoint_writes += 1;
}

/// Stops the shard on a shutdown request: marks it interrupted and
/// cancels every in-flight attempt.  Caller holds the lock.
void interrupt_locked(const RunContext& ctx, SchedulerState& st) {
  st.interrupted = true;
  log_event(st, {RunEvent::Kind::kInterrupted, -1, -1,
                 std::to_string(st.total_commits) + "/" +
                     std::to_string(ctx.tiles->size()) + " tiles committed"});
  for (auto& [id, attempt] : st.inflight) attempt.token->cancel();
  st.cv.notify_all();
}

/// SliceProgress::on_slice sink: records the snapshot of rows
/// [0, rows_done) of tile `t` (with its QT row) as its journalled partial
/// slice, keeping the furthest snapshot when concurrent attempts race,
/// flushes the journal, and honours the kill_after_slices chaos hook.
/// `prefix` (optional) is the restored row prefix this attempt resumed
/// from; its rows are folded in so the stored slice always covers rows
/// from 0.  The snapshot's vectors are swapped with the slot's, so the
/// engine refills the previous snapshot's buffers instead of allocating.
void note_slice_snapshot(const RunContext& ctx, SchedulerState& st,
                         std::size_t t, int dev,
                         const CheckpointSlice* prefix,
                         SliceSnapshot& snap) {
  const Tile& tile = (*ctx.tiles)[t];
  if (prefix != nullptr) {
    min_merge_into(snap.profile, snap.index, prefix->profile, prefix->index);
  }
  const std::size_t rows_done = snap.rows_done;
  bool kill_due = false;
  {
    std::lock_guard lock(st.mutex);
    if (st.committed[t] || st.interrupted) return;
    CheckpointSlice& slot = st.partials[t];
    if (slot.r_count >= rows_done) return;  // a racing attempt got further
    slot.tile_index = t;
    slot.tile_id = std::int32_t(tile.id);
    slot.device = std::int32_t(ctx.device_base + dev);
    slot.node = std::int32_t(ctx.journal_node);
    slot.complete = 0;
    slot.mode = ctx.config->mode;
    slot.r_begin = tile.r_begin;
    slot.r_count = rows_done;
    slot.q_begin = tile.q_begin;
    slot.q_count = tile.q_count;
    slot.dims = ctx.reference->dims();
    slot.profile.swap(snap.profile);
    slot.index.swap(snap.index);
    slot.qt.swap(snap.qt);
    st.health.slice_commits += 1;
    SchedulerMetrics::get().slice_commits.add();
    st.slice_commits_total += 1;
    kill_due =
        ctx.config->checkpoint.kill_after_slices > 0 &&
        st.slice_commits_total ==
            std::size_t(ctx.config->checkpoint.kill_after_slices);
  }
  write_checkpoint_now(ctx, st);
  if (!kill_due) return;
  request_shutdown();
  // Stop this shard now, not at the monitor's next poll: the snapshotting
  // attempt then unwinds at its next row instead of racing on to commit
  // its tile, so the slice just journalled is what a resume restores.
  if (ctx.config->resilience.honor_shutdown) {
    std::lock_guard lock(st.mutex);
    if (!st.interrupted) interrupt_locked(ctx, st);
  }
}

/// Watchdog + shutdown monitor.  Wakes every watchdog_poll_ms: propagates
/// a requested shutdown to every in-flight attempt (cancel + unwind), and
/// — when the watchdog is enabled — flags attempts that overran their
/// deadline, launches speculative backups on other healthy devices, and
/// blacklists devices that keep hanging.
void monitor_thread(const RunContext& ctx, SchedulerState& st) {
  const ResilienceConfig& rc = ctx.config->resilience;
  const auto poll = std::chrono::duration<double, std::milli>(
      rc.watchdog_poll_ms);
  std::unique_lock lock(st.mutex);
  while (!st.stop_monitor) {
    st.cv.wait_for(lock, poll, [&] { return st.stop_monitor; });
    if (st.stop_monitor) break;

    if (rc.honor_shutdown && !st.interrupted && shutdown_requested()) {
      interrupt_locked(ctx, st);
    }

    // Withdraw local attempts of tiles another node already committed
    // (the cross-node analogue of the commit block's first-finisher-wins
    // cancellation).  Runs with or without the watchdog — it is a
    // liveness mechanism, not a performance one.
    bool swept = false;
    for (auto& [id, attempt] : st.inflight) {
      const std::size_t t = attempt.job_index;
      if (!st.committed[t]) {
        if (!ctx.hooks->committed_elsewhere(t)) continue;
        st.committed[t] = 1;
      }
      attempt.token->cancel();
      swept = true;
    }
    if (swept) st.cv.notify_all();
    if (!rc.watchdog || st.interrupted) continue;
    if (st.wall_per_modeled <= 0.0) continue;  // no calibration yet

    const double now = ctx.clock->seconds();
    for (auto& [id, attempt] : st.inflight) {
      if (attempt.fired) continue;
      const double deadline =
          std::max(rc.watchdog_min_deadline_ms * 1e-3,
                   rc.watchdog_slack * st.wall_per_modeled *
                       attempt.modeled_seconds);
      const double elapsed = now - attempt.start_seconds;
      if (elapsed < deadline) continue;

      attempt.fired = true;
      st.health.watchdog_fires += 1;
      SchedulerMetrics::get().watchdog_fires.add();
      log_event(st, {RunEvent::Kind::kWatchdogFired, attempt.tile_id,
                     attempt.device,
                     "attempt overran its deadline (" +
                         std::to_string(elapsed) + " s vs " +
                         std::to_string(deadline) + " s)"});
      if (MetricsRegistry::global().enabled()) {
        auto& reg = MetricsRegistry::global();
        reg.record_event({"watchdog fire tile " +
                              std::to_string(attempt.tile_id),
                          attempt.device, "watchdog", reg.now_seconds(),
                          0.0});
      }

      // Repeated hangs feed the blacklist exactly like failed tiles.
      st.watchdog_strikes[std::size_t(attempt.device)] += 1;
      const bool drop =
          st.blacklisted[std::size_t(attempt.device)] == 0 &&
          st.watchdog_strikes[std::size_t(attempt.device)] >=
              rc.blacklist_after;
      if (drop) {
        blacklist_locked(st, attempt.device, /*offline=*/false,
                         std::to_string(rc.blacklist_after) +
                             " watchdog deadline overruns");
        for (auto& [other_id, other] : st.inflight) {
          if (other.device == attempt.device) other.token->cancel();
        }
      }

      // Speculative re-execution: one backup per tile at a time, on the
      // least-loaded healthy device that is not the overdue one.  With no
      // such device the overdue attempt is cancelled instead, turning the
      // hang into an ordinary retry on whatever device remains.
      if (rc.speculate && st.committed[attempt.job_index] == 0 &&
          st.backups_inflight[attempt.job_index] == 0) {
        int target = -1;
        std::size_t best = 0;
        for (int dev = 0; dev < int(st.queues.size()); ++dev) {
          if (dev == attempt.device) continue;
          if (st.blacklisted[std::size_t(dev)] != 0) continue;
          const std::size_t depth = st.queues[std::size_t(dev)].size();
          if (target < 0 || depth < best) {
            target = dev;
            best = depth;
          }
        }
        if (target >= 0) {
          TileJob backup;
          backup.index = attempt.job_index;
          backup.mode = attempt.mode;
          backup.speculative = true;
          st.backups_inflight[attempt.job_index] += 1;
          st.queues[std::size_t(target)].push_back(std::move(backup));
          log_event(st, {RunEvent::Kind::kSpeculated, attempt.tile_id,
                         target,
                         "backup of the attempt on device " +
                             std::to_string(attempt.device)});
        } else if (!drop) {
          attempt.token->cancel();
        }
      }
      st.cv.notify_all();
    }
  }
}

/// Per-device supervisor: pulls tiles from its own queue (or steals
/// orphans from blacklisted devices' queues), retries transient faults
/// with exponential backoff, escalates numerically poisoned tiles, and
/// exits when blacklisted, interrupted, or when no work can remain.
void device_worker(const RunContext& ctx, SchedulerState& st, int dev) {
  const ResilienceConfig& rc = ctx.config->resilience;
  gpusim::CancellationToken token;
  for (;;) {
    TileJob job;
    bool stolen = false;
    {
      std::unique_lock lock(st.mutex);
      // An empty local backlog is not the end: tiles may still arrive
      // from the coordinator (released by a crashed node, duplicated from
      // a straggler, stolen from a loaded peer), so idle workers poll
      // acquire_more() and only exit once no tile needs device work any
      // more (all_done).
      for (;;) {
        if (st.blacklisted[std::size_t(dev)] != 0 || st.interrupted) return;
        if (!st.queues[std::size_t(dev)].empty()) break;
        bool orphan = false;
        for (int other = 0; other < int(st.queues.size()); ++other) {
          if (st.blacklisted[std::size_t(other)] != 0 &&
              !st.queues[std::size_t(other)].empty()) {
            orphan = true;
            break;
          }
        }
        if (orphan) break;
        if (ctx.hooks->all_done()) return;
        if (std::optional<std::size_t> extra = ctx.hooks->acquire_more()) {
          TileJob fetched;
          fetched.index = *extra;
          fetched.mode = ctx.config->mode;
          // The coordinator only hands out globally uncommitted tiles, so
          // a local committed marker here is a stale revoked-claim
          // tombstone (should_run said no earlier) — clear it or the
          // fetched job would be silently dropped.
          st.committed[*extra] = 0;
          st.queues[std::size_t(dev)].push_back(std::move(fetched));
          continue;
        }
        st.cv.wait_for(lock, std::chrono::milliseconds(25));
      }
      if (!st.queues[std::size_t(dev)].empty()) {
        job = std::move(st.queues[std::size_t(dev)].front());
        st.queues[std::size_t(dev)].pop_front();
      } else {
        for (int other = 0; other < int(st.queues.size()); ++other) {
          if (st.blacklisted[std::size_t(other)] != 0 &&
              !st.queues[std::size_t(other)].empty()) {
            job = std::move(st.queues[std::size_t(other)].front());
            st.queues[std::size_t(other)].pop_front();
            stolen = true;
            break;
          }
        }
      }
      // Stale work: the tile was committed (by a primary or a backup)
      // while this job sat in a queue.
      if (st.committed[job.index]) {
        if (job.speculative) st.backups_inflight[job.index] -= 1;
        continue;
      }
      // The coordinator gets the final say — the tile may have committed
      // on another node (or this node's duplicate claim lapsed) while the
      // job sat queued here.
      if (!ctx.hooks->should_run(job.index)) {
        if (job.speculative) st.backups_inflight[job.index] -= 1;
        st.committed[job.index] = 1;
        continue;
      }
    }
    const Tile& tile = (*ctx.tiles)[job.index];
    if (stolen) {
      std::lock_guard lock(st.mutex);
      st.health.reassigned_tiles += 1;
      SchedulerMetrics::get().reassigned.add();
      log_event(st, {RunEvent::Kind::kStolen, tile.id, dev, ""});
    }

    // ---- Attempt loop: retries and precision escalations. ----
    bool announced = false;  ///< node-fault hook fired for this popped job
    for (;;) {
      // Attempts run into a local result so concurrent attempts of the
      // same tile (primary + speculative backup) never share state; the
      // winner moves its vectors into the pinned slot under the lock.
      TileResult attempt;
      token.reset();
      std::uint64_t attempt_id;
      const double modeled_seconds = model_tile_seconds(
          ctx.system->device(dev).spec(), tile, ctx.reference->dims(),
          ctx.config->window, job.mode);

      // Row-slice durability for this attempt.  A restored prefix only
      // applies at its own precision (escalated attempts recompute the
      // whole tile); snapshots are only emitted at the run's base mode
      // (an escalated tile's partial state would not be restorable) and
      // never under the sketch prefilter (the engine refuses anyway).
      const CheckpointSlice* prefix = nullptr;
      if (ctx.prefixes != nullptr) {
        const CheckpointSlice& p = (*ctx.prefixes)[job.index];
        if (p.r_count > 0 && p.mode == job.mode) prefix = &p;
      }
      const bool journal_slices =
          ctx.config->checkpoint.enabled() &&
          ctx.config->checkpoint.slice_rows > 0 &&
          job.mode == ctx.config->mode &&
          !ctx.config->prefilter.enabled();
      SliceProgress progress;
      const SliceProgress* slice_ptr = nullptr;
      if (prefix != nullptr || journal_slices) {
        if (prefix != nullptr) {
          progress.start_row = std::size_t(prefix->r_count);
          progress.start_qt = prefix->qt;
        }
        if (journal_slices) {
          progress.slice_rows =
              std::size_t(ctx.config->checkpoint.slice_rows);
          progress.on_slice = [&ctx, &st, t = job.index, dev,
                               prefix](SliceSnapshot& snap) {
            note_slice_snapshot(ctx, st, t, dev, prefix, snap);
          };
        }
        slice_ptr = &progress;
      }

      {
        std::lock_guard lock(st.mutex);
        if (st.committed[job.index] || st.interrupted) {
          if (job.speculative) st.backups_inflight[job.index] -= 1;
          break;
        }
        attempt_id = st.next_attempt_id++;
        st.inflight.emplace(
            attempt_id,
            AttemptRecord{job.index, tile.id, dev, job.mode,
                          ctx.clock->seconds(), modeled_seconds, &token,
                          job.speculative, false});
      }
      Stopwatch attempt_wall;
      try {
        // Measured wall-clock span of this attempt: the trace line every
        // Fig.4/Fig.5-style analysis of a *real* run is built from.
        ScopedEvent span(MetricsRegistry::global(),
                         "tile " + std::to_string(tile.id) + " " +
                             to_string(job.mode) +
                             (job.speculative ? " speculative" : ""),
                         dev, "tile", &SchedulerMetrics::get().tile_seconds);
        SchedulerMetrics::get().attempts.add();
        // Node-level fault hook, once per popped job, registered in
        // inflight first so an injected node stall stays cancellable
        // (watchdog, cross-node commit sweep, shutdown).
        if (!announced) {
          announced = true;
          ctx.hooks->on_tile_start(job.index, &token);
        }
        execute_with_split(ctx, st, dev, job.mode, tile, attempt, &token, 0,
                           slice_ptr);
      } catch (const NodeFailedError& e) {
        // The simulated *node* is gone: unwind the whole shard.  Every
        // sibling attempt is cancelled; the journal is deliberately NOT
        // flushed (a crashed node does not get a last orderly write).
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        if (!st.shard_failed) {
          st.shard_failed = true;
          st.shard_fail_reason = e.what();
          st.interrupted = true;
          for (auto& [other_id, other] : st.inflight) other.token->cancel();
        }
        st.cv.notify_all();
        return;
      } catch (const CancelledError&) {
        // Not a fault: the scheduler itself withdrew this attempt.
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        if (st.committed[job.index]) {
          if (job.speculative) {
            st.backups_inflight[job.index] -= 1;
            st.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(st,
                      {RunEvent::Kind::kSpeculationLost, tile.id, dev, ""});
          }
          break;  // tile done elsewhere; fetch the next job
        }
        if (ctx.hooks->committed_elsewhere(job.index)) {
          // Cancelled because another *node* committed the tile (the
          // monitor sweep may not have marked it locally yet).
          st.committed[job.index] = 1;
          if (job.speculative) st.backups_inflight[job.index] -= 1;
          break;
        }
        if (st.interrupted) {
          if (job.speculative) st.backups_inflight[job.index] -= 1;
          break;  // run is unwinding; the wait predicate exits the worker
        }
        if (st.blacklisted[std::size_t(dev)] != 0) {
          requeue_locked(ctx, st, std::move(job), tile.id);
          st.cv.notify_all();
          return;  // this worker is done for good
        }
        continue;  // cancelled to break a hang: retry on the same device
      } catch (const DeviceFailedError& e) {
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        st.health.devices[std::size_t(dev)].faults += 1;
        blacklist_locked(st, dev, /*offline=*/true, e.what());
        requeue_locked(ctx, st, std::move(job), tile.id);
        st.cv.notify_all();
        return;  // this worker is done for good
      } catch (const std::exception& e) {
        std::unique_lock lock(st.mutex);
        st.inflight.erase(attempt_id);
        st.health.devices[std::size_t(dev)].faults += 1;
        if (job.retries_here < rc.max_retries) {
          job.retries_here += 1;
          st.health.retries += 1;
          SchedulerMetrics::get().retries.add();
          log_event(st, {RunEvent::Kind::kRetry, tile.id, dev,
                         std::string(e.what()) + " — retry " +
                             std::to_string(job.retries_here) + "/" +
                             std::to_string(rc.max_retries)});
          lock.unlock();
          const double ms =
              rc.backoff_ms * double(1 << (job.retries_here - 1));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
          continue;  // retry on the same device
        }
        // Retry budget spent here: the device failed this whole tile.
        st.consecutive_failed_tiles[std::size_t(dev)] += 1;
        job.exhausted.insert(dev);
        log_event(st,
                  {RunEvent::Kind::kRetriesExhausted, tile.id, dev, e.what()});
        const bool drop =
            st.consecutive_failed_tiles[std::size_t(dev)] >=
            rc.blacklist_after;
        if (drop) {
          blacklist_locked(st, dev, /*offline=*/false,
                           std::to_string(rc.blacklist_after) +
                               " consecutive failed tiles");
        }
        requeue_locked(ctx, st, std::move(job), tile.id);
        st.cv.notify_all();
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
        min_merge_into(attempt.profile, attempt.index, prefix->profile,
                       prefix->index);
      }

      // ---- Success: numerical self-healing, then commit. ----
      const double bad = non_finite_fraction(attempt.profile);
      if (rc.escalate_precision && bad > rc.non_finite_threshold) {
        const PrecisionMode next = escalated_precision(job.mode);
        if (next != job.mode) {
          std::lock_guard lock(st.mutex);
          st.inflight.erase(attempt_id);
          st.health.escalations.push_back(
              RunHealth::Escalation{tile.id, job.mode, next, bad});
          SchedulerMetrics::get().escalations.add();
          log_event(st, {RunEvent::Kind::kEscalated, tile.id, dev,
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
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        if (job.speculative) st.backups_inflight[job.index] -= 1;
        if (st.committed[job.index]) {
          // Lost the race against a concurrent attempt of the same tile.
          if (job.speculative) {
            st.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(st,
                      {RunEvent::Kind::kSpeculationLost, tile.id, dev, ""});
          }
          break;
        }
        st.committed[job.index] = 1;
        // First-commit-wins arbitration across nodes: the winning hook
        // takes the result into the coordinator's global arrays; a lost
        // race drops it (the tile is done, just not by us).
        const bool won = ctx.hooks->on_commit(
            job.index, attempt, ctx.device_base + dev, job.mode, kill_due);
        if (won) {
          st.partials[job.index] = CheckpointSlice{};  // superseded
          st.health.devices[std::size_t(dev)].tiles_completed += 1;
          SchedulerMetrics::get().tiles_completed.add();
        }
        st.consecutive_failed_tiles[std::size_t(dev)] = 0;
        st.watchdog_strikes[std::size_t(dev)] = 0;
        if (job.speculative && won) {
          st.health.speculative_wins += 1;
          SchedulerMetrics::get().speculative_wins.add();
          log_event(st, {RunEvent::Kind::kSpeculationWon, tile.id, dev, ""});
        }
        // First finisher wins: withdraw every other attempt of this tile.
        for (auto& [other_id, other] : st.inflight) {
          if (other.job_index == job.index) other.token->cancel();
        }
        // Calibrate the watchdog's wall-per-modelled ratio from real
        // completions (EWMA; hung attempts never get here, so a hang
        // cannot poison the deadline upward).
        if (modeled_seconds > 0.0 && attempt_seconds > 0.0) {
          const double rate = attempt_seconds / modeled_seconds;
          st.wall_per_modeled = st.wall_per_modeled <= 0.0
                                    ? rate
                                    : 0.7 * st.wall_per_modeled + 0.3 * rate;
        }
        if (won) {
          st.total_commits += 1;
          st.commits_since_checkpoint += 1;
          checkpoint_due =
              ctx.config->checkpoint.enabled() &&
              st.commits_since_checkpoint >=
                  std::size_t(ctx.config->checkpoint.interval_tiles);
        }
        st.cv.notify_all();
      }
      if (checkpoint_due) write_checkpoint_now(ctx, st);
      if (kill_due) request_shutdown();
      break;  // fetch the next job
    }
  }
}

/// Side journals a multi-node run may have left next to the base journal
/// (one per node id); restore probes this many of them.
constexpr int kMaxNodeJournals = 64;

/// Where node `node` of a run journals: `write_path` itself for a
/// one-node run, the side journal `write_path + ".node<k>"` otherwise
/// (the coordinator writes the run's journal to write_path).  "" = no
/// journal.
std::string shard_journal_path(const MatrixProfileConfig& config, int node) {
  const std::string& path = config.checkpoint.write_path;
  if (path.empty() || config.nodes == 1) return path;
  return path + ".node" + std::to_string(node);
}

}  // namespace

std::string RunEvent::to_string() const {
  const std::string tile = "tile " + std::to_string(tile_id);
  const std::string dev = "device " + std::to_string(device);
  switch (kind) {
    case Kind::kRetry:
      return tile + ": " + detail + " on " + dev;
    case Kind::kRetriesExhausted:
      return tile + ": retries exhausted on " + dev + " (" + detail + ")";
    case Kind::kReassigned:
      return tile + ": reassigned to " + dev;
    case Kind::kStolen:
      return tile + ": stolen by " + dev;
    case Kind::kBlacklisted:
      return dev + " blacklisted: " + detail;
    case Kind::kDeferredToCpu:
      return tile + ": no healthy device left, deferring to CPU fallback";
    case Kind::kCpuFallback:
      return tile + ": completed on the CPU reference path (FP64)";
    case Kind::kEscalated:
      return tile + ": " + detail;
    case Kind::kWatchdogFired:
      return tile + ": watchdog fired on " + dev + " (" + detail + ")";
    case Kind::kSpeculated:
      return tile + ": speculative backup launched on " + dev + " (" +
             detail + ")";
    case Kind::kSpeculationWon:
      return tile + ": speculative backup on " + dev + " won";
    case Kind::kSpeculationLost:
      return tile + ": attempt on " + dev + " cancelled, tile won elsewhere";
    case Kind::kTileSplit:
      return tile + ": memory pressure on " + dev + ", " + detail;
    case Kind::kResumed:
      return detail.empty() ? tile + ": restored from checkpoint"
                            : "checkpoint resume: " + detail;
    case Kind::kCheckpointWritten:
      return "checkpoint written (" + detail + ")";
    case Kind::kInterrupted:
      return "shutdown requested, stopping (" + detail + ")";
    case Kind::kResumeFallback:
      return "resume fallback: " + detail;
    case Kind::kSliceRestored:
      return tile + ": " + detail;
    case Kind::kSliceDiscarded:
      return tile + ": journalled slice discarded (" + detail + ")";
    case Kind::kNodeJoined:
      return "node " + std::to_string(device) + " joined (" + detail + ")";
    case Kind::kNodeCrashed:
      return "node " + std::to_string(device) + " crashed: " + detail;
    case Kind::kNodeStolen:
      return tile + ": stolen by node " + std::to_string(device) +
             (detail.empty() ? "" : " (" + detail + ")");
    case Kind::kNodeDuplicated:
      return tile + ": straggler duplicated to node " +
             std::to_string(device) + " (" + detail + ")";
  }
  return detail;
}

std::string RunHealth::summary() const {
  std::ostringstream os;
  os << "run health: " << (degraded ? "DEGRADED" : "clean") << " — "
     << faults_injected << " fault(s), " << retries << " retry(ies), "
     << reassigned_tiles << " reassignment(s), " << blacklist_events
     << " blacklist(s), " << cpu_fallback_tiles << " CPU-fallback tile(s), "
     << escalations.size() << " escalation(s)\n";
  if (resumed_tiles > 0 || checkpoint_writes > 0 || watchdog_fires > 0 ||
      speculative_wins > 0 || speculative_losses > 0 || tile_splits > 0 ||
      slice_commits > 0 || partial_slices > 0 || resume_fallbacks > 0 ||
      slices_discarded > 0) {
    os << "  durability: " << resumed_tiles << " tile(s) resumed, "
       << checkpoint_writes << " checkpoint write(s), " << watchdog_fires
       << " watchdog fire(s), " << speculative_wins << " speculative win(s)/"
       << speculative_losses << " loss(es), " << tile_splits
       << " tile split(s), " << slice_commits << " slice commit(s), "
       << partial_slices << " partial restore(s), " << slices_discarded
       << " slice(s) discarded, " << resume_fallbacks
       << " resume fallback(s)\n";
  }
  if (node_crashes > 0 || node_steals > 0 || node_duplicates > 0) {
    os << "  cluster: " << node_crashes << " node crash(es), " << node_steals
       << " cross-node steal(s), " << node_duplicates
       << " straggler duplicate(s)\n";
  }
  for (const auto& dev : devices) {
    os << "  device " << dev.device << ": " << dev.tiles_completed
       << " tile(s), " << dev.faults << " fault(s)"
       << (dev.offline ? ", OFFLINE" : dev.blacklisted ? ", BLACKLISTED" : "")
       << "\n";
  }
  for (const auto& esc : escalations) {
    os << "  tile " << esc.tile_id << ": escalated " << to_string(esc.from)
       << " -> " << to_string(esc.to) << " ("
       << int(100.0 * esc.non_finite_fraction) << "% non-finite)\n";
  }
  for (const auto& event : events) {
    os << "  | " << event.to_string() << "\n";
  }
  return os.str();
}

RestoredState restore_from_journals(const std::string& resume_path,
                                    std::uint64_t fingerprint,
                                    const std::vector<Tile>& tiles,
                                    std::size_t dims,
                                    const MatrixProfileConfig& config) {
  RestoredState out;
  out.reset(tiles.size(), config.mode);
  out.prefixes.assign(tiles.size(), CheckpointSlice{});
  if (resume_path.empty()) return out;

  auto note_fallback = [&out](const std::string& why) {
    out.fallbacks += 1;
    out.log.push_back({RunEvent::Kind::kResumeFallback, -1, -1, why});
  };

  // The base journal (the single-node / coordinator one) carries the
  // prior run's event history; per-node side journals only add slices.
  std::vector<CheckpointData> journals;
  std::string base_missing;
  try {
    CheckpointData data = read_checkpoint(resume_path);
    if (data.fingerprint != fingerprint) {
      note_fallback("journal '" + resume_path +
                    "' was written for different inputs or configuration "
                    "(fingerprint mismatch), starting fresh");
    } else {
      out.events = data.events;
      journals.push_back(std::move(data));
    }
  } catch (const CheckpointError& e) {
    if (e.reason() == CheckpointError::Reason::kMissing) {
      base_missing = e.what();
    } else {
      note_fallback("journal '" + resume_path + "' is unreadable (" +
                    e.what() + "), starting fresh");
    }
  }
  for (int node = 0; node < kMaxNodeJournals; ++node) {
    const std::string path = resume_path + ".node" + std::to_string(node);
    try {
      CheckpointData data = read_checkpoint(path);
      if (data.fingerprint != fingerprint) {
        note_fallback("journal '" + path +
                      "' was written for different inputs or configuration "
                      "(fingerprint mismatch), ignoring it");
        continue;
      }
      journals.push_back(std::move(data));
    } catch (const CheckpointError& e) {
      // Absent node journals are the norm: a run with fewer nodes simply
      // wrote fewer of them (and a crashed node never flushed one).
      if (e.reason() == CheckpointError::Reason::kMissing) continue;
      note_fallback("journal '" + path + "' is unreadable (" + e.what() +
                    "), ignoring it");
    }
  }
  if (!base_missing.empty() && journals.empty()) {
    note_fallback("journal '" + resume_path + "' is missing (" +
                  base_missing + "), starting fresh");
  }

  // Re-key every journalled slice by its absolute row/column ranges
  // against the *current* grid — the journal may have been written under
  // a different tile count or node count.
  for (const CheckpointData& data : journals) {
    for (const CheckpointSlice& slice : data.slices) {
      std::size_t target = tiles.size();
      SliceFit fit = SliceFit::kNone;
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        fit = classify_slice(std::size_t(slice.r_begin),
                             std::size_t(slice.r_count),
                             std::size_t(slice.q_begin),
                             std::size_t(slice.q_count),
                             std::size_t(slice.dims), tiles[t], dims);
        if (fit != SliceFit::kNone) {
          target = t;
          break;
        }
      }
      if (target == tiles.size()) {
        out.discarded += 1;
        out.log.push_back(
            {RunEvent::Kind::kSliceDiscarded, int(slice.tile_id),
             int(slice.device),
             "rows [" + std::to_string(slice.r_begin) + ", +" +
                 std::to_string(slice.r_count) + ") x cols [" +
                 std::to_string(slice.q_begin) + ", +" +
                 std::to_string(slice.q_count) +
                 ") does not fit the current tile grid"});
        continue;
      }
      if (fit == SliceFit::kComplete) {
        if (out.committed[target]) continue;  // duplicate across journals
        out.committed[target] = 1;
        out.results[target].profile = slice.profile;
        out.results[target].index = slice.index;
        out.results[target].qt = slice.qt;
        out.results[target].prefilter = slice.prefilter;
        out.executed_device[target] = int(slice.device);
        out.final_mode[target] = slice.mode;
        out.resumed += 1;
        continue;
      }
      // Row prefix: only usable at the run's base precision and without
      // the prefilter, and only with its QT row — the tail attempt
      // continues the recurrence from exactly that state.  The reader
      // admits an empty or an exactly sized row; a prefix without one (a
      // CPU-fallback, split or corrupted-input tile) is recomputed from
      // row 0.
      std::string unusable;
      if (slice.mode != config.mode || config.prefilter.enabled()) {
        unusable = "row prefix at " + to_string(slice.mode) +
                   " is not restorable under this configuration";
      } else if (slice.qt.size() != std::size_t(slice.q_count) *
                                        std::size_t(slice.dims) *
                                        storage_bytes(slice.mode)) {
        unusable = "row prefix carries no QT row (CPU-fallback, split or "
                   "corrupted-input tile); recomputed from row 0";
      }
      if (!unusable.empty()) {
        out.discarded += 1;
        out.log.push_back({RunEvent::Kind::kSliceDiscarded,
                           int(slice.tile_id), int(slice.device), unusable});
        continue;
      }
      CheckpointSlice& best = out.prefixes[target];
      if (std::size_t(slice.r_count) > std::size_t(best.r_count)) {
        best = slice;  // keep the furthest prefix
      }
    }
  }

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (out.committed[t]) {
      out.prefixes[t] = CheckpointSlice{};  // complete restore supersedes
      continue;
    }
    if (out.prefixes[t].r_count == 0) continue;
    out.partial += 1;
    out.log.push_back(
        {RunEvent::Kind::kSliceRestored, tiles[t].id,
         int(out.prefixes[t].device),
         "rows [0, +" + std::to_string(out.prefixes[t].r_count) + ") of " +
             std::to_string(tiles[t].r_count) +
             " restored; tail resumes from the journalled QT row"});
  }
  return out;
}

MatrixProfileResult assemble_tile_results(
    const std::vector<Tile>& tiles, std::vector<TileResult>& results,
    const std::vector<int>& executed_device, std::size_t n_q, std::size_t d,
    int streams_per_device) {
  // ---- CPU merge (Pseudocode 2, lines 6-8). ----
  // Parallel over output columns; bit-identical to the serial merge (each
  // column sees the tiles in the same ascending order).
  MatrixProfileResult out;
  {
    ScopedEvent span(MetricsRegistry::global(), "merge_tile_results", -1,
                     "cpu");
    ThreadPool merge_pool;
    merge_tile_results(tiles, results, n_q, d, out, &merge_pool);
  }

  // ---- Modelled makespan (grouped by the device that ran each tile;
  // device indices are global, so a multi-node run's makespan spans the
  // whole cluster's fleet). ----
  int device_count = 0;
  for (const int dev : executed_device) {
    device_count = std::max(device_count, dev + 1);
  }
  std::vector<TileTimes> device_time(static_cast<std::size_t>(device_count));
  std::vector<int> device_tiles(static_cast<std::size_t>(device_count), 0);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (executed_device[t] < 0) continue;  // CPU fallback: no device time
    const auto tt = tile_times(results[t].ledger);
    auto& acc = device_time[std::size_t(executed_device[t])];
    acc.kernels += tt.kernels;
    acc.copies += tt.copies;
    device_tiles[std::size_t(executed_device[t])] += 1;
  }
  double makespan = 0.0;
  for (std::size_t dev = 0; dev < device_time.size(); ++dev) {
    const bool overlapped = streams_per_device > 1 && device_tiles[dev] > 1;
    const double t = overlapped
                         ? std::max(device_time[dev].kernels,
                                    device_time[dev].copies)
                         : device_time[dev].kernels + device_time[dev].copies;
    makespan = std::max(makespan, t);
  }
  out.modeled_device_seconds = makespan;
  out.modeled_merge_seconds = 0.0;
  for (const auto& tile : tiles) {
    out.modeled_merge_seconds += model_merge_seconds(1, tile.q_count, d);
  }

  // ---- Per-kernel breakdown (successful attempts only). ----
  gpusim::KernelLedger merged;
  for (const auto& r : results) merged.merge_from(r.ledger);
  for (const auto& [name, stats] : merged.all()) {
    out.breakdown.push_back(KernelBreakdownEntry{
        name, stats.launches, stats.modeled_seconds, stats.measured_seconds});
  }
  // Per-kernel accounting in the registry: measured wall seconds next to
  // the roofline-modelled seconds of the same launches (registration cost
  // only here, at end of run; nothing when the registry is disabled).
  if (MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    for (const auto& entry : out.breakdown) {
      reg.counter("kernel." + entry.name + ".launches")
          .add(std::uint64_t(entry.launches));
      reg.gauge("kernel." + entry.name + ".wall_seconds")
          .set(entry.measured_seconds);
      reg.gauge("kernel." + entry.name + ".modeled_seconds")
          .set(entry.modeled_seconds);
    }
  }

  // ---- Prefilter accounting (sketch runs only; exact runs stay all-zero
  // and emit nothing).  Stats survive retries, sub-tile splits, checkpoint
  // resume and the CPU fallback because every path above fills or merges
  // the per-tile PrefilterStats it commits.
  for (const auto& r : results) out.prefilter.merge_from(r.prefilter);
  if (out.prefilter.any() && MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("prefilter.blocks_total").add(out.prefilter.blocks_total);
    reg.counter("prefilter.blocks_skipped")
        .add(out.prefilter.blocks_skipped);
    reg.counter("prefilter.blocks_verified")
        .add(out.prefilter.blocks_verified);
    reg.counter("prefilter.cols_skipped").add(out.prefilter.cols_skipped);
    reg.counter("prefilter.cols_verified").add(out.prefilter.cols_verified);
    reg.counter("prefilter.cols_missed").add(out.prefilter.cols_missed);
    reg.gauge("prefilter.miss_rate")
        .set(out.prefilter.cols_verified == 0
                 ? 0.0
                 : double(out.prefilter.cols_missed) /
                       double(out.prefilter.cols_verified));
  }
  return out;
}

void compute_tile_on_cpu(const TimeSeries& reference, const TimeSeries& query,
                         std::size_t window, const Tile& tile,
                         std::int64_t exclusion, TileResult& result) {
  const TimeSeries sub_ref = reference.slice(tile.r_begin,
                                             tile.r_count + window - 1);
  const TimeSeries sub_query = query.slice(tile.q_begin,
                                           tile.q_count + window - 1);
  CpuReferenceConfig cc;
  cc.window = window;
  cc.exclusion = exclusion;
  cc.r_offset = std::int64_t(tile.r_begin);
  cc.q_offset = std::int64_t(tile.q_begin);
  const CpuReferenceResult cpu =
      compute_matrix_profile_cpu(sub_ref, sub_query, cc);
  result.profile = cpu.profile;
  result.qt.clear();  // the CPU reference runs no reduced-precision QT row
  result.ledger.reset();
  result.prefilter = {};  // the CPU fallback always runs every column exact
  result.index.resize(cpu.index.size());
  for (std::size_t e = 0; e < cpu.index.size(); ++e) {
    // Local reference rows become global segment indices.
    result.index[e] =
        cpu.index[e] < 0 ? -1 : cpu.index[e] + std::int64_t(tile.r_begin);
  }
}

void CommittedTiles::reset(std::size_t tiles, PrecisionMode mode) {
  committed.assign(tiles, 0);
  results = std::vector<TileResult>(tiles);
  executed_device.assign(tiles, -1);
  final_mode.assign(tiles, mode);
}

void CommittedTiles::commit(std::size_t t, TileResult& result, int device,
                            PrecisionMode mode) {
  TileResult& slot = results[t];
  slot.profile = std::move(result.profile);
  slot.index = std::move(result.index);
  slot.qt = std::move(result.qt);
  slot.ledger.reset();
  slot.ledger.merge_from(result.ledger);
  slot.prefilter = result.prefilter;
  committed[t] = 1;
  executed_device[t] = device;
  final_mode[t] = mode;
}

void EventLog::add(RunEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<RunEvent> EventLog::snapshot() const {
  std::lock_guard lock(mutex_);
  return events_;
}

CheckpointData journal_data(const ShardRun& run, const CommittedTiles& done,
                            const std::vector<CheckpointSlice>& partials,
                            int node) {
  const std::vector<Tile>& tiles = *run.tiles;
  const int devices = run.config->devices;
  CheckpointData data;
  data.fingerprint = run.fingerprint;
  data.tile_count = tiles.size();
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (!done.committed[t]) {
      if (partials[t].r_count > 0) data.slices.push_back(partials[t]);
      continue;
    }
    const Tile& tile = tiles[t];
    const int device = done.executed_device[t];
    if (node >= 0 && (device < 0 || device / devices != node)) continue;
    CheckpointSlice entry;
    entry.tile_index = t;
    entry.tile_id = std::int32_t(tile.id);
    entry.device = std::int32_t(device);
    entry.node = run.config->nodes > 1 && device >= 0
                     ? std::int32_t(device / devices)
                     : -1;
    entry.complete = 1;
    entry.mode = done.final_mode[t];
    entry.r_begin = tile.r_begin;
    entry.r_count = tile.r_count;
    entry.q_begin = tile.q_begin;
    entry.q_count = tile.q_count;
    entry.dims = run.reference->dims();
    entry.profile = done.results[t].profile;
    entry.index = done.results[t].index;
    entry.qt = done.results[t].qt;
    entry.prefilter = done.results[t].prefilter;
    data.slices.push_back(std::move(entry));
  }
  return data;
}

void write_journal(const std::string& path, const CheckpointData& data,
                   EventLog& log) {
  write_checkpoint(path, data);
  std::size_t complete = 0;
  for (const CheckpointSlice& slice : data.slices) complete += slice.complete;
  SchedulerMetrics::get().checkpoint_writes.add();
  log.add({RunEvent::Kind::kCheckpointWritten, -1, -1,
           std::to_string(complete) + "/" + std::to_string(data.tile_count) +
               " tiles (" + std::to_string(data.slices.size() - complete) +
               " partial slices) -> " + path});
}

ShardOutcome run_resilient_shard(gpusim::System& system, const ShardRun& run,
                                 int node,
                                 const std::vector<std::size_t>& share,
                                 const ShardHooks& hooks) {
  const MatrixProfileConfig& config = *run.config;
  const std::vector<Tile>& tiles = *run.tiles;
  const int devices = system.device_count();
  Stopwatch wall;

  // One stream pool per device; a tile occupies one stream per attempt so
  // the stream's error capture isolates failures per tile.
  std::vector<std::unique_ptr<gpusim::StreamPool>> pools;
  for (int dev = 0; dev < devices; ++dev) {
    pools.push_back(std::make_unique<gpusim::StreamPool>(
        system.device(dev), config.streams_per_device));
  }

  RunContext ctx;
  static_cast<ShardRun&>(ctx) = run;
  ctx.system = &system;
  for (auto& pool : pools) ctx.pools.push_back(pool.get());
  ctx.clock = &wall;
  ctx.hooks = &hooks;
  ctx.device_base = node * devices;
  ctx.journal_node = config.nodes > 1 ? node : -1;
  ctx.journal_path = shard_journal_path(config, node);

  SchedulerState st;
  st.log = run.events;
  st.queues.resize(std::size_t(devices));
  st.deferred.assign(tiles.size(), 0);
  st.blacklisted.assign(std::size_t(devices), 0);
  st.consecutive_failed_tiles.assign(std::size_t(devices), 0);
  st.watchdog_strikes.assign(std::size_t(devices), 0);
  st.committed.assign(tiles.size(), 0);
  st.backups_inflight.assign(tiles.size(), 0);
  st.partials.assign(tiles.size(), CheckpointSlice{});
  for (int dev = 0; dev < devices; ++dev) {
    RunHealth::DeviceStatus status;
    status.device = ctx.device_base + dev;
    st.health.devices.push_back(status);
  }

  // Spread the node's share over its devices.  The rule runs over the
  // whole share, tiles restored from a journal included, so a resumed
  // run places its remaining tiles where the fresh run did.
  std::vector<Tile> placed;
  placed.reserve(share.size());
  for (const std::size_t t : share) placed.push_back(tiles[t]);
  if (config.assignment == TileAssignment::kLpt) {
    assign_tiles_lpt(placed, devices);
  } else {
    assign_tiles_round_robin(placed, devices);
  }
  for (std::size_t k = 0; k < share.size(); ++k) {
    const std::size_t t = share[k];
    if (hooks.committed_elsewhere(t)) {  // restored from a journal
      st.total_commits += 1;
      continue;
    }
    TileJob job;
    job.index = t;
    job.mode = config.mode;
    st.queues[std::size_t(placed[k].device)].push_back(std::move(job));
  }

  // Workers always start, even with an empty initial backlog: a shard may
  // receive all of its work via acquire_more (steals, released tiles of
  // crashed peers) and only retires at global completion.
  std::vector<std::thread> workers;
  workers.reserve(std::size_t(devices));
  for (int dev = 0; dev < devices; ++dev) {
    workers.emplace_back([&ctx, &st, dev] { device_worker(ctx, st, dev); });
  }
  std::thread monitor([&ctx, &st] { monitor_thread(ctx, st); });
  for (auto& w : workers) w.join();
  {
    std::lock_guard lock(st.mutex);
    st.stop_monitor = true;
  }
  st.cv.notify_all();
  monitor.join();

  ShardOutcome outcome;
  outcome.crashed = st.shard_failed;
  outcome.crash_reason = st.shard_fail_reason;
  outcome.interrupted = st.interrupted && !st.shard_failed;
  // A crashed node's in-memory slices die with it — exactly what elastic
  // resume has to survive.
  if (!st.shard_failed) outcome.partials = std::move(st.partials);
  outcome.health = std::move(st.health);
  return outcome;
}

}  // namespace mpsim::mp
