// Single-threaded simulation of mp::SchedulerCore on a virtual clock: the
// same transitions the device workers and the monitor drive, without
// threads.  Seeded schedules sweep nodes 1-3 x devices 1-3 x tiles 1-12 x
// steal on/off x watchdog on/off under transient faults, device loss,
// precision escalations, hangs, node crashes and stalls, kill hooks and
// interrupts, and check the core's invariants after every step:
//
//  * each tile commits at most once, and exactly once at the end of a run
//    that was not interrupted (on a device, on the CPU or restored);
//  * a crashed node commits nothing after its crash and keeps no partial
//    row slice;
//  * a tile's backup count equals its live speculative jobs (queued, held
//    between attempts or running);
//  * the tally adds up: attempts, commits, faults and the event kinds;
//  * an interrupted run starts no further attempt;
//  * a failed run starts, commits and journals nothing more and ends;
//  * no schedule deadlocks: some worker always has something to wait for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/model.hpp"
#include "mp/options.hpp"
#include "mp/resilient.hpp"
#include "mp/scheduler.hpp"

namespace mpsim::mp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTick = kWatchdogPollMs * 1e-3;
/// How soon a stalled attempt observes its cancelled token (the fault
/// injector's stall poll).
constexpr double kStallPoll = 0.002;

/// How one attempt behaves, decided when it starts.
struct Plan {
  double seconds = 0.01;       ///< busy time: rows x row time
  std::size_t rows = 16;
  double stall_at = kInf;      ///< busy time after which polls stop ...
  double stall_s = 0.0;        ///< ... for this long
  Outcome::Kind kind = Outcome::Kind::kDone;  ///< reported at the end
  double non_finite = 0.0;
};

/// Plans the attempt a claim starts (its node fault included).
using Planner = std::function<Plan(const Decision& claim, Rng& rng)>;

/// One simulated run's shape and chaos.
struct Scenario {
  MatrixProfileConfig config;
  std::vector<std::size_t> restored;  ///< tiles a journal already holds
  double transient = 0.0;  ///< per-attempt fault probabilities
  double device_loss = 0.0;
  double poison = 0.0;     ///< mostly non-finite result
  double hang = 0.0;       ///< polls stop part way for hang_s
  double hang_s = 3.0;
  double interrupt_at = kInf;
  double fail_at = kInf;   ///< the driver fails the run (a journal write)
  double crash_at = kInf;  ///< a crash of crash_node between attempts
  int crash_node = 0;
};

/// Applies a node fault the claim carries the way the driver's injector
/// does: a crash ends the attempt at once, a stall or slowdown stops its
/// polls from the start.
void apply_node_fault(const Decision& claim, Plan& plan) {
  if (!claim.node_fault) return;
  const gpusim::FaultRule& rule = *claim.node_fault;
  if (rule.kind == gpusim::FaultKind::kNodeCrash) {
    plan.kind = Outcome::Kind::kNodeLost;
    plan.seconds = 0.0;
    return;
  }
  plan.stall_at = 0.0;
  plan.stall_s = (rule.delay_ms >= 0.0 ? rule.delay_ms : 3000.0) * 1e-3;
}

class Sim {
 public:
  Sim(const Scenario& scenario, std::uint64_t seed, Planner planner = {})
      : sc_(scenario), rng_(seed), planner_(std::move(planner)) {
    const MatrixProfileConfig& config = sc_.config;
    ModelConfig model;
    model.spec = gpusim::spec_by_name(config.machine);
    model.n_r = 96;
    model.n_q = 80;
    model.dims = 2;
    model.window = config.window;
    model.mode = config.mode;
    model.tiles = config.tiles;
    model.nodes = config.nodes;
    model.devices = config.devices;
    tiles_ = plan_tiles(model);

    RestoredState restored;
    restored.reset(tiles_.size(), config.mode);
    for (const std::size_t t : sc_.restored) {
      restored.committed[t] = 1;
      restored.resumed += 1;
    }
    SchedulerCore::NodeFaultPlan plan;
    if (!config.node_faults.empty()) {
      injector_.configure(config.node_faults);
      plan = [this](int k, std::uint64_t claim) {
        return injector_.plan(gpusim::FaultSite::kNodeTile, k, claim);
      };
    }
    core_.emplace(config, tiles_, model.dims, std::move(restored), plan);
    workers_.resize(std::size_t(config.nodes * config.devices));
    commits_.assign(tiles_.size(), 0);
    for (const std::size_t t : sc_.restored) commits_[t] = 1;
    started_.assign(tiles_.size(), 0);
  }

  /// Runs to the end: every worker exited, then the CPU fallback.
  void run() {
    check();
    for (std::size_t step = 0; !::testing::Test::HasFailure(); ++step) {
      ASSERT_LT(step, 2'000'000u) << "runaway schedule";
      claim_ready();
      if (::testing::Test::HasFailure()) return;
      if (!next_event()) break;
      check();
    }
    for (const Worker& w : workers_) {
      ASSERT_EQ(w.state, Worker::State::kExited) << "deadlock at " << now_;
    }
    ASSERT_TRUE(core_->inflight().empty());
    SchedulerCore& core = *core_;
    if (core.failed()) return;  // the driver rethrows the error
    if (core.interrupted() && core.outstanding() > 0) return;  // unwinds
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (core.done().committed[t]) continue;
      TileResult result;
      core.cpu_commit(t, result);
      commits_[t] += 1;
    }
    check();
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      EXPECT_EQ(commits_[t], 1) << "tile " << t;
    }
  }

  const SchedulerCore& core() const { return *core_; }
  double now() const { return now_; }

  std::string event_log() const {
    std::ostringstream os;
    for (const RunEvent& event : core_->health().events) {
      os << event.to_string() << "\n";
    }
    return os.str();
  }

 private:
  struct Worker {
    enum class State { kReady, kWaiting, kRunning, kSleeping, kExited };
    State state = State::kReady;
    double wake = 0.0;  ///< kSleeping: claim again then
    // kRunning:
    Decision claim;
    Plan plan;
    double start = 0.0;
    double end = 0.0;   ///< when it reports its outcome
    bool cancelled = false;
    std::size_t next_slice = 0;  ///< rows of the next snapshot (0 = none)
  };

  int node_of(int g) const { return g / sc_.config.devices; }

  double row_s(const Worker& w) const {
    return w.plan.seconds / double(std::max<std::size_t>(w.plan.rows, 1));
  }
  /// Run-clock time at which the attempt has been busy for `busy` s.
  double at_busy(const Worker& w, double busy) const {
    return w.start + busy + (busy > w.plan.stall_at ? w.plan.stall_s : 0.0);
  }
  bool stalled(const Worker& w, double t) const {
    const double from = w.start + w.plan.stall_at;
    return t >= from && t < from + w.plan.stall_s;
  }
  /// Token polls so far: one per row of busy time.
  std::uint64_t polls(const Worker& w) const {
    if (w.plan.seconds <= 0.0) return 0;
    double busy = now_ - w.start;
    const double from = w.start + w.plan.stall_at;
    if (now_ > from) busy -= std::min(now_, from + w.plan.stall_s) - from;
    return std::uint64_t(std::max(0.0, busy) / row_s(w));
  }
  double slice_time(const Worker& w) const {
    if (w.next_slice == 0 || w.next_slice >= w.plan.rows) return kInf;
    return at_busy(w, double(w.next_slice) * row_s(w));
  }

  Plan random_plan(const Decision& claim) {
    Plan plan;
    const Tile& tile = tiles_[claim.attempt.job.index];
    plan.rows = tile.r_count;
    plan.seconds = double(plan.rows) * rng_.uniform(2e-4, 2e-3);
    const double u = rng_.uniform();
    if (u < sc_.transient) {
      plan.kind = Outcome::Kind::kTransient;
      plan.seconds *= rng_.uniform();
    } else if (u < sc_.transient + sc_.device_loss) {
      plan.kind = Outcome::Kind::kDeviceLost;
      plan.seconds *= rng_.uniform();
    } else if (rng_.uniform() < sc_.hang) {
      plan.stall_at = plan.seconds * rng_.uniform();
      plan.stall_s = sc_.hang_s;
    }
    if (rng_.uniform() < sc_.poison) plan.non_finite = 0.5;
    apply_node_fault(claim, plan);
    return plan;
  }

  void wake_all() {
    for (Worker& w : workers_) {
      if (w.state == Worker::State::kWaiting) w.state = Worker::State::kReady;
    }
  }

  /// The token of attempt `id` is cancelled now: the attempt observes it
  /// at its next poll unless it reports first.
  void cancel(std::uint64_t id) {
    Worker& w = workers_[std::size_t(core_->inflight().at(id).device)];
    ASSERT_EQ(w.state, Worker::State::kRunning);
    ASSERT_EQ(w.claim.attempt.id, id);
    if (w.cancelled) return;
    w.cancelled = true;
    const double seen = now_ + (stalled(w, now_) ? kStallPoll : row_s(w));
    if (seen < w.end) {
      w.end = seen;
      w.plan.kind = Outcome::Kind::kCancelled;
    }
  }

  /// Applies a decision's effects for device `g` (-1 = none).
  void apply(const Decision& d, int g) {
    if (core_->failed()) {
      EXPECT_FALSE(d.journal) << "journal due after fail at " << now_;
      EXPECT_FALSE(d.kill) << "kill due after fail at " << now_;
    }
    for (const std::uint64_t id : d.cancel) cancel(id);
    if (d.journal && !core_->crashed(node_of(g))) {
      core_->journal_written({RunEvent::Kind::kCheckpointWritten, -1, -1,
                              "node " + std::to_string(node_of(g))});
    }
    if (d.kill) apply(core_->interrupt(), -1);
  }

  void claim_ready() {
    for (bool any = true; any;) {
      any = false;
      for (int g = 0; g < int(workers_.size()); ++g) {
        Worker& w = workers_[std::size_t(g)];
        if (w.state != Worker::State::kReady) continue;
        any = true;
        Decision d = core_->claim(g, now_);
        if (d.kind == Decision::Kind::kWait) {
          w.state = Worker::State::kWaiting;
          check();
          continue;
        }
        wake_all();
        if (d.kind == Decision::Kind::kExit) {
          w.state = Worker::State::kExited;
          check();
          continue;
        }
        ASSERT_EQ(d.kind, Decision::Kind::kRun);
        ASSERT_FALSE(core_->interrupted()) << "attempt started after interrupt";
        ASSERT_FALSE(core_->failed()) << "attempt started after fail";
        runs_ += 1;
        started_[d.attempt.job.index] = 1;
        w.state = Worker::State::kRunning;
        w.plan = planner_ ? planner_(d, rng_) : random_plan(d);
        w.start = now_;
        w.end = at_busy(w, w.plan.seconds);
        w.cancelled = false;
        const CheckpointConfig& ck = sc_.config.checkpoint;
        w.next_slice = ck.enabled() && d.attempt.job.mode == sc_.config.mode
                           ? std::size_t(ck.slice_rows)
                           : 0;
        w.claim = std::move(d);
        check();
      }
    }
  }

  /// Processes the earliest pending event; false when there is none.
  bool next_event() {
    SchedulerCore& core = *core_;
    // The monitor stops once every worker is gone.
    if (std::all_of(workers_.begin(), workers_.end(), [](const Worker& w) {
          return w.state == Worker::State::kExited;
        })) {
      return false;
    }
    double best = kInf;
    int who = -1;
    bool running = false;
    for (int g = 0; g < int(workers_.size()); ++g) {
      const Worker& w = workers_[std::size_t(g)];
      double t = kInf;
      if (w.state == Worker::State::kRunning) {
        running = true;
        t = std::min(w.end, slice_time(w));
      } else if (w.state == Worker::State::kSleeping) {
        t = w.wake;
      }
      if (t < best) {
        best = t;
        who = g;
      }
    }
    const double tick = sc_.config.resilience.watchdog && running
                            ? (std::floor(now_ / kTick + 1e-6) + 1.0) * kTick
                            : kInf;
    const double interrupt_at =
        core.interrupted() ? kInf : std::max(now_, sc_.interrupt_at);
    const double crash_at = core.crashed(sc_.crash_node)
                                ? kInf
                                : std::max(now_, sc_.crash_at);
    const double fail_at =
        core.failed() ? kInf : std::max(now_, sc_.fail_at);
    const double next =
        std::min({best, tick, interrupt_at, crash_at, fail_at});
    if (next == kInf) {
      for (const Worker& w : workers_) {
        EXPECT_NE(w.state, Worker::State::kWaiting)
            << "deadlock: a worker waits with nothing in flight at " << now_;
      }
      return false;
    }
    now_ = next;
    if (who >= 0 && best == next) {
      step_worker(who);
    } else if (tick == next) {
      std::vector<std::uint64_t> counts(workers_.size(), 0);
      for (std::size_t g = 0; g < workers_.size(); ++g) {
        if (workers_[g].state == Worker::State::kRunning) {
          counts[g] = polls(workers_[g]);
        }
      }
      const int fires = core.health().watchdog_fires;
      const Decision d = core.tick(now_, counts);
      EXPECT_EQ(int(d.fired.size()), core.health().watchdog_fires - fires);
      for (const std::uint64_t id : d.fired) {
        EXPECT_EQ(core.inflight().count(id), 1u) << "fired attempt " << id;
      }
      apply(d, -1);
      wake_all();
    } else if (interrupt_at == next) {
      apply(core.interrupt(), -1);
      wake_all();
    } else if (fail_at == next) {
      apply(core.fail(), -1);
      wake_all();
    } else {
      apply(core.crash(sc_.crash_node, "simulated crash"), -1);
      wake_all();
    }
    return true;
  }

  void step_worker(int g) {
    SchedulerCore& core = *core_;
    Worker& w = workers_[std::size_t(g)];
    if (w.state == Worker::State::kSleeping) {
      w.state = Worker::State::kReady;
      return;
    }
    const std::size_t t = w.claim.attempt.job.index;
    if (slice_time(w) < w.end) {  // a row-slice snapshot
      SliceSnapshot snap;
      snap.rows_done = w.next_slice;
      const int kept = core.health().slice_commits;
      const Decision d = core.slice(t, g, snap);
      if (core.health().slice_commits != kept) {  // the node's partial now
        EXPECT_EQ(core.partials(node_of(g))[t].r_count, w.next_slice);
      }
      w.next_slice += std::size_t(sc_.config.checkpoint.slice_rows);
      apply(d, g);
      return;
    }
    Outcome outcome;
    outcome.kind = w.plan.kind;
    outcome.non_finite = w.plan.non_finite;
    outcome.error = "simulated fault";
    // After a fail the core drops every outcome unread.
    if (!core.failed() && (outcome.kind == Outcome::Kind::kTransient ||
                           outcome.kind == Outcome::Kind::kDeviceLost)) {
      faults_ += 1;
    }
    const bool crashed_before = core.crashed(node_of(g));
    const bool failed_before = core.failed();
    const bool was_committed = core.done().committed[t] != 0;
    const Decision d = core.finish(w.claim.attempt.id, outcome, now_);
    if (!was_committed && core.done().committed[t]) {
      EXPECT_FALSE(failed_before) << "tile " << t << " committed after fail";
      EXPECT_FALSE(crashed_before) << "crashed node " << node_of(g)
                                   << " committed tile " << t;
      EXPECT_EQ(commits_[t], 0) << "tile " << t << " committed twice";
      commits_[t] += 1;
      EXPECT_EQ(core.done().executed_device[t], g);
      for (const auto& [id, other] : core.inflight()) {
        if (other.job.index != t) continue;
        EXPECT_NE(std::find(d.cancel.begin(), d.cancel.end(), id),
                  d.cancel.end())
            << "attempt " << id << " of committed tile " << t << " runs on";
      }
    }
    w.state = Worker::State::kReady;
    switch (d.kind) {
      case Decision::Kind::kClaim:
        if (d.backoff_ms > 0.0) {
          w.state = Worker::State::kSleeping;
          w.wake = now_ + d.backoff_ms * 1e-3;
        }
        break;
      case Decision::Kind::kExit:
        w.state = Worker::State::kExited;
        break;
      default:
        ADD_FAILURE() << "finish decided kind " << int(d.kind);
    }
    apply(d, g);
    wake_all();
  }

  /// The invariants, after every step.
  void check() {
    const SchedulerCore& core = *core_;
    const std::size_t n = tiles_.size();
    // Backups: queued, held and running speculative jobs per tile.
    std::vector<int> live(n, 0);
    for (const auto& queue : core.queues()) {
      for (const TileJob& job : queue) live[job.index] += job.speculative;
    }
    for (const auto& held : core.held()) {
      if (held) live[held->index] += held->speculative;
    }
    for (const auto& [id, attempt] : core.inflight()) {
      live[attempt.job.index] += attempt.job.speculative;
    }
    for (std::size_t t = 0; t < n; ++t) {
      ASSERT_EQ(core.backups(t), live[t]) << "tile " << t << " at " << now_;
      ASSERT_EQ(core.done().committed[t] != 0, commits_[t] == 1)
          << "tile " << t;
    }
    // Partial slices: a crashed node keeps none, and none outlives its
    // tile's commit on the node that holds it.
    for (int k = 0; k < sc_.config.nodes; ++k) {
      for (std::size_t t = 0; t < n; ++t) {
        const std::uint64_t rows = core.partials(k)[t].r_count;
        if (core.crashed(k)) {
          ASSERT_EQ(rows, 0u) << "node " << k;
        }
        const int g = core.done().executed_device[t];
        if (core.done().committed[t] && g >= 0 && node_of(g) == k) {
          ASSERT_EQ(rows, 0u) << "tile " << t << " node " << k;
        }
      }
    }
    // The tally.
    const RunHealth& h = core.health();
    int device_commits = 0;
    int faults = 0;
    for (const auto& dev : h.devices) {
      device_commits += dev.tiles_completed;
      faults += dev.faults;
    }
    int committed = 0;
    int started = 0;
    for (std::size_t t = 0; t < n; ++t) {
      committed += commits_[t];
      started += started_[t];
    }
    ASSERT_EQ(device_commits + h.cpu_fallback_tiles + h.resumed_tiles,
              committed);
    ASSERT_EQ(committed, int(n - core.outstanding()));
    ASSERT_EQ(h.attempts, runs_);
    ASSERT_EQ(h.tiles_dispatched, started);
    ASSERT_EQ(faults, faults_);
    std::vector<int> kinds(32, 0);
    for (const RunEvent& event : h.events) kinds[std::size_t(event.kind)] += 1;
    const auto count = [&](RunEvent::Kind kind) {
      return kinds[std::size_t(kind)];
    };
    ASSERT_EQ(count(RunEvent::Kind::kRetry), h.retries);
    ASSERT_EQ(count(RunEvent::Kind::kBlacklisted), h.blacklist_events);
    ASSERT_EQ(count(RunEvent::Kind::kWatchdogFired), h.watchdog_fires);
    ASSERT_EQ(count(RunEvent::Kind::kSpeculationWon), h.speculative_wins);
    ASSERT_EQ(count(RunEvent::Kind::kSpeculationLost), h.speculative_losses);
    ASSERT_EQ(count(RunEvent::Kind::kEscalated), int(h.escalations.size()));
    ASSERT_EQ(count(RunEvent::Kind::kNodeCrashed), h.node_crashes);
    ASSERT_EQ(count(RunEvent::Kind::kNodeStolen), h.node_steals);
    ASSERT_EQ(count(RunEvent::Kind::kCheckpointWritten), h.checkpoint_writes);
    ASSERT_EQ(count(RunEvent::Kind::kCpuFallback), h.cpu_fallback_tiles);
    ASSERT_GE(h.reassigned_tiles, count(RunEvent::Kind::kReassigned) +
                                      count(RunEvent::Kind::kStolen) +
                                      count(RunEvent::Kind::kDeferredToCpu));
    ASSERT_LE(h.speculative_wins + h.speculative_losses,
              count(RunEvent::Kind::kSpeculated));
  }

  Scenario sc_;
  Rng rng_;
  Planner planner_;
  std::vector<Tile> tiles_;
  gpusim::FaultInjector injector_;
  std::optional<SchedulerCore> core_;
  std::vector<Worker> workers_;
  std::vector<int> commits_;   ///< per tile: commits seen
  std::vector<int> started_;   ///< per tile: some attempt started
  int runs_ = 0;               ///< kRun claims
  int faults_ = 0;             ///< transient and device-loss outcomes
  double now_ = 0.0;
};

MatrixProfileConfig sim_config(int nodes, int devices, int tiles) {
  MatrixProfileConfig config;
  config.window = 16;
  config.mode = PrecisionMode::FP16;
  config.nodes = nodes;
  config.devices = devices;
  config.tiles = tiles;
  return config;
}

/// A seeded chaos mix over one shape.
Scenario random_scenario(int nodes, int devices, int tiles, bool steal,
                         bool watchdog, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Scenario sc;
  sc.config = sim_config(nodes, devices, tiles);
  MatrixProfileConfig& config = sc.config;
  config.steal = steal;
  config.resilience.watchdog = watchdog;
  config.resilience.escalate_precision = rng.uniform() < 0.5;
  sc.transient = rng.uniform(0.0, 0.3);
  sc.device_loss = rng.uniform() < 0.3 ? rng.uniform(0.0, 0.1) : 0.0;
  sc.poison = rng.uniform() < 0.3 ? rng.uniform(0.0, 0.3) : 0.0;
  // Without the watchdog a hang simply runs out its stall.
  sc.hang = rng.uniform() < 0.4 ? rng.uniform(0.0, 0.3) : 0.0;
  sc.hang_s = rng.uniform(0.5, 3.0);
  if (rng.uniform() < 0.5) {
    config.checkpoint.write_path = "journal";  // decisions only, no I/O
    config.checkpoint.interval_tiles = 1 + int(rng.uniform_index(3));
    if (rng.uniform() < 0.5) config.checkpoint.slice_rows = 8;
    if (rng.uniform() < 0.2) {
      config.checkpoint.kill_after_tiles = 1 + int(rng.uniform_index(4));
    }
    if (rng.uniform() < 0.2) {
      config.checkpoint.kill_after_slices = 1 + int(rng.uniform_index(6));
    }
  }
  std::string faults;
  const auto add_fault = [&](const std::string& rule) {
    faults += (faults.empty() ? "" : ",") + rule;
  };
  const auto node = [&] { return std::to_string(rng.uniform_index(nodes)); };
  const auto at = [&] { return std::to_string(1 + rng.uniform_index(3)); };
  if (rng.uniform() < 0.3) add_fault("node_crash@" + node() + ":at=" + at());
  if (rng.uniform() < 0.2) {
    add_fault("node_stall@" + node() + ":at=" + at() + ":ms=" +
              std::to_string(500 + rng.uniform_index(2500)));
  }
  if (rng.uniform() < 0.2) add_fault("node_slow@" + node() + ":every=2:ms=20");
  config.node_faults = faults;
  if (rng.uniform() < 0.1) sc.interrupt_at = rng.uniform(0.0, 0.2);
  if (rng.uniform() < 0.1) {
    sc.crash_at = rng.uniform(0.0, 0.2);
    sc.crash_node = int(rng.uniform_index(nodes));
  }
  if (rng.uniform() < 0.15) {
    for (int t = 0; t < tiles; ++t) {
      if (rng.uniform() < 0.4) sc.restored.push_back(std::size_t(t));
    }
  }
  return sc;
}

TEST(SchedulerSim, SeededSchedulesKeepEveryInvariant) {
  int schedules = 0;
  int crashes = 0, fires = 0, wins = 0, escalations = 0, cpu = 0;
  int interrupts = 0, steals = 0, blacklists = 0, retries = 0;
  for (int nodes = 1; nodes <= 3; ++nodes) {
    for (int devices = 1; devices <= 3; ++devices) {
      for (int tiles = 1; tiles <= 12; ++tiles) {
        for (const bool steal : {false, true}) {
          for (const bool watchdog : {false, true}) {
            for (std::uint64_t seed = 0; seed < 5; ++seed) {
              const std::uint64_t key =
                  ((((std::uint64_t(nodes) * 4 + devices) * 16 + tiles) * 2 +
                    steal) * 2 + watchdog) * 8 + seed;
              const Scenario sc = random_scenario(nodes, devices, tiles,
                                                  steal, watchdog, key);
              Sim sim(sc, key);
              sim.run();
              ASSERT_FALSE(::testing::Test::HasFailure())
                  << "nodes " << nodes << " devices " << devices
                  << " tiles " << tiles << " steal " << steal
                  << " watchdog " << watchdog << " seed " << seed
                  << " node faults '" << sc.config.node_faults << "'\n"
                  << sim.event_log();
              const RunHealth& h = sim.core().health();
              schedules += 1;
              crashes += h.node_crashes;
              fires += h.watchdog_fires;
              wins += h.speculative_wins;
              escalations += int(h.escalations.size());
              cpu += h.cpu_fallback_tiles;
              interrupts += sim.core().interrupted();
              steals += h.node_steals;
              blacklists += h.blacklist_events;
              retries += h.retries;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(schedules, 2000);
  // The sweep reaches every kind of decision.
  EXPECT_GT(crashes, 0);
  EXPECT_GT(fires, 0);
  EXPECT_GT(wins, 0);
  EXPECT_GT(escalations, 0);
  EXPECT_GT(cpu, 0);
  EXPECT_GT(interrupts, 0);
  EXPECT_GT(steals, 0);
  EXPECT_GT(blacklists, 0);
  EXPECT_GT(retries, 0);
}

TEST(SchedulerSim, SameSeedGivesTheSameEventLog) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario sc = random_scenario(1 + int(seed % 3), 1 + int(seed % 2),
                                        1 + int(seed % 12), seed % 2 == 0,
                                        true, seed);
    Sim first(sc, seed);
    first.run();
    Sim second(sc, seed);
    second.run();
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_EQ(first.event_log(), second.event_log()) << "seed " << seed;
    EXPECT_EQ(first.now(), second.now()) << "seed " << seed;
  }
}

TEST(SchedulerSim, FailedRunStartsAndCommitsNothingMoreAndEnds) {
  // The driver fails the run when a thread root catches an error no retry
  // can clear (an unwritable journal).  From then on no attempt starts,
  // none commits, no journal or kill is due, the running attempts are
  // cancelled and every worker exits — under the seeded chaos mix.
  int failed = 0, cut_short = 0;
  for (int nodes = 1; nodes <= 3; ++nodes) {
    for (int devices = 1; devices <= 2; ++devices) {
      for (const int tiles : {1, 4, 9}) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
          const std::uint64_t key =
              ((std::uint64_t(nodes) * 4 + devices) * 16 + tiles) * 16 + seed;
          Scenario sc =
              random_scenario(nodes, devices, tiles, true, seed % 2, key);
          sc.interrupt_at = kInf;
          sc.fail_at = 0.004 * double(seed);
          Sim sim(sc, key);
          sim.run();
          ASSERT_FALSE(::testing::Test::HasFailure())
              << "nodes " << nodes << " devices " << devices << " tiles "
              << tiles << " seed " << seed << "\n"
              << sim.event_log();
          failed += sim.core().failed();
          cut_short += sim.core().failed() && sim.core().outstanding() > 0;
        }
      }
    }
  }
  EXPECT_GT(failed, 50);
  EXPECT_GT(cut_short, 50);
}

TEST(SchedulerSim, StalledFirstAttemptIsCancelledRetriedAndCommitted) {
  // One device, no calibration yet: the first attempts stop polling at
  // once and would stall for a minute.  After kWatchdogSlack x
  // kWatchdogMinDeadlineMs without progress the watchdog cancels each and
  // the retry runs on the same device, its limit doubled.  Uncalibrated
  // fires add no strike, so even kBlacklistAfter of them in a row leave
  // the device healthy and the tile is committed there, not on the CPU.
  Scenario sc;
  sc.config = sim_config(1, 1, 1);
  sc.config.resilience.watchdog = true;
  int attempts = 0;
  Sim sim(sc, 1, [&attempts](const Decision&, Rng&) {
    Plan plan;
    plan.seconds = 0.05;
    if (attempts++ < kBlacklistAfter) {
      plan.stall_at = 0.0;
      plan.stall_s = 60.0;
    }
    return plan;
  });
  sim.run();
  const RunHealth& h = sim.core().health();
  EXPECT_EQ(h.watchdog_fires, kBlacklistAfter);
  EXPECT_EQ(h.attempts, kBlacklistAfter + 1);
  EXPECT_EQ(h.speculative_wins, 0);
  EXPECT_EQ(h.cpu_fallback_tiles, 0);
  ASSERT_EQ(h.devices.size(), 1u);
  EXPECT_EQ(h.devices[0].tiles_completed, 1);
  EXPECT_FALSE(h.devices[0].blacklisted);
  const double limit = kWatchdogSlack * kWatchdogMinDeadlineMs * 1e-3;
  const double limits = limit * ((1 << kBlacklistAfter) - 1);  // doubling
  EXPECT_GE(sim.now(), limits);
  EXPECT_LT(sim.now(), limits + kBlacklistAfter * 2 * kTick + 0.06);
}

TEST(SchedulerSim, SlowPollsBeforeCalibrationStillFinish) {
  // Polls further apart than the uncalibrated limit (a fused row batch,
  // say) on the only device: each fire doubles the job's limit, and after
  // kMaxRetries fires the job is left alone, so the run always ends with
  // the tile committed on the device.  A 1 s gap is outgrown by the first
  // doubling; a 60 s gap runs into the cap.
  const double limit = kWatchdogSlack * kWatchdogMinDeadlineMs * 1e-3;
  for (const double gap : {1.0, 60.0}) {
    Scenario sc;
    sc.config = sim_config(1, 1, 1);
    sc.config.resilience.watchdog = true;
    Sim sim(sc, 1, [gap](const Decision&, Rng&) {
      Plan plan;
      plan.rows = 6;
      plan.seconds = 6 * gap;
      return plan;
    });
    sim.run();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "gap " << gap;
    int fires = 0;
    while (fires < kMaxRetries && std::ldexp(limit, fires) <= gap) fires += 1;
    const RunHealth& h = sim.core().health();
    EXPECT_EQ(h.watchdog_fires, fires) << "gap " << gap;
    EXPECT_EQ(h.attempts, fires + 1) << "gap " << gap;
    EXPECT_EQ(h.cpu_fallback_tiles, 0);
    ASSERT_EQ(h.devices.size(), 1u);
    EXPECT_EQ(h.devices[0].tiles_completed, 1);
    EXPECT_FALSE(h.devices[0].blacklisted);
  }
}

TEST(SchedulerSim, ProgressingFirstAttemptIsNotFired) {
  // The same uncalibrated attempt polls steadily but takes 20 x that
  // limit: progress, not elapsed time, is what the watchdog watches.
  Scenario sc;
  sc.config = sim_config(1, 1, 1);
  sc.config.resilience.watchdog = true;
  const double limit = kWatchdogSlack * kWatchdogMinDeadlineMs * 1e-3;
  Sim sim(sc, 1, [limit](const Decision&, Rng&) {
    Plan plan;
    plan.seconds = 20.0 * limit;
    plan.rows = 4000;
    return plan;
  });
  sim.run();
  const RunHealth& h = sim.core().health();
  EXPECT_EQ(h.watchdog_fires, 0);
  EXPECT_EQ(h.attempts, 1);
  ASSERT_EQ(h.devices.size(), 1u);
  EXPECT_EQ(h.devices[0].tiles_completed, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0 * limit);
}

}  // namespace
}  // namespace mpsim::mp
