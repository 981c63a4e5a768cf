// Tests for the multi-node extension: functional equivalence with
// single-node execution, the scaling behaviour of the model, and the
// coordinator (sharded execution, cross-node recovery, and
// grid/node-count-changing resume — all bit-identical to one node).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "common/stopwatch.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/model.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim {
namespace {

SyntheticDataset small_dataset() {
  SyntheticSpec spec;
  spec.segments = 256;
  spec.dims = 3;
  spec.window = 16;
  spec.injections_per_dim = 1;
  return make_synthetic_dataset(spec);
}

TEST(Cluster, MultiNodeMatchesSingleNodeResults) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 16;
  config.devices = 2;

  config.nodes = 1;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);
  config.nodes = 4;
  const auto four =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(one.profile, four.profile);
  EXPECT_EQ(one.index, four.index);
}

TEST(Cluster, ComputeTimeShrinksWithNodes) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 16;
  config.devices = 2;

  config.nodes = 1;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);
  config.nodes = 4;
  const auto four =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_LT(four.modeled_device_seconds, one.modeled_device_seconds * 0.5);

  // ...but only multi-node runs pay network time.
  mp::ModelConfig model;
  model.spec = gpusim::a100();
  model.n_r = model.n_q = data.reference.segment_count(config.window);
  model.dims = one.dims;
  model.window = config.window;
  model.tiles = config.tiles;
  model.devices = config.devices;
  model.nodes = 1;
  EXPECT_DOUBLE_EQ(mp::model_cluster(model).network_seconds, 0.0);
  model.nodes = 4;
  EXPECT_GT(mp::model_cluster(model).network_seconds, 0.0);
}

/// A Raven-like cluster at paper scale: 4 A100s per node, n x n segments,
/// d = m = 2^6, 64 tiles.
mp::ModelConfig raven(std::size_t n, int nodes) {
  mp::ModelConfig config;
  config.spec = gpusim::a100();
  config.n_r = config.n_q = n;
  config.dims = 64;
  config.window = 64;
  config.tiles = 64;
  config.nodes = nodes;
  config.devices = 4;
  return config;
}

TEST(ClusterModel, NearLinearScalingAtPaperScale) {
  const auto one = mp::model_cluster(raven(1 << 16, 1));
  const auto four = mp::model_cluster(raven(1 << 16, 4));
  const double speedup = one.total_seconds() / four.total_seconds();
  EXPECT_GT(speedup, 3.0);   // near-linear
  EXPECT_LE(speedup, 4.05);  // no super-linear nonsense
}

TEST(ClusterModel, NetworkCostGrowsLogarithmically) {
  const double net2 = mp::model_cluster(raven(1 << 16, 2)).network_seconds;
  const double net8 = mp::model_cluster(raven(1 << 16, 8)).network_seconds;
  // Binomial tree: 1 round at 2 nodes, 3 rounds at 8.
  EXPECT_NEAR(net8 / net2, 3.0, 0.01);
}

TEST(ClusterModel, InterconnectBandwidthMatters) {
  mp::InterconnectSpec slow;
  slow.bandwidth_gbs = 1.0;  // 10 GbE-class
  const auto f = mp::model_cluster(raven(1 << 18, 8));
  const auto s = mp::model_cluster(raven(1 << 18, 8), slow);
  EXPECT_GT(s.network_seconds, f.network_seconds * 10.0);
  EXPECT_DOUBLE_EQ(s.device_seconds, f.device_seconds);
}

TEST(Cluster, ValidatesConfiguration) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.nodes = 0;
  EXPECT_THROW(mp::compute_matrix_profile(data.reference, data.query, config),
               Error);
}

// ---------------------------------------------------------------------
// Coordinator: simulated *nodes* running real device fleets.
// The hard invariant everywhere: bits identical to the single-node run.
// ---------------------------------------------------------------------

TEST(ElasticCoordinator, MatchesSingleNodeBitsAllModesBothPaths) {
  const auto data = small_dataset();
  for (const mp::RowPath path :
       {mp::RowPath::kAuto, mp::RowPath::kCooperative}) {
    for (const PrecisionMode mode : kAllPrecisionModes) {
      mp::MatrixProfileConfig config;
      config.window = 16;
      config.mode = mode;
      config.tiles = 8;
      config.devices = 2;
      config.row_path = path;

      const auto one =
          mp::compute_matrix_profile(data.reference, data.query, config);

      config.nodes = 3;  // uneven split across the 4x2 grid
      const auto three =
          mp::compute_matrix_profile(data.reference, data.query, config);
      EXPECT_EQ(three.profile, one.profile)
          << to_string(mode) << " " << to_string(path);
      EXPECT_EQ(three.index, one.index)
          << to_string(mode) << " " << to_string(path);
    }
  }
}

/// Threads of this process (Linux /proc/self/task), or -1 without procfs.
int thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

TEST(ElasticCoordinator, RunStartsNoIdleThreads) {
  // Start and join one thread first: some runtimes (ThreadSanitizer) add a
  // helper thread of their own when the process starts its first thread.
  std::thread([] {}).join();
  const int baseline = thread_count();
  if (baseline < 0) GTEST_SKIP() << "/proc/self/task is not available";
  // Long enough (tens of ms) for the sampler to see the run's threads.
  SyntheticSpec spec;
  spec.segments = 1024;
  spec.dims = 2;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.nodes = 2;
  config.devices = 2;
  config.workers = 4;  // 2 per node, 1 per device pool
  std::atomic<bool> finished{false};
  std::thread helper([&] {
    mp::compute_matrix_profile(data.reference, data.query, config);
    finished = true;
  });
  int peak = baseline;
  while (!finished.load()) {
    peak = std::max(peak, thread_count());
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  helper.join();
  // One worker per device, the monitor, the device pools' workers and the
  // helper; the tile merge afterwards runs on `workers` threads, after the
  // device pools have stopped.
  const int fleet = config.nodes * config.devices;
  const int budget = fleet + 1 + int(config.workers) + 1;
  EXPECT_LE(peak - baseline, budget) << "peak " << peak << " over "
                                     << baseline;
  // Every thread the run started is gone once it returns.  A joined
  // thread can linger in /proc for a moment, so allow it that long.
  int after = thread_count();
  for (int i = 0; i < 1000 && after != baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = thread_count();
  }
  EXPECT_EQ(after, baseline);
}

TEST(ElasticCoordinator, StealOffStillMatchesSingleNode) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  config.nodes = 2;
  config.steal = false;
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_EQ(result.health.node_steals, 0);
}

TEST(ElasticCoordinator, NodeCrashRecoversBitIdentically) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  config.nodes = 3;
  config.node_faults = "seed=11,node_crash@1:at=1";
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_EQ(result.health.node_crashes, 1);
  EXPECT_TRUE(result.health.degraded);
  bool saw_crash_event = false;
  for (const auto& event : result.health.events) {
    if (event.kind == mp::RunEvent::Kind::kNodeCrashed) {
      saw_crash_event = true;
      EXPECT_EQ(event.device, 1);  // the event's device slot holds the node
    }
  }
  EXPECT_TRUE(saw_crash_event);
}

TEST(ElasticCoordinator, SlowNodeIsCoveredByStealOrDuplicate) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  config.nodes = 2;
  config.node_faults = "seed=13,node_slow@0:every=1:ms=20";
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
}

TEST(ElasticCoordinator, StalledFirstClaimGetsBackupOnPeerNode) {
  // Node 1's first tile stalls for an hour.  The watchdog's calibration
  // is the run's, so node 0's commits give node 1's attempt a deadline,
  // and the backup goes to node 0 (node 1 has no other device).  Stealing
  // is off so node 0 cannot take the stall tile before node 1 starts it.
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  config.nodes = 2;
  config.steal = false;
  config.resilience.watchdog = true;
  config.node_faults = "node_stall@1:at=1";
  Stopwatch sw;
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_LT(sw.seconds(), 30.0);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_GE(result.health.watchdog_fires, 1);
  EXPECT_GE(result.health.speculative_wins, 1);
}

TEST(ElasticCoordinator, DeadNodeTilesMoveWithStealOff) {
  // Node 0's only device goes offline on its first fault point: its
  // in-flight tile is requeued on node 1 and its queued tiles are orphans
  // node 1 takes, stealing off or not — none is left for the CPU.
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  gpusim::FaultInjector injector;
  injector.configure("offline@0:at=1");
  config.nodes = 2;
  config.steal = false;
  config.fault_injector = &injector;
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_EQ(result.health.cpu_fallback_tiles, 0);
  EXPECT_EQ(result.health.node_steals, 0);
  ASSERT_EQ(result.health.devices.size(), 2u);
  EXPECT_TRUE(result.health.devices[0].offline);
  EXPECT_EQ(result.health.devices[1].tiles_completed, 4);
}

TEST(ElasticCoordinator, KillMidRunResumesOnDifferentNodeCount) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  const std::string ckpt = testing::TempDir() + "mpsim_elastic_resume.ckpt";
  config.checkpoint.write_path = ckpt;
  config.checkpoint.kill_after_tiles = 3;
  config.nodes = 4;
  clear_shutdown();
  try {
    const auto raced =
        mp::compute_matrix_profile(data.reference, data.query, config);
    // The kill raced completion — acceptable, the journal is complete.
    EXPECT_EQ(raced.profile, one.profile);
  } catch (const InterruptedError& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos);
  }
  clear_shutdown();

  // Resume on 2 nodes instead of 4: journalled slices (base journal plus
  // any .nodeK segments) re-key onto the new fleet.
  config.checkpoint.kill_after_tiles = 0;
  config.checkpoint.write_path.clear();
  config.checkpoint.resume_path = ckpt;
  config.nodes = 2;
  const auto resumed =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(resumed.profile, one.profile);
  EXPECT_EQ(resumed.index, one.index);

  // ... and on a *different grid* with a different node count: the same
  // journal restores whatever still fits and recomputes the rest, with
  // the bits of the clean run under the new grid.
  mp::MatrixProfileConfig regrid = config;
  regrid.tiles = 4;
  regrid.checkpoint.resume_path = ckpt;
  mp::MatrixProfileConfig regrid_clean = regrid;
  regrid_clean.checkpoint.resume_path.clear();
  regrid_clean.nodes = 1;
  const auto clean4 = mp::compute_matrix_profile(data.reference, data.query,
                                                 regrid_clean);
  regrid.nodes = 3;
  const auto regridded =
      mp::compute_matrix_profile(data.reference, data.query, regrid);
  EXPECT_EQ(regridded.profile, clean4.profile);
  EXPECT_EQ(regridded.index, clean4.index);

  for (int node = 0; node < 4; ++node) {
    std::remove((ckpt + ".node" + std::to_string(node)).c_str());
  }
  std::remove(ckpt.c_str());
}

TEST(ElasticCoordinator, SideJournalsHoldEachNodesOwnCommits) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;
  config.devices = 1;
  config.nodes = 2;
  config.steal = false;  // tiles 0, 2 stay on node 0 and 1, 3 on node 1
  const std::string ckpt = testing::TempDir() + "mpsim_side_journals.ckpt";
  config.checkpoint.write_path = ckpt;
  config.checkpoint.interval_tiles = 1;
  const auto remove_journals = [&] {
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".node0").c_str());
    std::remove((ckpt + ".node1").c_str());
  };
  const auto exists = [](const std::string& path) {
    return std::ifstream(path).good();
  };

  // A journal's complete tiles: tile index -> the node it is tagged with.
  using Tiles = std::map<std::uint64_t, int>;
  const auto complete_tiles = [](const std::string& path) {
    Tiles out;
    for (const mp::CheckpointSlice& slice : mp::read_checkpoint(path).slices) {
      EXPECT_EQ(slice.complete, 1) << path;
      out[slice.tile_index] = slice.node;
    }
    return out;
  };

  // A finished run compacts: one journal, each tile tagged with the node
  // that committed it, and no node segment left behind.
  remove_journals();
  const auto clean =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(complete_tiles(ckpt), (Tiles{{0, 0}, {1, 1}, {2, 0}, {3, 1}}));
  EXPECT_FALSE(exists(ckpt + ".node0"));
  EXPECT_FALSE(exists(ckpt + ".node1"));

  // Node 1 journals tile 1, then crashes on its second claim (tile 3), and
  // node 0 takes tile 3 over.  Killed after the third commit (tile 2),
  // each node's segment holds only that node's own commits and the base
  // journal only the events.
  remove_journals();
  config.node_faults = "node_crash@1:at=2";
  config.checkpoint.kill_after_tiles = 3;
  clear_shutdown();
  EXPECT_THROW(mp::compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();
  EXPECT_EQ(complete_tiles(ckpt + ".node0"), (Tiles{{0, 0}, {2, 0}}));
  EXPECT_EQ(complete_tiles(ckpt + ".node1"), (Tiles{{1, 1}}));
  const mp::CheckpointData base = mp::read_checkpoint(ckpt);
  EXPECT_TRUE(base.slices.empty());
  EXPECT_FALSE(base.events.empty());

  // Resumed from the segments, the run finishes tile 3 alone.
  mp::MatrixProfileConfig resume = config;
  resume.node_faults.clear();
  resume.checkpoint = {};
  resume.checkpoint.resume_path = ckpt;
  const auto resumed =
      mp::compute_matrix_profile(data.reference, data.query, resume);
  EXPECT_EQ(resumed.health.resumed_tiles, 3);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);

  // Uninterrupted, the crashed run compacts tile 3 as node 0's.
  remove_journals();
  config.checkpoint.kill_after_tiles = 0;
  const auto crashed =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(crashed.health.node_crashes, 1);
  EXPECT_EQ(complete_tiles(ckpt), (Tiles{{0, 0}, {1, 1}, {2, 0}, {3, 0}}));
  EXPECT_EQ(crashed.profile, clean.profile);
  EXPECT_EQ(crashed.index, clean.index);
  remove_journals();
}

TEST(ElasticCoordinator, CountersAreAdditiveOnTheMetricsSchema) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;

  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  config.nodes = 2;
  config.steal = false;
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);
  EXPECT_FALSE(result.profile.empty());

  // Fault-free, steal off, watchdog off: the schedule is deterministic,
  // so the new counters are exactly pinned (see scripts/check_perf.sh).
  EXPECT_EQ(registry.counter("coordinator.tiles_dispatched").value(), 8u);
  EXPECT_EQ(registry.counter("node.commits").value(), 8u);
  EXPECT_EQ(registry.counter("node.commit_conflicts").value(), 0u);
  EXPECT_EQ(registry.counter("coordinator.steals").value(), 0u);
  EXPECT_EQ(registry.counter("coordinator.node_crashes").value(), 0u);
  EXPECT_EQ(registry.gauge("coordinator.nodes").value(), 2.0);
  registry.set_enabled(false);
  registry.reset();
}

TEST(ElasticCoordinator, NodeLifecycleSpansAppearInTheTimeline) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;

  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  config.nodes = 2;
  mp::compute_matrix_profile(data.reference, data.query, config);
  const std::string trace =
      testing::TempDir() + "mpsim_elastic_trace.json";
  registry.timeline().write_chrome_json(trace);
  std::ifstream in(trace);
  const std::string json{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"node 1\""), std::string::npos);
  std::remove(trace.c_str());
  registry.set_enabled(false);
  registry.reset();
}

TEST(ElasticCoordinator, EventsNameGlobalDevices) {
  // 4 tiles over 2 nodes x 1 device, no stealing: tile 1 runs on node 1,
  // whose only device is global device 1, and its first kernel faults.
  // Every device an event names is the one RunHealth charged the fault to.
  const auto data = small_dataset();
  gpusim::FaultInjector injector;
  injector.configure("seed=1,kernel@1:at=1");
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;
  config.devices = 1;
  config.nodes = 2;
  config.steal = false;
  config.fault_injector = &injector;
  const auto result =
      mp::compute_matrix_profile(data.reference, data.query, config);

  std::map<int, int> faults;  // global device -> faults charged to it
  for (const auto& status : result.health.devices) {
    faults[status.device] = status.faults;
  }
  EXPECT_EQ(faults[1], 1);
  int named = 0;
  for (const auto& event : result.health.events) {
    if (event.kind != mp::RunEvent::Kind::kRetry &&
        event.kind != mp::RunEvent::Kind::kRetriesExhausted) {
      continue;
    }
    named += 1;
    EXPECT_GT(faults[event.device], 0) << event.to_string();
  }
  EXPECT_EQ(named, 1);
}

/// What mp::model_matrix_profile says a run of `config` over `data` costs.
mp::ModelReport planned_model(const SyntheticDataset& data,
                              const mp::MatrixProfileConfig& config) {
  mp::ModelConfig model;
  model.spec = gpusim::spec_by_name(config.machine);
  model.n_r = data.reference.segment_count(config.window);
  model.n_q = data.query.segment_count(config.window);
  model.dims = data.reference.dims();
  model.window = config.window;
  model.mode = config.mode;
  model.tiles = config.tiles;
  model.nodes = config.nodes;
  model.devices = config.devices;
  model.assignment = config.assignment;
  return mp::model_matrix_profile(model);
}

TEST(PlannedModel, RunsReportTheirPlanWhateverHappened) {
  // Generated shapes x the paper's five modes x tiles x devices x nodes,
  // stealing on.  A clean run, its repeat and a run with one seeded
  // device fault all report exactly the model of the plan.
  Rng rng(21);
  for (int c = 0; c < 10; ++c) {
    SyntheticSpec spec;
    spec.window = 8 + 4 * std::size_t(rng.uniform_index(3));
    spec.segments = 4 * spec.window + std::size_t(rng.uniform_index(160));
    spec.dims = 1 + std::size_t(rng.uniform_index(3));
    spec.injections_per_dim = 1;
    spec.seed = std::uint64_t(c) + 1;
    const auto data = make_synthetic_dataset(spec);

    mp::MatrixProfileConfig config;
    config.window = spec.window;
    config.mode = kAllPrecisionModes[c % 5];
    config.tiles = 1 + int(rng.uniform_index(8));
    config.devices = 1 + int(rng.uniform_index(3));
    config.nodes = 1 + int(rng.uniform_index(3));
    config.assignment = rng.uniform_index(2) == 0
                            ? mp::TileAssignment::kRoundRobin
                            : mp::TileAssignment::kLpt;
    const int faulty = int(rng.uniform_index(
        std::uint64_t(config.devices) * std::uint64_t(config.nodes)));
    const auto expected = planned_model(data, config);
    const std::string label =
        to_string(config.mode) + " n=" + std::to_string(spec.segments) +
        " d=" + std::to_string(spec.dims) +
        " tiles=" + std::to_string(config.tiles) +
        " devices=" + std::to_string(config.devices) +
        " nodes=" + std::to_string(config.nodes) +
        " fault on " + std::to_string(faulty);

    gpusim::FaultInjector injector;
    injector.configure("seed=" + std::to_string(c + 1) + ",kernel@" +
                       std::to_string(faulty) + ":at=1");
    for (int run = 0; run < 3; ++run) {
      config.fault_injector = run == 2 ? &injector : nullptr;
      const auto result =
          mp::compute_matrix_profile(data.reference, data.query, config);
      EXPECT_EQ(result.modeled_device_seconds, expected.device_seconds)
          << label << " run " << run;
      EXPECT_EQ(result.modeled_merge_seconds, expected.merge_seconds)
          << label << " run " << run;
    }
  }
}

TEST(ElasticCoordinator, ValidatesNodeCount) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.nodes = 0;
  EXPECT_THROW(mp::compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  config.nodes = 65;  // > the journal suffix scan bound
  EXPECT_THROW(mp::compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  // Each device starts a worker and a pool: the fleet is bounded too.
  config.nodes = 1;
  config.devices = 65;
  EXPECT_THROW(mp::compute_matrix_profile(data.reference, data.query, config),
               ConfigError);
  config.nodes = 8;
  config.devices = 9;
  try {
    mp::compute_matrix_profile(data.reference, data.query, config);
    ADD_FAILURE() << "8 nodes x 9 devices was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("devices"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mpsim
