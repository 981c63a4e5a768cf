// mpsim_cli — run the matrix profile on CSV time series from the shell.
//
//   mpsim_cli --reference=ref.csv --query=query.csv --window=64
//             [--mode=FP64|FP32|FP16|Mixed|FP16C|BF16|TF32]
//             [--tiles=16] [--devices=1] [--machine=A100|V100]
//             [--self-join] [--exclusion=<radius>]
//             [--output=profile.csv] [--motifs=K] [--discords=K]
//
// Input CSVs: one column per dimension, one row per sample (a header row
// is detected automatically).  With --self-join the reference file is
// joined against itself (exclusion defaults to window/2).
// The output CSV has 2*d columns: profile_k, index_k for each dimension.
#include <cstdio>
#include <limits>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "gpusim/faults.hpp"
#include "mp/analysis.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/tuning.hpp"
#include "mp/matrix_profile.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "tsdata/io.hpp"

namespace {

using namespace mpsim;

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.check_known({"reference", "query", "window", "mode", "tiles",
                    "devices", "machine", "self-join", "exclusion", "output",
                    "motifs", "discords", "auto-tiles",
                    "faults", "escalate-precision",
                    "metrics-out", "trace-out", "row-path", "simd",
                    "prefilter", "prefilter-budget",
                    "checkpoint",
                    "resume", "checkpoint-interval", "kill-after-tiles",
                    "slice-rows", "kill-after-slices",
                    "nodes", "node-faults", "steal",
                    "watchdog", "device-memory-mb",
                    "help"});
  if (args.get_bool("help", false) || !args.has("reference")) {
    std::printf(
        "usage: mpsim_cli --reference=ref.csv [--query=query.csv] "
        "--window=M\n"
        "                 [--mode=FP64] [--tiles=1] [--devices=1]\n"
        "                 [--machine=A100] [--self-join] [--exclusion=R]\n"
        "                 [--output=profile.csv] [--motifs=K]\n"
        "                 [--discords=K] [--auto-tiles]\n"
        "                 [--faults=SPEC] [--escalate-precision]\n"
        "                 [--metrics-out=FILE.json] [--trace-out=FILE.json]\n"
        "                 [--row-path=auto|cooperative]\n"
        "                 [--simd=auto|scalar|f16c|avx2|avx512fp16]\n"
        "                 [--prefilter=off|sketch] [--prefilter-budget=B]\n"
        "                 [--checkpoint=FILE.ckpt] [--resume=FILE.ckpt]\n"
        "                 [--checkpoint-interval=K] [--slice-rows=R]\n"
        "                 [--kill-after-slices=N] [--watchdog]\n"
        "                 [--device-memory-mb=M]\n"
        "                 [--nodes=N] [--node-faults=SPEC] [--steal=on|off]\n"
        "fault spec: comma-separated kind[@device][:key=value]... with kind\n"
        "  kernel|copy|offline|nan|bitflip|hang|slow and keys at=N, every=N,\n"
        "  p=P, frac=F, ms=D, plus an optional seed=S clause, e.g.\n"
        "  --faults=seed=7,kernel@0:at=5,offline@1:at=12,hang@0:at=3:ms=60000\n"
        "observability: --metrics-out writes the runtime metrics registry\n"
        "  (counters/gauges/histograms, mpsim-metrics-v2 JSON) and\n"
        "  --trace-out writes the measured wall-clock timeline as\n"
        "  Chrome-tracing JSON (load in Perfetto / chrome://tracing)\n"
        "durability: --checkpoint appends completed tiles to a synced\n"
        "  append-only journal every K commits (SIGINT/SIGTERM flush it\n"
        "  before exit, status 130; a finished run compacts it into one\n"
        "  file) and --resume restores its valid prefix, skipping finished\n"
        "  tiles; --watchdog re-executes hung tiles speculatively on\n"
        "  another device\n"
        "approximation: --prefilter=sketch gates the exact recurrence with\n"
        "  FP16 random-projection sketches (fused row path only; default\n"
        "  off = bit-exact); --prefilter-budget bounds the acceptable miss\n"
        "  rate, measured by a verify sample and reported as prefilter.*\n"
        "  counters + the prefilter.miss_rate gauge in --metrics-out\n"
        "multi-node: --nodes=N shards the tile grid across N simulated\n"
        "  nodes (bit-identical to --nodes=1); --steal=off disables\n"
        "  cross-node work stealing; --node-faults injects node-level\n"
        "  chaos (node_crash|node_stall|node_slow, \"@k\" selects a node);\n"
        "  --slice-rows=R journals mid-tile row slices every R rows so a\n"
        "  kill mid-tile resumes without recomputing the covered rows\n"
        "chaos: --kill-after-tiles=N stops the run after its N-th tile\n"
        "  commit (all nodes counted together); --kill-after-slices=N after\n"
        "  any one node's N-th row-slice snapshot (counted per node); both\n"
        "  stop every node at once, flush the checkpoint and exit 130\n");
    return args.has("reference") ? 0 : 2;
  }

  for (const char* flag : {"checkpoint", "output", "metrics-out",
                           "trace-out"}) {
    probe_writable(args, flag);
  }

  // Observability must be armed before any instrumented work runs.
  const bool want_metrics = args.has("metrics-out") || args.has("trace-out");
  if (want_metrics) {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().set_enabled(true);
  }

  const TimeSeries reference = read_csv(args.get_string("reference", ""));
  const bool self_join = args.get_bool("self-join", false);
  if (!self_join && !args.has("query")) {
    throw ConfigError("--query is required unless --self-join is given");
  }
  const TimeSeries query =
      self_join ? reference : read_csv(args.get_string("query", ""));
  const std::size_t k_motifs = args.get_size("motifs", 3);
  const std::size_t k_discords = args.get_size("discords", 0);

  // Shared with the serve daemon's query verb (byte-diff contract).
  mp::MatrixProfileConfig config = serve::config_from_args(args, self_join);
  config.resilience.escalate_precision =
      args.get_bool("escalate-precision", false);
  // SIMD kernel dispatch is a process-wide executor knob, not a per-run
  // config field: every mode/path produces bit-identical output under any
  // level, so it never changes results — only throughput.
  mp::simd::apply_option(args.get_string("simd", "auto"));
  config.checkpoint.write_path = args.get_string("checkpoint", "");
  config.checkpoint.resume_path = args.get_string("resume", "");
  config.checkpoint.interval_tiles = args.get_int32(
      "checkpoint-interval", config.checkpoint.interval_tiles);
  config.checkpoint.kill_after_tiles = args.get_int32("kill-after-tiles", 0);
  config.checkpoint.slice_rows = args.get_int32("slice-rows", 0);
  config.checkpoint.kill_after_slices =
      args.get_int32("kill-after-slices", 0);
  config.nodes = args.get_int32("nodes", 1);
  config.node_faults = args.get_string("node-faults", "");
  const std::string steal = args.get_string("steal", "on");
  if (steal != "on" && steal != "off") {
    throw ConfigError("--steal must be on or off, got '" + steal + "'");
  }
  config.steal = steal == "on";
  config.resilience.watchdog = args.get_bool("watchdog", false);
  // The byte count must fit: a shift past size_t wraps to a bogus cap.
  const std::size_t memory_mb = args.get_size("device-memory-mb", 0);
  constexpr std::size_t kMaxMemoryMb =
      std::numeric_limits<std::size_t>::max() >> 20;
  if (memory_mb > kMaxMemoryMb) {
    throw ConfigError("--device-memory-mb must be in [0, " +
                      std::to_string(kMaxMemoryMb) + "], got " +
                      std::to_string(memory_mb));
  }
  config.device_memory_bytes = memory_mb << 20;
  gpusim::FaultInjector injector;
  if (args.has("faults")) {
    injector.configure(args.get_string("faults", ""));
    config.fault_injector = &injector;
  }

  if (args.get_bool("auto-tiles", false)) {
    mp::TileTuningRequest request;
    request.n_r = reference.segment_count(config.window);
    request.n_q = query.segment_count(config.window);
    request.dims = reference.dims();
    request.window = config.window;
    request.mode = config.mode;
    request.devices = config.devices;
    request.fused_rows = mp::use_fused_row_path(config.row_path, request.dims);
    const auto tuned =
        mp::suggest_tiles(request, gpusim::spec_by_name(config.machine));
    config.tiles = tuned.tiles;
    std::printf("auto-tiles: %d tiles (%zu x %zu segments per tile%s%s)\n",
                tuned.tiles, tuned.tile_rows, tuned.tile_cols,
                tuned.accuracy_limited ? ", accuracy-limited" : "",
                tuned.memory_limited ? ", memory-limited" : "");
  }

  std::printf("reference: %zu samples x %zu dims; query: %zu samples; "
              "window=%zu mode=%s tiles=%d devices=%d\n",
              reference.length(), reference.dims(), query.length(),
              config.window, to_string(config.mode).c_str(), config.tiles,
              config.devices);

  // Observability must flush on every exit path — an interrupted run's
  // metrics and trace are exactly what a post-mortem needs.
  const auto flush_observability = [&] {
    if (!want_metrics) return;
    const auto snap = MetricsRegistry::global().snapshot();
    Table counters({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      if (value == 0) continue;  // keep the summary to what happened
      counters.add_row({name, std::to_string(value)});
    }
    std::printf("\nruntime metrics (counters):\n%s",
                counters.to_string().c_str());
    Table histograms({"histogram", "count", "mean", "min", "max"});
    for (const auto& h : snap.histograms) {
      if (h.count == 0) continue;
      histograms.add_row({h.name, std::to_string(h.count),
                          fmt_sci(h.mean()), fmt_sci(h.min),
                          fmt_sci(h.max)});
    }
    std::printf("\nruntime metrics (histograms):\n%s",
                histograms.to_string().c_str());
    if (args.has("metrics-out")) {
      const auto path = args.get_string("metrics-out", "");
      MetricsRegistry::global().write_json(path);
      std::printf("metrics written to %s\n", path.c_str());
    }
    if (args.has("trace-out")) {
      const auto path = args.get_string("trace-out", "");
      MetricsRegistry::global().timeline().write_chrome_json(path);
      std::printf("trace written to %s (open in Perfetto or "
                  "chrome://tracing)\n", path.c_str());
    }
  };

  // SIGINT/SIGTERM request a graceful stop: the scheduler flushes its
  // checkpoint and unwinds with InterruptedError, we flush observability
  // and exit 128+signo — 130 for SIGINT, 143 for SIGTERM, plain 130 for a
  // signal-free programmatic kill (--kill-after-tiles) — so orchestrators
  // can tell an operator interrupt from a supervisor stop (a second
  // signal exits immediately with the same convention).
  install_signal_handlers();
  mp::MatrixProfileResult result;
  try {
    result = mp::compute_matrix_profile(reference, query, config);
  } catch (const InterruptedError& e) {
    std::printf("%s\n", e.what());
    flush_observability();
    return shutdown_exit_code();
  }
  std::printf("computed %zu x %zu profile in %.2f s (modeled %s time: "
              "%.4f s)\n",
              result.segments, result.dims, result.wall_seconds,
              config.machine.c_str(), result.modeled_total_seconds());
  if (config.fault_injector != nullptr || result.health.degraded ||
      result.health.resumed_tiles > 0 || result.health.partial_slices > 0 ||
      result.health.slices_discarded > 0 ||
      result.health.resume_fallbacks > 0 ||
      !result.health.escalations.empty()) {
    std::printf("%s", result.health.summary().c_str());
  }

  if (args.has("output")) {
    const auto path = args.get_string("output", "");
    // Shared with the serve daemon: its query responses byte-match this
    // file for the same flags.
    serve::write_profile_csv(path, result);
    std::printf("profile written to %s\n", path.c_str());
  }

  flush_observability();

  if (k_motifs > 0) {
    Table table({"rank", "query segment", "matches reference", "distance"});
    const auto motifs =
        mp::top_motifs(result, 0, k_motifs, config.window);
    for (std::size_t i = 0; i < motifs.size(); ++i) {
      table.add_row({std::to_string(i + 1),
                     std::to_string(motifs[i].query_segment),
                     std::to_string(motifs[i].match_segment),
                     fmt_fixed(motifs[i].distance, 4)});
    }
    std::printf("\ntop motifs (1-dimensional profile):\n%s",
                table.to_string().c_str());
  }
  if (k_discords > 0) {
    Table table({"rank", "query segment", "distance"});
    const auto discords =
        mp::top_discords(result, result.dims - 1, k_discords, config.window);
    for (std::size_t i = 0; i < discords.size(); ++i) {
      table.add_row({std::to_string(i + 1),
                     std::to_string(discords[i].query_segment),
                     fmt_fixed(discords[i].distance, 4)});
    }
    std::printf("\ntop discords (%zu-dimensional profile):\n%s",
                result.dims, table.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpsim_cli: %s\n", e.what());
    return 1;
  }
}
