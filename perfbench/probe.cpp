// perfbench_probe — the benchmark's in-process access to the layers of
// mpsim.  run.py drives the programs under test (mpsim_cli, mpsim_serve)
// for every end-to-end number; this probe covers what only a linked
// caller can do:
//
//   synthetic  writes the paper's §V-A dataset (make_synthetic_dataset)
//              for a seed as reference/query CSVs;
//   accuracy   the paper's R and A of a profile CSV against a baseline
//              one (metrics::recall_rate / relative_accuracy);
//   budget     metrics::prefilter_within_budget on a run's counters;
//   trace      the traced run: recomputes each request (serve protocol
//              `query` lines) by calling every layer's public functions
//              in the engine's own order, timing each call, and writes
//              the composed profile so the caller can demand it be
//              byte-identical to the untraced program's output.
//
// The trace adds no instrumentation inside the library: every number it
// prints is the wall time of one of its own calls into a public function.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "metrics/accuracy.hpp"
#include "mp/checkpoint.hpp"
#include "mp/gemm.hpp"
#include "mp/kernels.hpp"
#include "mp/precalc.hpp"
#include "mp/resilient.hpp"
#include "mp/sketch.hpp"
#include "mp/staging.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"
#include "mp/tuning.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"

namespace {

using namespace mpsim;

int synthetic(const CliArgs& args) {
  SyntheticSpec spec;
  spec.segments = std::size_t(args.get_int("segments", 8192));
  spec.dims = std::size_t(args.get_int("dims", 4));
  spec.window = std::size_t(args.get_int("window", 128));
  spec.pattern_amplitude = args.get_double("amplitude", 1.0);
  spec.noise_sigma = args.get_double("noise", 0.25);
  spec.seed = std::uint64_t(args.get_int("seed", 1));
  const auto data = make_synthetic_dataset(spec);
  write_csv(args.get_string("reference", ""), data.reference);
  write_csv(args.get_string("query", ""), data.query);
  return 0;
}

/// Profile CSV (profile_k,index_k columns) back to dimension-major arrays.
void read_profile(const std::string& path, std::vector<double>& profile,
                  std::vector<std::int64_t>& index) {
  const TimeSeries raw = read_csv(path);
  MPSIM_CHECK(raw.dims() % 2 == 0, "'" << path << "' is not a profile CSV");
  const std::size_t n = raw.length();
  const std::size_t d = raw.dims() / 2;
  profile.resize(n * d);
  index.resize(n * d);
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      profile[k * n + j] = raw.at(j, 2 * k);
      index[k * n + j] = std::int64_t(std::llround(raw.at(j, 2 * k + 1)));
    }
  }
}

int accuracy(const CliArgs& args) {
  std::vector<double> bp, tp;
  std::vector<std::int64_t> bi, ti;
  read_profile(args.get_string("baseline", ""), bp, bi);
  read_profile(args.get_string("test", ""), tp, ti);
  MPSIM_CHECK(bp.size() == tp.size(), "profiles have different shapes");
  std::printf("{\"recall_R\": %.17g, \"accuracy_A\": %.17g}\n",
              metrics::recall_rate(ti, bi),
              metrics::relative_accuracy(tp, bp));
  return 0;
}

int budget(const CliArgs& args) {
  mp::PrefilterStats stats;
  stats.cols_verified = std::uint64_t(args.get_int("cols-verified", 0));
  stats.cols_missed = std::uint64_t(args.get_int("cols-missed", 0));
  const double b = args.get_double("budget", 0.01);
  std::printf("{\"miss_rate\": %.17g, \"within_budget\": %s}\n",
              metrics::prefilter_miss_rate(stats),
              metrics::prefilter_within_budget(stats, b) ? "true" : "false");
  return 0;
}

/// Seconds spent in each layer's public functions, plus work counts.
struct LayerTimes {
  std::map<std::string, double> seconds;
  double rows = 0, cells = 0, ops = 0, bytes = 0;

  template <typename Fn>
  decltype(auto) time(const char* layer, Fn&& fn) {
    struct Add {
      double& slot;
      Stopwatch watch;
      ~Add() { slot += watch.seconds(); }
    } add{seconds[layer], Stopwatch()};
    return fn();
  }
};

/// One tile of the fused row path, composed from the engine's public
/// kernels in SingleTileEngine::run_tile's order (same buffers, same
/// batching, same chunked dispatch), so the tile's bits are the engine's.
template <typename Traits>
void compose_tile(ThreadPool& pool, mp::StagingCache& staging, std::size_t m,
                  std::size_t d, const mp::Tile& tile, std::int64_t exclusion,
                  const mp::PrefilterConfig& prefilter, mp::TileResult& result,
                  LayerTimes& t) {
  using ST = typename Traits::Storage;
  const std::size_t nr = tile.r_count, nq = tile.q_count;
  const std::size_t len_r = nr + m - 1, len_q = nq + m - 1;

  std::vector<ST> host_r(len_r * d), host_q(len_q * d);
  t.time("staging", [&] {
    const auto view = staging.template get<Traits>();
    for (std::size_t k = 0; k < d; ++k) {
      std::memcpy(host_r.data() + k * len_r,
                  view.reference + k * view.reference_len + tile.r_begin,
                  len_r * sizeof(ST));
      std::memcpy(host_q.data() + k * len_q,
                  view.query + k * view.query_len + tile.q_begin,
                  len_q * sizeof(ST));
    }
  });

  std::vector<ST> mu_r(nr * d), inv_r(nr * d), df_r(nr * d), dg_r(nr * d);
  std::vector<ST> mu_q(nq * d), inv_q(nq * d), df_q(nq * d), dg_q(nq * d);
  std::vector<ST> qt_row(nq * d), qt_col(nr * d), qt_a(nq * d), qt_b(nq * d);
  std::vector<ST> profile(nq * d, std::numeric_limits<ST>::infinity());
  std::vector<std::int64_t> index(nq * d, -1);

  t.time("precalc.stats", [&] {
    pool.parallel_for(2 * d, [&](std::size_t begin, std::size_t end) {
      for (std::size_t item = begin; item < end; ++item) {
        if (item < d) {
          mp::precalc_dimension<Traits>(
              host_r.data() + item * len_r, m, nr, mu_r.data() + item * nr,
              inv_r.data() + item * nr, df_r.data() + item * nr,
              dg_r.data() + item * nr);
        } else {
          const std::size_t k = item - d;
          mp::precalc_dimension<Traits>(
              host_q.data() + k * len_q, m, nq, mu_q.data() + k * nq,
              inv_q.data() + k * nq, df_q.data() + k * nq,
              dg_q.data() + k * nq);
        }
      }
    });
  });
  t.time("precalc.seed", [&] {
    pool.parallel_for(nr + nq, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = 0; k < d; ++k) {
        if (begin < nq) {
          mp::gemm_sliding_dots<Traits>(
              host_r.data() + k * len_r, mu_r[k * nr], host_q.data() + k * len_q,
              mu_q.data() + k * nq, m, begin, std::min(end, nq),
              /*slide_first=*/false, qt_row.data() + k * nq);
        }
        if (end > nq) {
          mp::gemm_sliding_dots<Traits>(
              host_q.data() + k * len_q, mu_q[k * nq], host_r.data() + k * len_r,
              mu_r.data() + k * nr, m, std::max(begin, nq) - nq, end - nq,
              /*slide_first=*/true, qt_col.data() + k * nr);
        }
      }
    });
  });

  ST* qt_prev = qt_a.data();
  ST* qt_next = qt_b.data();
  const auto row = [&](std::size_t i, ST* qp, ST* qn, std::size_t begin,
                       std::size_t end) {
    mp::fused_row_body<Traits>(
        std::int64_t(begin), std::int64_t(end), i, nq, m, d, qt_row.data(),
        qt_col.data(), nr, df_r.data(), dg_r.data(), inv_r.data(),
        df_q.data(), dg_q.data(), inv_q.data(), qp, qn,
        std::int64_t(tile.r_begin + i), std::int64_t(tile.q_begin), exclusion,
        profile.data(), index.data());
  };

  // The engine constructs the prefilter for every tile; it builds
  // sketches only when enabled.
  auto pf = t.time("sketch.build", [&] {
    auto built = std::make_unique<mp::TilePrefilter>(prefilter, m, d, nr, nq);
    if (built->enabled()) {
      built->template build<Traits>(host_r.data(), len_r, mu_r.data(),
                                    inv_r.data(), host_q.data(), len_q,
                                    mu_q.data(), inv_q.data());
    }
    return built;
  });

  if (pf->enabled()) {
    for (std::size_t i = 0; i < nr; ++i) {
      const std::size_t b0 = i - i % pf->batch_rows();
      if (i == b0) {
        t.time("sketch.score", [&] {
          pf->template score_batch<Traits>(profile.data(), i,
                                           std::min(pf->batch_rows(), nr - i));
        });
      }
      t.time("kernels.row", [&] {
        pool.parallel_for(nq, [&](std::size_t begin, std::size_t end) {
          pf->for_groups(begin, end, [&](std::size_t gb, std::size_t ge,
                                         mp::PrefilterDecision dec) {
            if (dec == mp::PrefilterDecision::kSkip) {
              mp::qt_only_row_body<Traits>(
                  std::int64_t(gb), std::int64_t(ge), i, nq, d,
                  qt_row.data(), qt_col.data(), nr, df_r.data(), dg_r.data(),
                  df_q.data(), dg_q.data(), qt_prev, qt_next);
            } else {
              row(i, qt_prev, qt_next, gb, ge);
            }
          });
        });
      });
      if (i + 1 == std::min(b0 + pf->batch_rows(), nr)) {
        t.time("sketch.score", [&] {
          pf->note_batch_end(index.data(), std::int64_t(tile.r_begin + b0),
                             std::int64_t(tile.r_begin + i));
        });
      }
      std::swap(qt_prev, qt_next);
    }
  } else {
    const std::size_t bt_cfg = mp::row_batch_rows(nq, nr);
    std::vector<ST> batch_scan;
    if (bt_cfg >= 2) batch_scan.resize(bt_cfg * mp::next_pow2(d) * nq);
    for (std::size_t i0 = 0; i0 < nr;) {
      const std::size_t bt = std::min(bt_cfg, nr - i0);
      if (bt < 2) {
        t.time("kernels.row", [&] {
          pool.parallel_for(nq, [&](std::size_t begin, std::size_t end) {
            row(i0, qt_prev, qt_next, begin, end);
          });
        });
        i0 += 1;
      } else {
        t.time("kernels.row", [&] {
          pool.parallel_for_grained(
              nq + bt - 1, bt, [&](std::size_t vb, std::size_t ve) {
                mp::batched_rows_phase_a<Traits>(
                    std::int64_t(vb), std::int64_t(ve), bt, i0, nq, m, d,
                    qt_row.data(), qt_col.data(), nr, df_r.data(),
                    dg_r.data(), inv_r.data(), df_q.data(), dg_q.data(),
                    inv_q.data(), qt_prev, qt_next, batch_scan.data());
              });
        });
        t.time("kernels.merge", [&] {
          pool.parallel_for(nq, [&](std::size_t begin, std::size_t end) {
            mp::batched_rows_merge<Traits>(
                std::int64_t(begin), std::int64_t(end), bt, i0, nq, d,
                std::int64_t(tile.r_begin), std::int64_t(tile.q_begin),
                exclusion, batch_scan.data(), profile.data(), index.data());
          });
        });
        i0 += bt;
      }
      std::swap(qt_prev, qt_next);
    }
  }

  t.time("tile_merge", [&] {
    result.profile.resize(nq * d);
    for (std::size_t e = 0; e < nq * d; ++e) {
      result.profile[e] = double(profile[e]);
    }
    result.index = std::move(index);
  });

  // Work the tile did, as the engine's cost model counts it (computed from
  // the kernel cost formulas, not measured).
  gpusim::KernelCost work = mp::precalc_stats_cost<Traits>(nr, nq, d, m);
  work += mp::gemm_seed_cost<Traits>(nr, nq, d, m);
  gpusim::KernelCost per_row = mp::dist_calc_cost<Traits>(nq, d);
  if (d > 1) per_row += mp::sort_scan_cost<Traits>(nq, d);
  per_row += mp::update_cost<Traits>(nq, d);
  t.rows += double(nr);
  t.cells += double(nr) * double(nq);
  t.ops += double(work.flops) + double(nr) * double(per_row.flops);
  t.bytes += double(work.total_bytes()) +
             double(nr) * double(per_row.total_bytes());
}

/// A journal of the composed result: every tile as one complete slice.
mp::CheckpointData journal_of(const std::vector<mp::Tile>& tiles,
                              const std::vector<mp::TileResult>& results,
                              std::size_t d, PrecisionMode mode,
                              std::uint64_t fingerprint) {
  mp::CheckpointData data;
  data.fingerprint = fingerprint;
  data.tile_count = tiles.size();
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    mp::CheckpointSlice s;
    s.tile_index = t;
    s.tile_id = tiles[t].id;
    s.device = tiles[t].device;
    s.mode = mode;
    s.r_begin = tiles[t].r_begin;
    s.r_count = tiles[t].r_count;
    s.q_begin = tiles[t].q_begin;
    s.q_count = tiles[t].q_count;
    s.dims = d;
    s.profile = results[t].profile;
    s.index = results[t].index;
    data.slices.push_back(std::move(s));
  }
  return data;
}

int trace(const CliArgs& args) {
  Stopwatch wall;
  LayerTimes t;
  const std::string out_dir = args.get_string("out-dir", ".");
  const std::string journal = args.get_string("journal", "");
  std::ifstream requests(args.get_string("requests", ""));
  MPSIM_CHECK(requests, "cannot open --requests file");
  ThreadPool pool;
  std::map<std::string, std::shared_ptr<const TimeSeries>> series;
  const auto load = [&](const std::string& path) {
    auto& slot = series[path];
    if (!slot) {
      slot = t.time("tsdata.read_csv", [&] {
        return std::make_shared<const TimeSeries>(read_csv(path));
      });
    }
    return slot;
  };

  std::size_t requests_done = 0;
  double journal_bytes = 0;
  for (std::string line; std::getline(requests, line);) {
    if (line.empty()) continue;
    const auto request =
        t.time("serve.parse", [&] { return serve::parse_request(line); });
    MPSIM_CHECK(request.verb == serve::Request::Verb::kQuery,
                "trace requests must be query lines");
    const auto reference = load(request.reference_path);
    const auto query =
        request.self_join ? reference : load(request.query_path);
    const mp::MatrixProfileConfig& config = request.config;
    t.time("serve.cache_key", [&] {
      return mp::profile_cache_key(*reference, *query, config);
    });
    MPSIM_CHECK(mp::use_fused_row_path(config.row_path, reference->dims()),
                "trace composes the fused row path only");

    const std::size_t m = config.window;
    const std::size_t d = reference->dims();
    const std::size_t n_q = query->segment_count(m);
    auto tiles = mp::compute_tile_list(reference->segment_count(m), n_q,
                                       config.tiles);
    mp::assign_tiles_round_robin(tiles, config.devices);
    std::vector<mp::TileResult> results(tiles.size());
    mp::StagingCache staging(*reference, *query);
    dispatch_precision(config.mode, [&]<typename Traits>() {
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        compose_tile<Traits>(pool, staging, m, d, tiles[i], config.exclusion,
                             config.prefilter, results[i], t);
      }
    });
    mp::MatrixProfileResult out;
    t.time("tile_merge", [&] {
      mp::merge_tile_results(tiles, results, n_q, d, out, &pool);
    });
    const std::string csv =
        t.time("serve.render", [&] { return serve::profile_to_csv(out); });
    const std::string path =
        out_dir + "/composed" + std::to_string(requests_done) + ".csv";
    std::ofstream(path, std::ios::binary) << csv;

    // Checkpoint layer: read and re-key the program's journal when one is
    // given (a killed run's), else journal the composed result first.
    if (requests_done == 0) {
      const std::uint64_t fp =
          mp::checkpoint_fingerprint(*reference, *query, config);
      std::string source = journal;
      if (source.empty()) {
        source = out_dir + "/composed.ckpt";
        const auto data = journal_of(tiles, results, d, config.mode, fp);
        t.time("checkpoint.write",
               [&] { mp::write_checkpoint(source, data); });
      }
      const auto data =
          t.time("checkpoint.read", [&] { return mp::read_checkpoint(source); });
      const auto restored = t.time("checkpoint.restore", [&] {
        return mp::restore_from_journals(source, fp, tiles, d, config);
      });
      MPSIM_CHECK(restored.fallbacks == 0, "journal rejected on restore");
      if (!journal.empty()) {
        const std::string copy = out_dir + "/rewritten.ckpt";
        t.time("checkpoint.write", [&] { mp::write_checkpoint(copy, data); });
      }
      journal_bytes = double(std::filesystem::file_size(source));
    }
    ++requests_done;
  }
  MPSIM_CHECK(requests_done > 0, "no query lines in --requests");

  std::printf("{\"wall_s\": %.9g, \"requests\": %zu", wall.seconds(),
              requests_done);
  for (const auto& [layer, s] : t.seconds) {
    std::printf(", \"%s_s\": %.9g", layer.c_str(), s);
  }
  std::printf(", \"kernels.rows\": %.17g, \"kernels.cells\": %.17g, "
              "\"kernels.ops_computed\": %.17g, "
              "\"kernels.bytes_computed\": %.17g, \"checkpoint.bytes\": %.17g}\n",
              t.rows, t.cells, t.ops, t.bytes, journal_bytes);
  return 0;
}

int run(int argc, char** argv) {
  MPSIM_CHECK(argc >= 2, "usage: perfbench_probe "
                         "synthetic|accuracy|budget|trace --flag=value...");
  const std::string command = argv[1];
  CliArgs args(argc - 1, argv + 1);
  if (command == "synthetic") return synthetic(args);
  if (command == "accuracy") return accuracy(args);
  if (command == "budget") return budget(args);
  if (command == "trace") return trace(args);
  throw ConfigError("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
