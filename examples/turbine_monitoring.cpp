// Gas-turbine startup detection (paper §VI-C): find startup events in
// high-frequency turbine speed telemetry by matching against a reference
// recording that contains known startups — the paper's single-dimensional,
// reduced-precision-for-scale case study.
//
//   $ ./turbine_monitoring [--n=4096] [--window=256] [--mode=Mixed]
//                          [--relaxation=0.05]
//
// Prints each detected startup with its matched reference event and the
// relaxed recall per precision mode.
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "mp/matrix_profile.hpp"
#include "tsdata/turbine.hpp"

namespace {

using namespace mpsim;

double relaxed_hits(const mp::MatrixProfileResult& r,
                    const std::vector<std::size_t>& queries,
                    const std::vector<std::size_t>& expected,
                    std::size_t window, double relaxation, bool verbose) {
  const auto tolerance = std::int64_t(relaxation * double(window));
  std::size_t hits = 0;
  for (const std::size_t q : queries) {
    const std::int64_t found = r.index[q];
    bool hit = false;
    for (const std::size_t e : expected) {
      if (std::llabs(found - std::int64_t(e)) <= tolerance) {
        hit = true;
        break;
      }
    }
    hits += hit;
    if (verbose) {
      std::printf("  startup at t=%zu -> reference t=%lld (%s, distance "
                  "%.4f)\n",
                  q, (long long)found, hit ? "match" : "MISS", r.at(q, 0));
    }
  }
  return queries.empty() ? 1.0 : double(hits) / double(queries.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpsim;
  CliArgs args(argc, argv);
  args.check_known({"n", "window", "mode", "relaxation"});

  TurbineSpec spec;
  spec.segments = args.get_size("n", 4096);
  spec.window = args.get_size("window", 256);
  const double relaxation = args.get_double("relaxation", 0.05);

  // GT1's history (reference) contains both startup modes; GT2's current
  // telemetry (query) contains P1 startups to be detected.
  const auto reference = make_turbine_series(spec, 1, 3, 3);
  const auto query = make_turbine_series(spec, 2, 4, 0);
  std::printf("reference (GT1): %zu P1 + %zu P2 startups; query (GT2): %zu "
              "P1 startups; window m=%zu\n\n",
              reference.p1_starts.size(), reference.p2_starts.size(),
              query.p1_starts.size(), spec.window);

  // Detailed detections with the requested mode.
  mp::MatrixProfileConfig config;
  config.window = spec.window;
  config.mode = parse_precision_mode(args.get_string("mode", "Mixed"));
  const auto detailed =
      mp::compute_matrix_profile(reference.series, query.series, config);
  std::printf("detections (%s):\n", to_string(config.mode).c_str());
  relaxed_hits(detailed, query.p1_starts, reference.p1_starts, spec.window,
               relaxation, /*verbose=*/true);

  // Relaxed recall across all modes.
  Table table({"mode", "relaxed recall (r=5%)", "modeled A100 [s]"});
  for (PrecisionMode mode : kAllPrecisionModes) {
    config.mode = mode;
    const auto r =
        mp::compute_matrix_profile(reference.series, query.series, config);
    table.add_row({to_string(mode),
                   fmt_pct(relaxed_hits(r, query.p1_starts,
                                        reference.p1_starts, spec.window,
                                        relaxation, false)),
                   fmt_sci(r.modeled_total_seconds())});
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}
