// mpsim_diff — compare two profile CSVs written by mpsim_cli --output.
//
//   mpsim_diff --baseline=fp64.csv --test=fp16.csv [--top=5]
//
// Prints the paper's numerical accuracy metrics (relative accuracy A and
// index recall R) per dimension plane plus the largest per-segment
// deviations — the workflow for judging whether a reduced-precision (or
// re-tiled) run is acceptable against a stored baseline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "metrics/accuracy.hpp"
#include "tsdata/io.hpp"

namespace {

using namespace mpsim;

struct ProfileFile {
  std::size_t segments = 0;
  std::size_t dims = 0;
  std::vector<double> profile;          // [k * segments + j]
  std::vector<std::int64_t> index;
};

/// Reads the profile_k,index_k column layout mpsim_cli writes.
ProfileFile read_profile_csv(const std::string& path) {
  const TimeSeries raw = read_csv(path);
  if (raw.dims() % 2 != 0) {
    throw ConfigError("'" + path + "' is not a profile CSV (odd column count)");
  }
  ProfileFile out;
  out.segments = raw.length();
  out.dims = raw.dims() / 2;
  out.profile.resize(out.segments * out.dims);
  out.index.resize(out.segments * out.dims);
  for (std::size_t k = 0; k < out.dims; ++k) {
    for (std::size_t j = 0; j < out.segments; ++j) {
      out.profile[k * out.segments + j] = raw.at(j, 2 * k);
      out.index[k * out.segments + j] =
          std::int64_t(std::llround(raw.at(j, 2 * k + 1)));
    }
  }
  return out;
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.check_known({"baseline", "test", "top", "help"});
  if (args.get_bool("help", false) || !args.has("baseline") ||
      !args.has("test")) {
    std::printf("usage: mpsim_diff --baseline=a.csv --test=b.csv "
                "[--top=5]\n");
    return args.has("baseline") && args.has("test") ? 0 : 2;
  }

  const std::size_t top = args.get_size("top", 5);
  const auto baseline = read_profile_csv(args.get_string("baseline", ""));
  const auto test = read_profile_csv(args.get_string("test", ""));
  if (baseline.segments != test.segments || baseline.dims != test.dims) {
    throw ConfigError("profiles have different shapes: " +
                      std::to_string(baseline.segments) + "x" +
                      std::to_string(baseline.dims) + " vs " +
                      std::to_string(test.segments) + "x" +
                      std::to_string(test.dims));
  }

  Table table({"dim plane", "relative accuracy A", "index recall R",
               "max |diff|"});
  for (std::size_t k = 0; k < baseline.dims; ++k) {
    const std::size_t begin = k * baseline.segments;
    const std::vector<double> bp(baseline.profile.begin() +
                                     std::ptrdiff_t(begin),
                                 baseline.profile.begin() +
                                     std::ptrdiff_t(begin +
                                                    baseline.segments));
    const std::vector<double> tp(
        test.profile.begin() + std::ptrdiff_t(begin),
        test.profile.begin() + std::ptrdiff_t(begin + baseline.segments));
    const std::vector<std::int64_t> bi(
        baseline.index.begin() + std::ptrdiff_t(begin),
        baseline.index.begin() + std::ptrdiff_t(begin + baseline.segments));
    const std::vector<std::int64_t> ti(
        test.index.begin() + std::ptrdiff_t(begin),
        test.index.begin() + std::ptrdiff_t(begin + baseline.segments));
    double max_diff = 0.0;
    for (std::size_t j = 0; j < baseline.segments; ++j) {
      if (std::isfinite(bp[j]) && std::isfinite(tp[j])) {
        max_diff = std::max(max_diff, std::fabs(bp[j] - tp[j]));
      }
    }
    table.add_row({std::to_string(k + 1) + "-dim",
                   fmt_pct(metrics::relative_accuracy(tp, bp)),
                   fmt_pct(metrics::recall_rate(ti, bi)),
                   fmt_fixed(max_diff, 4)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Worst per-segment deviations on the 1-dimensional plane.
  std::vector<std::size_t> order(baseline.segments);
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = std::fabs(baseline.profile[a] - test.profile[a]);
    const double db = std::fabs(baseline.profile[b] - test.profile[b]);
    return da > db;
  });
  Table worst({"segment", "baseline", "test", "baseline idx", "test idx"});
  for (std::size_t r = 0; r < std::min(top, order.size()); ++r) {
    const std::size_t j = order[r];
    worst.add_row({std::to_string(j), fmt_fixed(baseline.profile[j], 4),
                   fmt_fixed(test.profile[j], 4),
                   std::to_string(baseline.index[j]),
                   std::to_string(test.index[j])});
  }
  std::printf("largest 1-dim deviations:\n%s", worst.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpsim_diff: %s\n", e.what());
    return 1;
  }
}
