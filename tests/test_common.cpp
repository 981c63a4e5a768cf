// Unit tests for the common utilities: RNG determinism, thread pool,
// table formatting, CLI parsing, error checks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace mpsim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) counts[rng.uniform_index(10)] += 1;
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(5);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, ReseedReproduces) {
  Rng rng(42);
  const auto first = rng.next_u64();
  rng.reseed(42);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto f = pool.submit([&] { value = 42; });
  f.get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, WorkerCountDefaultsPositive) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ManyConcurrentParallelForsFromSubmitters) {
  // Streams call parallel_for concurrently; make sure that is safe.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&] {
      for (int rep = 0; rep < 50; ++rep) {
        pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
          total.fetch_add(long(e - b));
        });
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(total.load(), 4L * 50 * 64);
}

TEST(ThreadPool, ParallelForRebalancesLongTail) {
  // One index is ~100x more expensive than the rest.  Over-decomposed
  // chunk claiming must let the other workers drain the cheap chunks while
  // one worker is stuck, instead of pinning an equal share to each worker
  // up front.  We verify both coverage and that more than one distinct
  // thread executed chunks (i.e. the slow chunk did not serialize the run).
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    {
      std::lock_guard lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    }
    for (std::size_t i = b; i < e; ++i) {
      if (i == 0) {
        // Busy-wait so the first chunk is a genuine straggler.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Over-decomposition guarantees more chunks than workers, so with a
  // 20ms straggler at index 0 at least one other thread must have claimed
  // work (the caller itself participates, so >= 2 is always achievable).
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInline) {
  // Spans at or below the inline threshold run directly in the caller.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(ThreadPool::kInlineMax, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, ThreadPool::kInlineMax);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(Table, AlignsAndCounts) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x", "y"});
  EXPECT_EQ(t.row_count(), 2u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableFormat, Helpers) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_NE(fmt_sci(12345.0).find("e"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--n=128", "--mode=FP16", "--verbose"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get_string("mode", ""), "FP16");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(Cli, RejectsPositionalAndUnknown) {
  const char* bad[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, bad), Error);

  const char* argv[] = {"prog", "--typo=1"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.check_known({"n", "mode"}), Error);
}

TEST(Cli, MalformedNumericFlagsThrowInsteadOfSilentlyTruncating) {
  // Regression: get_int/get_double used strtoll/strtod with a null endptr,
  // so "--tiles=abc" parsed as 0 and "--window=64garbage" as 64; and an
  // int flag was cast from int64, so "--nodes=4294967297" ran as 1.
  const char* argv[] = {"prog", "--tiles=abc", "--window=64garbage",
                        "--slack=1.5x", "--empty=", "--nodes=4294967297",
                        "--devices=-2147483649"};
  CliArgs args(7, argv);
  EXPECT_THROW(args.get_int("tiles", 0), Error);
  EXPECT_THROW(args.get_int("window", 0), Error);
  EXPECT_THROW(args.get_double("slack", 0.0), Error);
  EXPECT_THROW(args.get_int("empty", 0), Error);
  EXPECT_THROW(args.get_double("empty", 0.0), Error);
  EXPECT_THROW(args.get_int32("devices", 1), Error);
  // The message must name the flag and the bad value.
  const auto message = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const Error& e) {
      return e.what();
    }
    return "no throw";
  };
  const auto tiles = message([&] { args.get_int("tiles", 0); });
  EXPECT_NE(tiles.find("--tiles=abc"), std::string::npos) << tiles;
  const auto nodes = message([&] { args.get_int32("nodes", 1); });
  EXPECT_NE(nodes.find("--nodes=4294967297"), std::string::npos) << nodes;
}

TEST(Cli, WellFormedNumericFlagsStillParse) {
  const char* argv[] = {"prog", "--a=-42", "--b=1e3", "--c=0.125",
                        "--d=+7", "--max=2147483647", "--min=-2147483648"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("a", 0), -42);
  EXPECT_DOUBLE_EQ(args.get_double("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(args.get_double("c", 0.0), 0.125);
  EXPECT_EQ(args.get_int("d", 0), 7);
  EXPECT_EQ(args.get_int32("a", 0), -42);
  EXPECT_EQ(args.get_int32("max", 0), std::numeric_limits<int>::max());
  EXPECT_EQ(args.get_int32("min", 0), std::numeric_limits<int>::min());
  EXPECT_EQ(args.get_int32("absent", 7), 7);
}

TEST(Cli, SizeFlagsRejectNegativesInsteadOfWrapping) {
  // Regression: counts were read as std::size_t(get_int(...)), so
  // "--window=-5" became 18446744073709551611.
  const char* argv[] = {"prog", "--window=-5", "--motifs=0",
                        "--top=9223372036854775807", "--bad=1x"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_size("motifs", 3), 0u);
  EXPECT_EQ(args.get_size("top", 0), 9223372036854775807u);
  EXPECT_EQ(args.get_size("absent", 64), 64u);
  EXPECT_THROW(args.get_size("bad", 0), ConfigError);
  try {
    args.get_size("window", 64);
    ADD_FAILURE() << "--window=-5 was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--window=-5"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, ParseFlagHelpersValidateDirectly) {
  EXPECT_EQ(parse_int_flag("tiles", "16"), 16);
  EXPECT_DOUBLE_EQ(parse_double_flag("slack", "2.5"), 2.5);
  EXPECT_THROW(parse_int_flag("tiles", "1.5"), Error);
  EXPECT_THROW(parse_int_flag("tiles", "  3"), Error);
  EXPECT_THROW(parse_int_flag("tiles", "99999999999999999999999"), Error);
  EXPECT_THROW(parse_double_flag("slack", "nanx"), Error);
}

TEST(Shutdown, ExitCodeFollowsSignalConvention) {
  clear_shutdown();
  // Programmatic shutdown (tests, --kill-after-tiles): no signal recorded,
  // the historical 130 stays.
  request_shutdown();
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(shutdown_signal(), 0);
  EXPECT_EQ(shutdown_exit_code(), 130);
  clear_shutdown();
  EXPECT_FALSE(shutdown_requested());
  EXPECT_EQ(shutdown_signal(), 0);

  // Regression: a real SIGTERM must exit 143 (128+15), not the
  // SIGINT-flavoured 130, so orchestrators can tell the two apart.
  install_signal_handlers();
  std::raise(SIGTERM);  // first signal: graceful path, flag + signal set
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(shutdown_signal(), SIGTERM);
  EXPECT_EQ(shutdown_exit_code(), 128 + SIGTERM);
  clear_shutdown();

  std::raise(SIGINT);
  EXPECT_EQ(shutdown_signal(), SIGINT);
  EXPECT_EQ(shutdown_exit_code(), 130);
  clear_shutdown();
}

TEST(Error, CheckMacroThrowsWithMessage) {
  try {
    MPSIM_CHECK(1 == 2, "custom context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace mpsim
