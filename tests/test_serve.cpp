// Tests for the serve daemon: request parsing, response framing, the
// admission-controlled fair job queue, the cross-query caches, and an
// in-process end-to-end run over a unix-domain socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "serve/cache.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::serve {
namespace {

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, QueryDefaultsMirrorTheCli) {
  const auto req =
      parse_request("query --reference=/tmp/ref.csv --self-join --id=q7");
  EXPECT_EQ(req.verb, Request::Verb::kQuery);
  EXPECT_EQ(req.id, "q7");
  EXPECT_EQ(req.reference_path, "/tmp/ref.csv");
  EXPECT_TRUE(req.self_join);
  EXPECT_TRUE(req.query_path.empty());
  EXPECT_EQ(req.config.window, 64u);
  EXPECT_EQ(req.config.mode, PrecisionMode::FP64);
  EXPECT_EQ(req.config.tiles, 1);
  EXPECT_EQ(req.config.devices, 1);
  EXPECT_EQ(req.config.machine, "A100");
  // Self-joins default to the CLI's window/2 exclusion radius.
  EXPECT_EQ(req.config.exclusion, 32);
}

TEST(ServeProtocol, QueryParsesEveryFlag) {
  const auto req = parse_request(
      "query --reference=a.csv --query=b.csv --window=32 --mode=FP16 "
      "--tiles=4 --devices=2 --machine=V100 --exclusion=3 "
      "--row-path=cooperative");
  EXPECT_FALSE(req.self_join);
  EXPECT_EQ(req.query_path, "b.csv");
  EXPECT_EQ(req.config.window, 32u);
  EXPECT_EQ(req.config.mode, PrecisionMode::FP16);
  EXPECT_EQ(req.config.tiles, 4);
  EXPECT_EQ(req.config.devices, 2);
  EXPECT_EQ(req.config.machine, "V100");
  EXPECT_EQ(req.config.exclusion, 3);
  EXPECT_EQ(req.config.row_path, mp::RowPath::kCooperative);
}

TEST(ServeProtocol, OtherVerbsParse) {
  EXPECT_EQ(parse_request("ping").verb, Request::Verb::kPing);
  EXPECT_EQ(parse_request("stats --id=s").verb, Request::Verb::kStats);
  EXPECT_EQ(parse_request("shutdown").verb, Request::Verb::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(""), Error);
  EXPECT_THROW(parse_request("   "), Error);
  EXPECT_THROW(parse_request("frobnicate"), Error);
  // Query without a reference series.
  EXPECT_THROW(parse_request("query --self-join"), Error);
  // Unknown flag.
  EXPECT_THROW(parse_request("query --reference=a.csv --bogus=1"), Error);
  // Neither --query nor --self-join.
  EXPECT_THROW(parse_request("query --reference=a.csv"), Error);
}

TEST(ServeProtocol, MalformedNumericFlagNamesTheFlag) {
  // The strict CLI numeric validation must surface through the daemon
  // parser: pre-fix this silently ran with window=64.
  try {
    parse_request("query --reference=a.csv --self-join --window=64garbage");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--window=64garbage"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, ErrorMessagesShowNoSourceLocations) {
  // These messages reach a remote client's error header: they say what is
  // wrong with the request, not where in the daemon the check sits.
  for (const char* line :
       {"", "frobnicate", "query --self-join",
        "query --reference=a.csv --bogus=1", "query --reference=a.csv",
        "query --reference=a.csv --self-join --window=x",
        "query --reference=a.csv --self-join --tiles=99999999999",
        "query stray --reference=a.csv --self-join"}) {
    try {
      parse_request(line);
      FAIL() << "parsed: " << line;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
      EXPECT_EQ(what.find("MPSIM_CHECK"), std::string::npos) << what;
    }
  }
}

TEST(ServeProtocol, HeadersAreFramedAndEscaped) {
  const auto ok = ok_header("q1", 42, ", \"cached\": true");
  EXPECT_EQ(ok.back(), '\n');
  EXPECT_NE(ok.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(ok.find("\"id\": \"q1\""), std::string::npos);
  EXPECT_NE(ok.find("\"bytes\": 42"), std::string::npos);
  EXPECT_NE(ok.find("\"cached\": true"), std::string::npos);

  const auto err = error_header("q\"2", "bad \"flag\"\nwith \\ stuff");
  EXPECT_EQ(err.back(), '\n');
  EXPECT_NE(err.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(err.find("\"id\": \"q\\\"2\""), std::string::npos);
  EXPECT_NE(err.find("bad \\\"flag\\\"\\nwith \\\\ stuff"),
            std::string::npos)
      << err;
  // The header must stay a single line despite the embedded newline.
  EXPECT_EQ(err.find('\n'), err.size() - 1);
}

// ---------------------------------------------------------------------------
// Job queue

std::unique_ptr<Job> make_job(const std::string& client,
                              const std::string& id) {
  auto job = std::make_unique<Job>();
  job->request = parse_request("ping --id=" + id);
  job->client = client;
  return job;
}

TEST(ServeJobQueue, AdmissionCapRejectsBeyondDepth) {
  JobQueue queue(2);
  EXPECT_TRUE(queue.submit(make_job("a", "1")));
  EXPECT_TRUE(queue.submit(make_job("a", "2")));
  EXPECT_FALSE(queue.submit(make_job("a", "3")));
  EXPECT_EQ(queue.depth(), 2u);
  // Draining a job frees a slot again.
  EXPECT_NE(queue.next(), nullptr);
  EXPECT_TRUE(queue.submit(make_job("a", "3")));
}

TEST(ServeJobQueue, RoundRobinAcrossClients) {
  JobQueue queue(16);
  // Client a bursts three jobs before b and c submit one each; fairness
  // means a cannot hold the head of the line for all three.
  ASSERT_TRUE(queue.submit(make_job("a", "a1")));
  ASSERT_TRUE(queue.submit(make_job("a", "a2")));
  ASSERT_TRUE(queue.submit(make_job("a", "a3")));
  ASSERT_TRUE(queue.submit(make_job("b", "b1")));
  ASSERT_TRUE(queue.submit(make_job("c", "c1")));
  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) {
    auto job = queue.next();
    ASSERT_NE(job, nullptr);
    order.push_back(job->request.id);
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"a1", "b1", "c1", "a2", "a3"}));
}

TEST(ServeJobQueue, DrainStopsAdmissionButFinishesAdmittedWork) {
  JobQueue queue(16);
  ASSERT_TRUE(queue.submit(make_job("a", "1")));
  ASSERT_TRUE(queue.submit(make_job("a", "2")));
  queue.drain();
  EXPECT_TRUE(queue.draining());
  EXPECT_FALSE(queue.submit(make_job("a", "3")));
  // Admitted jobs are still handed out, then nullptr ends the executors.
  EXPECT_NE(queue.next(), nullptr);
  EXPECT_NE(queue.next(), nullptr);
  EXPECT_EQ(queue.next(), nullptr);
}

TEST(ServeJobQueue, DrainWakesBlockedExecutor) {
  JobQueue queue(4);
  std::thread executor([&] {
    // Blocks until drain(); must return nullptr, not hang.
    EXPECT_EQ(queue.next(), nullptr);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.drain();
  executor.join();
}

TEST(ServeJobQueue, ConcurrentDrainLosesNoAdmittedJobAdmitsNoneAfter) {
  // The SIGTERM drain race: clients submitting full-tilt while another
  // thread drains.  Two invariants, whatever the interleaving: every
  // job submit() admitted is handed to an executor exactly once, and no
  // submit() succeeds after drain() returned.  Run many rounds — the
  // race window is a handful of instructions (this is also the soak
  // body scripts/run_sanitizers.sh leans on under TSan).
  constexpr int kRounds = 40;
  constexpr int kProducers = 4;
  constexpr int kJobsPerProducer = 32;
  for (int round = 0; round < kRounds; ++round) {
    JobQueue queue(std::size_t(kProducers * kJobsPerProducer));
    std::atomic<bool> go{false};
    std::atomic<int> admitted{0};
    std::atomic<int> executed{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        while (!go.load()) std::this_thread::yield();
        const std::string client = "c" + std::to_string(p);
        for (int j = 0; j < kJobsPerProducer; ++j) {
          if (queue.submit(make_job(client, std::to_string(j)))) {
            admitted.fetch_add(1);
          }
        }
      });
    }
    std::vector<std::thread> executors;
    for (int e = 0; e < 2; ++e) {
      executors.emplace_back([&] {
        while (queue.next() != nullptr) executed.fetch_add(1);
      });
    }

    go.store(true);
    if (round % 2 == 1) std::this_thread::yield();
    queue.drain();  // races both the producers and the executors
    for (auto& t : producers) t.join();

    // Post-drain admission is refused even while executors still run.
    EXPECT_FALSE(queue.submit(make_job("late", "late")));

    for (auto& t : executors) t.join();
    EXPECT_EQ(executed.load(), admitted.load()) << "round " << round;
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.next(), nullptr);  // drained queues stay drained
  }
}

// ---------------------------------------------------------------------------
// Caches

TEST(ServeCacheTest, SeriesCacheHitsAndReloadsOnFileChange) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  const auto path = temp_file("mpsim_serve_series.csv");
  write_csv(path, make_noise_series(128, 2, 0.5, 1));

  ServeCache cache;
  const auto first = cache.series(path);
  const auto second = cache.series(path);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(reg.counter("serve.series_cache.hits").value(), 1u);
  EXPECT_EQ(reg.counter("serve.series_cache.misses").value(), 1u);

  // Rewriting the file (different length => different size) invalidates.
  write_csv(path, make_noise_series(200, 2, 0.5, 2));
  const auto third = cache.series(path);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(third->length(), 200u);
  EXPECT_EQ(reg.counter("serve.series_cache.misses").value(), 2u);

  std::filesystem::remove(path);
  EXPECT_THROW(cache.series(path), Error);
  reg.reset();
  reg.set_enabled(false);
}

TEST(ServeCacheTest, SelfJoinInputAliasesReferenceAndIsReused) {
  const auto path = temp_file("mpsim_serve_input.csv");
  write_csv(path, make_noise_series(128, 1, 0.5, 3));

  ServeCache cache;
  const auto input = cache.input(path, "");
  EXPECT_EQ(input->reference.get(), input->query.get());
  const auto again = cache.input(path, "");
  EXPECT_EQ(input.get(), again.get());

  // A file change rebuilds the working set (fresh staging cache bound to
  // the reloaded series).
  write_csv(path, make_noise_series(160, 1, 0.5, 4));
  const auto rebuilt = cache.input(path, "");
  EXPECT_NE(rebuilt.get(), input.get());
  EXPECT_EQ(rebuilt->reference->length(), 160u);
  std::filesystem::remove(path);
}

TEST(ServeCacheTest, ProfileCacheStoresFindsAndEvictsFifo) {
  CacheLimits limits;
  limits.max_profiles = 2;
  ServeCache cache(limits);

  // Entries hold the rendered payload, so a hit renders nothing.
  cache.store_profile(1, std::make_shared<const CachedProfile>(
                             CachedProfile{"profile_0,index_0\n", 7, 1}));
  cache.store_profile(2, std::make_shared<const CachedProfile>());
  ASSERT_NE(cache.find_profile(1), nullptr);
  EXPECT_EQ(cache.find_profile(1)->segments, 7u);
  EXPECT_EQ(cache.find_profile(1)->csv, "profile_0,index_0\n");

  // A third insert evicts the oldest key (FIFO).
  cache.store_profile(3, std::make_shared<const CachedProfile>());
  EXPECT_EQ(cache.find_profile(1), nullptr);
  EXPECT_NE(cache.find_profile(2), nullptr);
  EXPECT_NE(cache.find_profile(3), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end over a unix-domain socket

class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MPSIM_CHECK(fd_ >= 0, "socket()");
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    MPSIM_CHECK(socket_path.size() < sizeof(addr.sun_path),
                "socket path too long");
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    MPSIM_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "connect('" << socket_path << "')");
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const auto n = ::write(fd_, framed.data() + off, framed.size() - off);
      MPSIM_CHECK(n > 0, "write to daemon failed");
      off += std::size_t(n);
    }
  }

  std::string read_header() {
    std::string line;
    char c = 0;
    while (true) {
      const auto n = ::read(fd_, &c, 1);
      MPSIM_CHECK(n == 1, "daemon closed mid-header");
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  std::string read_payload(std::size_t bytes) {
    std::string payload(bytes, '\0');
    std::size_t off = 0;
    while (off < bytes) {
      const auto n = ::read(fd_, payload.data() + off, bytes - off);
      MPSIM_CHECK(n > 0, "daemon closed mid-payload");
      off += std::size_t(n);
    }
    return payload;
  }

 private:
  int fd_ = -1;
};

std::size_t payload_bytes(const std::string& header) {
  const auto pos = header.find("\"bytes\": ");
  MPSIM_CHECK(pos != std::string::npos, "no bytes field in " << header);
  return std::size_t(std::strtoull(header.c_str() + pos + 9, nullptr, 10));
}

TEST(ServeServer, EndToEndQueriesCachingAndGracefulShutdown) {
  clear_shutdown();
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);

  const auto ref_path = temp_file("mpsim_serve_e2e_ref.csv");
  write_csv(ref_path, make_noise_series(256, 2, 0.5, 11));

  ServerOptions options;
  options.unix_socket = temp_file("mpsim_serve_e2e.sock");
  options.executors = 2;
  Server server(options);
  server.start();

  const std::string query_line =
      "query --reference=" + ref_path +
      " --self-join --window=16 --mode=FP32 --id=q1";

  {
    RawClient client(options.unix_socket);
    client.send_line("ping --id=p1");
    const auto ping = client.read_header();
    EXPECT_NE(ping.find("\"status\": \"ok\""), std::string::npos) << ping;
    EXPECT_NE(ping.find("\"id\": \"p1\""), std::string::npos) << ping;
    EXPECT_EQ(payload_bytes(ping), 0u);

    client.send_line(query_line);
    const auto header1 = client.read_header();
    ASSERT_NE(header1.find("\"status\": \"ok\""), std::string::npos)
        << header1;
    EXPECT_NE(header1.find("\"cached\": false"), std::string::npos)
        << header1;
    const auto body1 = client.read_payload(payload_bytes(header1));

    // The response body is byte-identical to an in-process run through
    // the shared formatter — the serving contract.
    const auto request = parse_request(query_line);
    const auto reference = read_csv(ref_path);
    const auto expected = serve::profile_to_csv(
        mp::compute_matrix_profile(reference, reference, request.config));
    EXPECT_EQ(body1, expected);

    // Same query again: served from the profile cache — the payload
    // rendered on the miss — byte-identical to the miss and to the file
    // `mpsim_cli --output` writes for the same flags.
    client.send_line(query_line);
    const auto header2 = client.read_header();
    EXPECT_NE(header2.find("\"cached\": true"), std::string::npos)
        << header2;
    const auto body2 = client.read_payload(payload_bytes(header2));
    EXPECT_EQ(body2, body1);
    const std::string output = temp_file("mpsim_serve_e2e_output.csv");
    serve::write_profile_csv(
        output,
        mp::compute_matrix_profile(reference, reference, request.config));
    std::ifstream written(output, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(written), {}),
              body2);
    std::filesystem::remove(output);
    EXPECT_GE(reg.counter("serve.profile_cache.hits").value(), 1u);

    // A malformed query is an error response, not a dead connection.
    client.send_line("query --reference=" + ref_path +
                     " --self-join --window=garbage --id=bad");
    const auto err = client.read_header();
    EXPECT_NE(err.find("\"status\": \"error\""), std::string::npos) << err;
    EXPECT_NE(err.find("--window=garbage"), std::string::npos) << err;

    // So is a query validate_config rejects: a NaN prefilter budget.
    client.send_line("query --reference=" + ref_path +
                     " --self-join --window=16 --mode=FP16 --prefilter=sketch"
                     " --prefilter-budget=nan --id=nan");
    const auto nan_err = client.read_header();
    EXPECT_NE(nan_err.find("\"status\": \"error\""), std::string::npos)
        << nan_err;
    EXPECT_NE(nan_err.find("--prefilter-budget"), std::string::npos)
        << nan_err;

    // Stats returns the metrics document with the serve counters in it.
    client.send_line("stats --id=s1");
    const auto stats_header = client.read_header();
    const auto stats = client.read_payload(payload_bytes(stats_header));
    EXPECT_NE(stats.find("mpsim-metrics-v2"), std::string::npos);
    EXPECT_NE(stats.find("serve.requests"), std::string::npos);

    // Graceful drain through the protocol (as SIGTERM would).
    client.send_line("shutdown --id=bye");
    const auto bye = client.read_header();
    EXPECT_NE(bye.find("\"status\": \"ok\""), std::string::npos) << bye;
  }

  server.wait();
  EXPECT_TRUE(shutdown_requested());
  EXPECT_GE(server.jobs_completed(), 2u);
  // The daemon unlinks its socket on the way out.
  EXPECT_FALSE(std::filesystem::exists(options.unix_socket));

  clear_shutdown();
  reg.reset();
  reg.set_enabled(false);
  std::filesystem::remove(ref_path);
}

TEST(ServeServer, MultiNodeQueriesAreByteIdenticalToSingleNode) {
  // --nodes=2 routes query execution through the elastic coordinator;
  // the serving contract (bytes identical to the one-shot run) holds.
  clear_shutdown();
  const auto ref_path = temp_file("mpsim_serve_nodes_ref.csv");
  write_csv(ref_path, make_noise_series(256, 2, 0.5, 17));

  ServerOptions options;
  options.unix_socket = temp_file("mpsim_serve_nodes.sock");
  options.executors = 1;
  options.nodes = 2;
  Server server(options);
  server.start();

  {
    RawClient client(options.unix_socket);
    client.send_line("query --reference=" + ref_path +
                     " --self-join --window=16 --mode=Mixed --tiles=4 "
                     "--devices=2 --id=q1");
    const auto header = client.read_header();
    ASSERT_NE(header.find("\"status\": \"ok\""), std::string::npos)
        << header;
    const auto body = client.read_payload(payload_bytes(header));

    const auto request = parse_request(
        "query --reference=" + ref_path +
        " --self-join --window=16 --mode=Mixed --tiles=4 --devices=2");
    const auto reference = read_csv(ref_path);
    const auto expected = serve::profile_to_csv(
        mp::compute_matrix_profile(reference, reference, request.config));
    EXPECT_EQ(body, expected);
    client.send_line("shutdown");
  }
  server.wait();
  clear_shutdown();
  std::filesystem::remove(ref_path);
}

TEST(ServeServer, OversizedFleetIsAnErrorAndTheDaemonStaysUp) {
  // Each device of a run starts a worker thread and a pool: a query asking
  // for more than 64 devices gets an error header naming the flag, and
  // the daemon goes on answering valid queries.
  clear_shutdown();
  const auto ref_path = temp_file("mpsim_serve_fleet_ref.csv");
  write_csv(ref_path, make_noise_series(256, 2, 0.5, 19));

  ServerOptions options;
  options.unix_socket = temp_file("mpsim_serve_fleet.sock");
  options.executors = 1;
  Server server(options);
  server.start();

  {
    RawClient client(options.unix_socket);
    client.send_line("query --reference=" + ref_path +
                     " --self-join --window=16 --devices=65 --id=big");
    const auto err = client.read_header();
    EXPECT_NE(err.find("\"status\": \"error\""), std::string::npos) << err;
    EXPECT_NE(err.find("devices"), std::string::npos) << err;

    client.send_line("query --reference=" + ref_path +
                     " --self-join --window=16 --devices=2 --id=ok");
    const auto header = client.read_header();
    ASSERT_NE(header.find("\"status\": \"ok\""), std::string::npos)
        << header;
    EXPECT_GT(client.read_payload(payload_bytes(header)).size(), 0u);
    client.send_line("shutdown");
  }
  server.wait();
  clear_shutdown();
  std::filesystem::remove(ref_path);
}

TEST(ServeServer, ExecutorCountIsCheckedBeforeAnyThreadStarts) {
  for (const std::size_t executors : {std::size_t(0), std::size_t(65)}) {
    ServerOptions options;
    options.unix_socket = temp_file("mpsim_serve_executors.sock");
    std::filesystem::remove(options.unix_socket);
    options.executors = executors;
    Server server(options);
    try {
      server.start();
      ADD_FAILURE() << executors << " executors were accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--executors"), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(std::filesystem::exists(options.unix_socket));
  }
}

TEST(ServeServer, RejectsQueriesOnceQueueIsFull) {
  clear_shutdown();
  ServerOptions options;
  options.unix_socket = temp_file("mpsim_serve_full.sock");
  options.executors = 1;
  options.max_queue = 0;  // everything beyond the running job is rejected
  Server server(options);
  server.start();

  {
    RawClient client(options.unix_socket);
    client.send_line("query --reference=/nonexistent.csv --self-join "
                     "--id=q1");
    const auto header = client.read_header();
    // Depending on dispatch timing this is either an admission rejection
    // or a load error — both must be error responses on a live socket.
    EXPECT_NE(header.find("\"status\": \"error\""), std::string::npos)
        << header;
    client.send_line("ping --id=p");
    EXPECT_NE(client.read_header().find("\"status\": \"ok\""),
              std::string::npos);
    client.send_line("shutdown");
  }
  server.wait();
  clear_shutdown();
}

}  // namespace
}  // namespace mpsim::serve
