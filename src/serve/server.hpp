// The mpsim_serve daemon core: socket listeners, connection handling,
// executor pool, and graceful drain.
//
// Architecture (one process, four thread roles):
//
//   accept loop ──> connection threads ──submit──> JobQueue
//                                                   │ round-robin
//   executor threads <─────────────────────────────┘
//        │  ServeCache (series / staging / profiles)
//        └─ mp::compute_matrix_profile (resilient scheduler backend)
//
// Each accepted connection gets a reader thread that parses
// newline-delimited requests (serve/protocol.hpp), submits query jobs to
// the admission-controlled JobQueue and writes the framed response when
// the job's future resolves.  Executor threads pull jobs fairly across
// clients and run them on the resilient scheduler with
// config.honor_shutdown = false, so a drain never truncates an admitted
// query.
//
// Graceful drain: once shutdown_requested() becomes true (SIGINT /
// SIGTERM / the `shutdown` verb), the accept loop closes its listeners,
// the queue stops admitting, in-flight and queued jobs run to
// completion, their responses are written, and wait() returns so the
// tool can flush metrics and exit with shutdown_exit_code() (143 for
// SIGTERM).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"

namespace mpsim::serve {

struct ServerOptions {
  /// Unix-domain listener path ("" = no unix listener).
  std::string unix_socket;
  /// Loopback TCP port (-1 = no TCP listener, 0 = ephemeral — read the
  /// chosen port back with Server::tcp_port()).
  int tcp_port = -1;
  /// Executor threads — how many queries run concurrently on the
  /// simulated fleet; start() accepts 1 to 64.
  std::size_t executors = 2;
  /// Admission cap: queued jobs not yet started beyond this are rejected.
  std::size_t max_queue = 64;
  /// Simulated nodes each query executes across (results are
  /// byte-identical to nodes=1, see mp/coordinator.cpp).
  int nodes = 1;
  ServeCache::Limits cache_limits;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts every thread; throws Error
  /// when no listener is configured or a bind fails.  Returns once the
  /// server is accepting (tests connect right after).
  void start();

  /// Blocks until a shutdown is requested and the drain completes.
  void wait();

  /// start() + wait().
  void run();

  /// The bound TCP port (after start()), or -1 without a TCP listener.
  int tcp_port() const { return tcp_port_; }

  /// Jobs executed since start (cached and computed).
  std::uint64_t jobs_completed() const {
    return jobs_completed_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void connection_loop(int fd, std::string client);
  void executor_loop();
  Response execute(const Request& request);
  Response execute_query(const Request& request);

  ServerOptions options_;
  ServeCache cache_;
  JobQueue queue_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::string unix_path_;  ///< unlinked on shutdown
  std::atomic<bool> accepting_{false};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> next_client_{0};
  std::thread accept_thread_;
  std::vector<std::thread> executors_;
  std::mutex connections_mutex_;
  std::vector<std::thread> connections_;
};

}  // namespace mpsim::serve
