#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "serve/render.hpp"

namespace mpsim::serve {

namespace {

constexpr int kPollMs = 100;  // shutdown-notice latency of blocking loops

struct ServeMetrics {
  Counter& requests;
  Counter& queries;
  Counter& responses_ok;
  Counter& responses_error;
  Counter& jobs_completed;
  Counter& connections;
  Histogram& job_seconds;

  static ServeMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static ServeMetrics m{reg.counter("serve.requests"),
                          reg.counter("serve.requests.query"),
                          reg.counter("serve.responses.ok"),
                          reg.counter("serve.responses.error"),
                          reg.counter("serve.jobs_completed"),
                          reg.counter("serve.connections"),
                          reg.histogram("serve.job_seconds")};
    return m;
  }
};

/// Blocking all-or-error write (EINTR-safe); returns false on a closed or
/// broken peer — the caller just drops the connection.  MSG_NOSIGNAL:
/// a client hanging up before its response is written must surface as
/// EPIPE here, not deliver a process-killing SIGPIPE to the daemon.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += std::size_t(n);
  }
  return true;
}

/// Reads until '\n' with a poll loop so a drain can close idle
/// connections.  Returns false on EOF/error/drain-while-idle; the
/// (newline-stripped) line is placed in `line`.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const auto newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    // Only idle connections (no partial request buffered) close on drain:
    // a half-sent request still gets parsed and answered or rejected.
    if (shutdown_requested() && buffer.empty()) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return false;
    if (ready == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF or error
    buffer.append(chunk, std::size_t(n));
  }
}

int make_unix_listener(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  MPSIM_CHECK(fd >= 0, "socket(AF_UNIX): " << std::strerror(errno));
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  MPSIM_CHECK(path.size() < sizeof(addr.sun_path),
              "unix socket path '" << path << "' is too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    MPSIM_CHECK(false, "cannot listen on unix socket '"
                           << path << "': " << std::strerror(err));
  }
  return fd;
}

int make_tcp_listener(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MPSIM_CHECK(fd >= 0, "socket(AF_INET): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(std::uint16_t(port));
  // Loopback only: the daemon speaks an unauthenticated protocol.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    MPSIM_CHECK(false, "cannot listen on 127.0.0.1:" << port << ": "
                                                     << std::strerror(err));
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  MPSIM_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                            &len) == 0,
              "getsockname: " << std::strerror(errno));
  bound_port = int(ntohs(bound.sin_port));
  return fd;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_limits),
      queue_(options_.max_queue) {}

Server::~Server() {
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Server::start() {
  MPSIM_CHECK(!options_.unix_socket.empty() || options_.tcp_port >= 0,
              "serve needs --socket=PATH and/or --port=N");
  // Each executor is a thread: bound the count before any starts.
  if (options_.executors < 1 || options_.executors > 64) {
    throw ConfigError("--executors must be in [1, 64], got " +
                      std::to_string(options_.executors));
  }
  if (!options_.unix_socket.empty()) {
    unix_fd_ = make_unix_listener(options_.unix_socket);
    unix_path_ = options_.unix_socket;
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = make_tcp_listener(options_.tcp_port, tcp_port_);
  }
  accepting_.store(true);
  for (std::size_t i = 0; i < options_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  std::vector<struct pollfd> fds;
  if (unix_fd_ >= 0) fds.push_back({unix_fd_, POLLIN, 0});
  if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
  while (!shutdown_requested()) {
    for (auto& pfd : fds) pfd.revents = 0;
    const int ready = ::poll(fds.data(), nfds_t(fds.size()), kPollMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    for (const auto& pfd : fds) {
      if ((pfd.revents & POLLIN) == 0) continue;
      const int conn = ::accept(pfd.fd, nullptr, nullptr);
      if (conn < 0) continue;
      ServeMetrics::get().connections.add();
      const std::string client =
          "client-" + std::to_string(next_client_.fetch_add(1) + 1);
      std::lock_guard lock(connections_mutex_);
      connections_.emplace_back(
          [this, conn, client] { connection_loop(conn, client); });
    }
  }
  // Drain: stop accepting; queued/in-flight work still completes.
  accepting_.store(false);
  queue_.drain();
}

void Server::connection_loop(int fd, std::string client) {
  std::string buffer;
  std::string line;
  while (read_line(fd, buffer, line)) {
    if (line.empty()) continue;
    ServeMetrics::get().requests.add();

    Request request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      ServeMetrics::get().responses_error.add();
      const std::string header = error_header("", e.what());
      if (!write_all(fd, header.data(), header.size())) break;
      continue;
    }

    Response response;
    if (request.verb == Request::Verb::kQuery) {
      ServeMetrics::get().queries.add();
      auto job = std::make_unique<Job>();
      job->request = request;
      job->client = client;
      auto future = job->promise.get_future();
      if (!queue_.submit(std::move(job))) {
        response = {error_header(request.id,
                                 queue_.draining()
                                     ? "shutting down, not accepting work"
                                     : "queue full, try again later"),
                    ""};
      } else {
        response = future.get();  // executors fulfil every admitted job
      }
    } else {
      response = execute(request);
    }

    const bool ok = response.header.find("\"status\": \"ok\"") !=
                    std::string::npos;
    (ok ? ServeMetrics::get().responses_ok
        : ServeMetrics::get().responses_error)
        .add();
    if (!write_all(fd, response.header.data(), response.header.size())) break;
    if (!response.payload.empty() &&
        !write_all(fd, response.payload.data(), response.payload.size())) {
      break;
    }
  }
  ::close(fd);
}

void Server::executor_loop() {
  while (auto job = queue_.next()) {
    const double start = MetricsRegistry::global().now_seconds();
    Response response;
    try {
      response = execute_query(job->request);
    } catch (const std::exception& e) {
      response = {error_header(job->request.id, e.what()), ""};
    }
    ServeMetrics::get().job_seconds.record(
        MetricsRegistry::global().now_seconds() - start);
    ServeMetrics::get().jobs_completed.add();
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    job->promise.set_value(std::move(response));
  }
}

Response Server::execute(const Request& request) {
  switch (request.verb) {
    case Request::Verb::kPing:
      return {ok_header(request.id, 0, ", \"pong\": true"), ""};
    case Request::Verb::kStats: {
      std::string payload = MetricsRegistry::global().snapshot().to_json();
      return {ok_header(request.id, payload.size()), std::move(payload)};
    }
    case Request::Verb::kShutdown:
      request_shutdown();
      return {ok_header(request.id, 0, ", \"draining\": true"), ""};
    case Request::Verb::kQuery:
      return execute_query(request);  // direct path (tests)
  }
  return {error_header(request.id, "unhandled verb"), ""};
}

Response Server::execute_query(const Request& request) {
  auto input = cache_.input(request.reference_path,
                            request.self_join ? "" : request.query_path);

  mp::MatrixProfileConfig config = request.config;
  // Complete profiles are keyed by profile_cache_key, not the checkpoint
  // fingerprint: the fingerprint deliberately ignores the tile grid (so
  // elastic resume can re-key slices across grids), but the grid DOES
  // change reduced-precision output bits — two grids must not collide.
  const std::uint64_t cache_key =
      mp::profile_cache_key(*input->reference, *input->query, config);

  auto profile = cache_.find_profile(cache_key);
  const bool cached = profile != nullptr;
  if (!cached) {
    // Serve policy on top of the one-shot defaults: reuse the input's
    // staging conversions, and never let a drain truncate an admitted
    // query — neither affects the output bits (the cache key ignores
    // both knobs).
    config.staging_cache = &input->staging;
    config.resilience.honor_shutdown = false;
    config.nodes = options_.nodes;
    const mp::MatrixProfileResult result = mp::compute_matrix_profile(
        *input->reference, *input->query, config);
    // Rendered once: every later hit answers with these bytes.
    profile = std::make_shared<const CachedProfile>(CachedProfile{
        profile_to_csv(result), result.segments, result.dims});
    cache_.store_profile(cache_key, profile);
  }

  std::ostringstream extra;
  extra << ", \"cached\": " << (cached ? "true" : "false")
        << ", \"segments\": " << profile->segments
        << ", \"dims\": " << profile->dims << ", \"mode\": \""
        << to_string(request.config.mode) << "\"";
  return {ok_header(request.id, profile->csv.size(), extra.str()),
          profile->csv};
}

void Server::wait() {
  accept_thread_.join();  // returns once shutdown_requested() and drained
  for (auto& t : executors_) t.join();
  {
    std::lock_guard lock(connections_mutex_);
    for (auto& t : connections_) t.join();
    connections_.clear();
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void Server::run() {
  start();
  wait();
}

}  // namespace mpsim::serve
