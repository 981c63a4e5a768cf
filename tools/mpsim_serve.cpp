// mpsim_serve — long-running matrix-profile-as-a-service daemon.
//
//   mpsim_serve --socket=/tmp/mpsim.sock [--port=0] [--executors=2]
//               [--max-queue=64] [--metrics-out=FILE.json]
//               [--trace-out=FILE.json]
//               [--simd=auto|scalar|f16c|avx2|avx512fp16]
//
// Accepts newline-delimited requests over a unix-domain socket and/or a
// loopback TCP port (see src/serve/protocol.hpp and docs/API.md for the
// protocol).  Query responses are byte-identical to the profile CSV the
// one-shot `mpsim_cli --output` writes for the same flags; repeated
// queries are served from the fingerprint-keyed profile cache, repeated
// inputs reuse loaded series and staged reduced-precision conversions.
//
// SIGINT/SIGTERM (or the `shutdown` verb) begin a graceful drain:
// admitted queries complete and their responses are written, new work is
// refused, metrics/trace files are flushed, and the process exits with
// the conventional 128+signo (130 for SIGINT, 143 for SIGTERM).
#include <cstdio>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "mp/simd/dispatch.hpp"
#include "serve/server.hpp"

namespace {

using namespace mpsim;

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.check_known({"socket", "port", "executors", "max-queue", "nodes",
                    "metrics-out", "trace-out", "simd", "help"});
  if (args.get_bool("help", false) ||
      (!args.has("socket") && !args.has("port"))) {
    std::printf(
        "usage: mpsim_serve --socket=PATH and/or --port=N\n"
        "                   [--executors=2] [--max-queue=64] [--nodes=N]\n"
        "                   [--metrics-out=FILE.json] "
        "[--trace-out=FILE.json]\n"
        "                   [--simd=auto|scalar|f16c|avx2|avx512fp16]\n"
        "protocol (newline-delimited; see docs/API.md \"Serving\"):\n"
        "  query --reference=ref.csv [--query=q.csv|--self-join]\n"
        "        [--window=M] [--mode=FP64] [--tiles=N] [--devices=N]\n"
        "        [--machine=A100] [--exclusion=R] [--row-path=auto]\n"
        "        [--id=TOKEN]\n"
        "  ping | stats | shutdown\n"
        "responses: one JSON header line {\"status\", \"id\", \"bytes\","
        " ...}\n"
        "  followed by exactly `bytes` payload bytes (profile CSV,\n"
        "  byte-identical to the one-shot mpsim_cli --output file)\n"
        "--port binds 127.0.0.1 only; --port=0 picks an ephemeral port\n"
        "  (printed on startup)\n");
    return args.has("socket") || args.has("port") ? 0 : 2;
  }

  // A daemon's registry is always on: the stats verb and the shutdown
  // flush are part of the product, not a debugging opt-in.
  MetricsRegistry::global().reset();
  MetricsRegistry::global().set_enabled(true);
  mp::simd::apply_option(args.get_string("simd", "auto"));

  serve::ServerOptions options;
  options.unix_socket = args.get_string("socket", "");
  options.tcp_port = args.has("port") ? args.get_int32("port", 0) : -1;
  options.executors = args.get_size("executors", 2);
  options.max_queue = args.get_size("max-queue", 64);
  // >1 routes every query through the elastic multi-node coordinator —
  // byte-identical responses, a wider simulated fleet.
  options.nodes = args.get_int32("nodes", 1);

  // An unwritable flush target fails now, not at shutdown after a whole
  // lifetime of metrics (and before the socket exists).
  for (const char* flag : {"metrics-out", "trace-out"}) {
    probe_writable(args, flag);
  }

  install_signal_handlers();
  serve::Server server(std::move(options));
  server.start();
  if (!args.get_string("socket", "").empty()) {
    std::printf("mpsim_serve: listening on unix socket %s\n",
                args.get_string("socket", "").c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("mpsim_serve: listening on 127.0.0.1:%d\n",
                server.tcp_port());
  }
  std::fflush(stdout);
  server.wait();

  std::printf("mpsim_serve: drained after %llu job(s)\n",
              (unsigned long long)server.jobs_completed());
  if (args.has("metrics-out")) {
    const auto path = args.get_string("metrics-out", "");
    MetricsRegistry::global().write_json(path);
    std::printf("metrics written to %s\n", path.c_str());
  }
  if (args.has("trace-out")) {
    const auto path = args.get_string("trace-out", "");
    MetricsRegistry::global().timeline().write_chrome_json(path);
    std::printf("trace written to %s\n", path.c_str());
  }
  return shutdown_requested() ? shutdown_exit_code() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpsim_serve: %s\n", e.what());
    return 1;
  }
}
