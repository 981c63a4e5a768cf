// Wire protocol of the mpsim_serve daemon.
//
// Newline-delimited text requests, framed binary-safe responses:
//
//   request  := <verb> [--flag=value ...] "\n"
//   response := <header JSON object> "\n" <payload bytes>
//
// Verbs:
//   query    — run (or serve from cache) one matrix-profile computation.
//              Flags mirror mpsim_cli: --reference=PATH [--query=PATH]
//              [--self-join] [--window=M] [--mode=FP64|...] [--tiles=N]
//              [--devices=N] [--machine=A100|V100] [--exclusion=R]
//              [--row-path=auto|cooperative]
//              [--prefilter=off|sketch] [--prefilter-budget=B]
//              [--id=TOKEN].
//              Payload: the profile CSV, byte-identical to
//              `mpsim_cli --output` for the same flags.
//   ping     — liveness check; empty payload.
//   stats    — payload is the runtime metrics registry snapshot
//              (mpsim-metrics-v2 JSON, same document as --metrics-out).
//   shutdown — begin a graceful drain (as SIGTERM would); empty payload.
//
// The header is a single-line JSON object: {"status": "ok"|"error",
// "id": "<echoed --id>", "bytes": N, ...verb-specific fields...};
// exactly N payload bytes follow the header's newline.  Error responses
// carry the message in "error" (JSON-escaped) and no payload.
//
// Parsing reuses the CLI flag machinery (config_from_args below) —
// including the strict numeric validation, so `query --window=64garbage`
// is an error response, not a silent window of 64.  Paths may not
// contain whitespace (the request line is whitespace-tokenised).
#pragma once

#include <cstddef>
#include <string>

#include "mp/options.hpp"

namespace mpsim {
class CliArgs;
}

namespace mpsim::serve {

/// The one translation of the output-shaping flags — window, mode,
/// tiles, devices, machine, exclusion (default window/2 for self-joins),
/// row-path, prefilter and prefilter-budget — into a run configuration.
/// mpsim_cli and the query verb both use it, so a served response
/// byte-matches the one-shot CLI output for the same flags by
/// construction.
mp::MatrixProfileConfig config_from_args(const CliArgs& args, bool self_join);

struct Request {
  enum class Verb { kQuery, kPing, kStats, kShutdown };

  Verb verb = Verb::kPing;
  std::string id;  ///< client-chosen token, echoed in the response header

  // Query fields (verb == kQuery only).
  std::string reference_path;
  std::string query_path;  ///< empty for self-joins
  bool self_join = false;
  mp::MatrixProfileConfig config;  ///< window/mode/tiles/... as mpsim_cli
};

/// Parses one request line.  Throws Error (with the offending flag in the
/// message) on unknown verbs, unknown flags and malformed values.
Request parse_request(const std::string& line);

/// Renders a success header.  `extra_json` is appended verbatim inside
/// the object and must start with ", " when non-empty (the caller builds
/// it from already-escaped pieces).
std::string ok_header(const std::string& id, std::size_t payload_bytes,
                      const std::string& extra_json = "");

/// Renders an error header (no payload follows).
std::string error_header(const std::string& id, const std::string& message);

}  // namespace mpsim::serve
