#include "serve/protocol.hpp"

#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace mpsim::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// The request flags are CLI flags: reuse CliArgs (and with it the strict
/// numeric validation of parse_int_flag/parse_double_flag).
CliArgs args_from_tokens(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv;
  argv.push_back("mpsim_serve");  // CliArgs skips argv[0]
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    argv.push_back(tokens[i].c_str());
  }
  return CliArgs(int(argv.size()), argv.data());
}

}  // namespace

mp::MatrixProfileConfig config_from_args(const CliArgs& args,
                                         bool self_join) {
  mp::MatrixProfileConfig config;
  config.window = args.get_size("window", 64);
  config.mode = parse_precision_mode(args.get_string("mode", "FP64"));
  config.tiles = args.get_int32("tiles", 1);
  config.devices = args.get_int32("devices", 1);
  config.machine = args.get_string("machine", "A100");
  config.exclusion = args.get_int(
      "exclusion", self_join ? std::int64_t(config.window / 2) : 0);
  config.row_path = mp::parse_row_path(args.get_string("row-path", "auto"));
  config.prefilter.mode =
      mp::parse_prefilter_mode(args.get_string("prefilter", "off"));
  config.prefilter.budget =
      args.get_double("prefilter-budget", config.prefilter.budget);
  return config;
}

Request parse_request(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) throw ConfigError("empty request line");
  Request req;
  const std::string& verb = tokens[0];

  if (verb == "ping" || verb == "stats" || verb == "shutdown") {
    req.verb = verb == "ping" ? Request::Verb::kPing
               : verb == "stats" ? Request::Verb::kStats
                                 : Request::Verb::kShutdown;
    const CliArgs args = args_from_tokens(tokens);
    args.check_known({"id"});
    req.id = args.get_string("id", "");
    return req;
  }

  if (verb != "query") {
    throw ConfigError("unknown verb '" + verb +
                      "' (expected query|ping|stats|shutdown)");
  }
  req.verb = Request::Verb::kQuery;
  const CliArgs args = args_from_tokens(tokens);
  args.check_known({"reference", "query", "self-join", "window", "mode",
                    "tiles", "devices", "machine", "exclusion", "row-path",
                    "prefilter", "prefilter-budget", "id"});
  req.id = args.get_string("id", "");
  req.reference_path = args.get_string("reference", "");
  if (req.reference_path.empty()) {
    throw ConfigError("query needs --reference=PATH");
  }
  req.self_join = args.get_bool("self-join", false);
  req.query_path = args.get_string("query", "");
  if (!req.self_join && req.query_path.empty()) {
    throw ConfigError("--query is required unless --self-join is given");
  }

  req.config = config_from_args(args, req.self_join);
  return req;
}

std::string ok_header(const std::string& id, std::size_t payload_bytes,
                      const std::string& extra_json) {
  std::ostringstream os;
  os << "{\"status\": \"ok\", \"id\": \"";
  append_json_escaped(os, id);
  os << "\", \"bytes\": " << payload_bytes << extra_json << "}\n";
  return os.str();
}

std::string error_header(const std::string& id, const std::string& message) {
  std::ostringstream os;
  os << "{\"status\": \"error\", \"id\": \"";
  append_json_escaped(os, id);
  os << "\", \"bytes\": 0, \"error\": \"";
  append_json_escaped(os, message);
  os << "\"}\n";
  return os.str();
}

}  // namespace mpsim::serve
