// Minimal --key=value flag parser shared by the bench and example binaries.
// Only long options are supported; unknown flags raise ConfigError so typos
// in experiment sweeps fail loudly instead of silently using defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace mpsim {

class CliArgs {
 public:
  /// Parses argv of the form `--name=value` or bare `--name` (value "1").
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int for flags stored in an `int`: a value outside int's range
  /// throws Error naming the flag instead of wrapping on the cast.
  int get_int32(const std::string& name, int fallback) const;
  /// get_int for counts and sizes: a negative value throws ConfigError
  /// naming the flag instead of wrapping to 2^64 on the cast.
  std::size_t get_size(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws ConfigError if any parsed flag is not in `known` (comma-free
  /// names). Call after all get_* lookups are declared.
  void check_known(std::initializer_list<const char*> known) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Fails before any work unless the file `--flag` names (when given) can
/// be opened for writing: throws IoError naming the flag.  A file the
/// probe created is removed again; an existing one is opened for append
/// and left untouched.  Shared by mpsim_cli and mpsim_serve.
void probe_writable(const CliArgs& args, const std::string& flag);

/// Parses `text` as a base-10 integer, requiring the whole string to be
/// consumed: "--tiles=abc" and "--window=64garbage" both throw Error
/// naming `flag` instead of silently becoming 0 / 64.  Used by
/// CliArgs::get_int and the serve request parser.
std::int64_t parse_int_flag(const std::string& flag, const std::string& text);

/// Same full-consumption contract for floating-point values.
double parse_double_flag(const std::string& flag, const std::string& text);

}  // namespace mpsim
