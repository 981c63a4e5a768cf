#include "common/cli.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/error.hpp"

namespace mpsim {

namespace {

/// strto* consumed all of `text`, and `text` has no leading whitespace
/// (strto* skips it).
bool fully_parsed(const std::string& text, const char* end) {
  return !text.empty() &&
         !std::isspace(static_cast<unsigned char>(text.front())) &&
         end == text.c_str() + text.size();
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, 2) != "--") {
      throw ConfigError("unexpected positional argument '" +
                        std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    // insert_or_assign with explicit string temporaries sidesteps GCC 12's
    // -Wrestrict false positive (PR 105651) on operator[]-assignments.
    if (eq == std::string_view::npos) {
      values_.insert_or_assign(std::string(arg), std::string("1"));
    } else {
      values_.insert_or_assign(std::string(arg.substr(0, eq)),
                               std::string(arg.substr(eq + 1)));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int_flag(name, it->second);
}

int CliArgs::get_int32(const std::string& name, int fallback) const {
  const std::int64_t value = get_int(name, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw ConfigError("--" + name + "=" + std::to_string(value) +
                      " is out of int range");
  }
  return int(value);
}

std::size_t CliArgs::get_size(const std::string& name,
                              std::size_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::int64_t value = parse_int_flag(name, it->second);
  if (value < 0) {
    throw ConfigError("--" + name + "=" + it->second +
                      " must not be negative");
  }
  return std::size_t(value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_double_flag(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "0" && it->second != "false";
}

std::int64_t parse_int_flag(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (!fully_parsed(text, end)) {
    throw ConfigError("--" + flag + "=" + text + " is not an integer");
  }
  if (errno == ERANGE) {
    throw ConfigError("--" + flag + "=" + text + " is out of integer range");
  }
  return value;
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (!fully_parsed(text, end)) {
    throw ConfigError("--" + flag + "=" + text + " is not a number");
  }
  if (errno == ERANGE) {
    throw ConfigError("--" + flag + "=" + text + " is out of range");
  }
  return value;
}

void CliArgs::check_known(std::initializer_list<const char*> known) const {
  for (const auto& [name, value] : values_) {
    (void)value;
    const bool ok = std::any_of(known.begin(), known.end(),
                                [&](const char* k) { return name == k; });
    if (!ok) throw ConfigError("unknown flag --" + name);
  }
}

void probe_writable(const CliArgs& args, const std::string& flag) {
  if (!args.has(flag)) return;
  const std::string path = args.get_string(flag, "");
  struct stat st {};
  const bool existed = ::stat(path.c_str(), &st) == 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw IoError("--" + flag + "=" + path + ": cannot open for writing: " +
                  std::strerror(errno));
  }
  ::close(fd);
  if (!existed) ::unlink(path.c_str());
}

}  // namespace mpsim
