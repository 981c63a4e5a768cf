// Error handling primitives shared by every mpsim module.
//
// The library throws `mpsim::Error` (a std::runtime_error) for all
// recoverable failures: bad user configuration, capacity exhaustion on a
// simulated device, malformed input files.  Internal invariant violations
// use MPSIM_ASSERT and abort in debug builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace mpsim {

/// Base exception for all errors raised by the mpsim library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a requested allocation exceeds a simulated device's memory.
class DeviceMemoryError : public Error {
 public:
  explicit DeviceMemoryError(const std::string& what) : Error(what) {}
};

/// Raised for invalid user-supplied configuration (sizes, modes, tilings).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Raised when a simulated device has failed permanently (gone offline).
/// Work must not be retried on the device; the resilient scheduler
/// blacklists it and reassigns its tiles to healthy devices.
class DeviceFailedError : public Error {
 public:
  explicit DeviceFailedError(const std::string& what) : Error(what) {}
};

/// Raised for transient, retryable faults (a failed kernel launch or copy
/// injected by a FaultInjector, or any hiccup that a bounded retry with
/// backoff is expected to clear).
class TransientFaultError : public Error {
 public:
  explicit TransientFaultError(const std::string& what) : Error(what) {}
};

/// Raised when in-flight work observes its cooperative cancellation token.
/// Not a fault: the scheduler cancels attempts it no longer needs (a
/// speculative race was lost, a hung device was blacklisted, the run is
/// shutting down) and the unwound attempt is simply discarded.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Raised when a run stops early because shutdown was requested (SIGINT /
/// SIGTERM or an injected kill).  The scheduler flushes its checkpoint
/// before throwing; callers flush observability output and exit.
class InterruptedError : public Error {
 public:
  explicit InterruptedError(const std::string& what) : Error(what) {}
};

/// Raised when a checkpoint journal cannot be read (truncated, corrupt,
/// wrong version, or written for different inputs).  Resume treats it as
/// "no checkpoint" after reporting the reason; a fresh run proceeds.
/// The machine-readable `reason()` distinguishes the three fallback
/// classes the scheduler reports separately (satellite of the elastic
/// resume work): the file does not exist at all, the file exists but is
/// damaged or not a journal, or it is a valid journal for *different*
/// inputs/configuration.
class CheckpointError : public Error {
 public:
  enum class Reason { kMissing, kCorrupt, kMismatch };

  explicit CheckpointError(const std::string& what,
                           Reason reason = Reason::kCorrupt)
      : Error(what), reason_(reason) {}

  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

/// Raised when a file the run must write (a checkpoint journal, an output
/// or observability file) cannot be opened, written or synced.  Not a
/// device fault: retrying the tile elsewhere cannot help, so the
/// execution driver stops the whole run and rethrows it to the caller.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Raised when a whole simulated *node* (one device fleet of the run)
/// crashes via an injected `node_crash` fault.  The scheduler stops the
/// node's workers, drops its partial slices and moves its jobs to the
/// other nodes, without flushing its journal — exactly what a real
/// process crash would leave behind.
class NodeFailedError : public Error {
 public:
  explicit NodeFailedError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "MPSIM_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace mpsim

/// Runtime check that throws mpsim::Error on failure (always enabled).
#define MPSIM_CHECK(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::mpsim::detail::throw_check_failure(#expr, __FILE__, __LINE__,       \
                                           (::std::ostringstream{} << msg) \
                                               .str());                     \
    }                                                                       \
  } while (0)
