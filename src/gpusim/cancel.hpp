// Cooperative cancellation of in-flight simulated-device work.
//
// A CancellationToken is owned by whoever supervises an attempt (the
// resilient scheduler's watchdog) and observed by the work itself: kernel
// launches, copies and the tile engine's row loop poll `cancelled()` at
// natural checkpoints and unwind with CancelledError.  This mirrors how a
// real GPU port cancels a straggler — the host stops feeding the stream
// and the in-flight kernel's result is discarded — and is exactly the
// mechanism speculative re-execution needs: first finisher wins, losers
// observe their token and abandon the tile.
//
// The token is a single relaxed atomic; polling it on a per-row cadence is
// free next to the row's arithmetic, and cancellation latency is bounded
// by one row (or, inside an injected hang, by the injector's poll period).
// poll() and note_progress() (a fused row batch's finished column chunks)
// count the attempt's progress, which the scheduler's watchdog reads: a
// hang stops it, slow work does not.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace mpsim::gpusim {

class CancellationToken {
 public:
  CancellationToken() = default;

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Re-arms a token for reuse across attempts of the same slot.
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    progress_.store(0, std::memory_order_relaxed);
  }

  /// poll() and note_progress() calls since the last reset().
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Counts progress without a cancellation check (safe on pool threads).
  void note_progress() const {
    progress_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Throws CancelledError when the token has been cancelled; `where`
  /// names the checkpoint for the discard log line.
  void poll(const char* where) const {
    note_progress();
    if (cancelled()) {
      throw CancelledError(std::string("attempt cancelled at ") + where);
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::uint64_t> progress_{0};
};

}  // namespace mpsim::gpusim
