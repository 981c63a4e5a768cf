// Durable checkpoint journal of the resilient scheduler.
//
// Format `mpsim-ckpt-v4`: a little-endian binary journal holding, for
// every committed tile *or partially completed row slice*, the slice's
// absolute row/column ranges, the node/device/precision rung that
// produced it, the merged profile slice (binary64 bits + global
// nearest-neighbour indices — exactly the TileResult the merge consumes,
// so a resumed run reproduces the uninterrupted run's output bit for
// bit), the raw storage-precision QT row after the slice's last row (the
// one piece of state the Eq. (1) recurrence carries from row to row, so
// a resumed tile continues from it instead of recomputing the prefix),
// plus the tile's sketch-prefilter decision tallies and the RunEvent
// history, ending with a trailing checksum over the whole payload.
//
// The checksum is FNV-1a over 64-bit little-endian words in 4
// interleaved lanes (word i feeds lane i mod 4); the payload length and
// the four lanes are then folded word by word into one FNV-1a state, and
// the payload's final `size mod 8` bytes are hashed bytewise.  Every
// step is a bijection of the state it updates, so a change confined to
// one full word or to one tail byte — in particular any single-bit flip —
// is always detected.
//
// v4 extends v3 by the QT row and the word-lane checksum; v3 extends v2
// by the absolute range keys, the node id and the `complete` flag that
// distinguish whole-tile commits from mid-tile row-slice snapshots.
// Older journals are rejected by magic, like any foreign file.  Writes
// are atomic: the journal is written to `<path>.tmp` and renamed over
// `path`, so a crash mid-write leaves the previous journal intact.
//
// A fingerprint of the inputs and the output-affecting configuration
// (series bytes, window, mode, exclusion, prefilter) is embedded;
// resuming against a journal written for different inputs is rejected
// the same way as a corrupt file — read_checkpoint throws CheckpointError
// and the caller proceeds with a fresh run.  The tile *grid* is
// deliberately NOT part of the fingerprint: slices carry absolute
// ranges, so a journal written under one `--tiles` grid (or node count)
// can be re-keyed onto a different one at resume time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mp/options.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::mp {

/// One journalled result slice: a whole committed tile (`complete`) or a
/// prefix of a tile's rows captured mid-execution.  Keys are *absolute*
/// segment ranges of the full join, so resume can re-key a slice onto a
/// different tile grid than the one that wrote it.
struct CheckpointSlice {
  std::uint64_t tile_index = 0;  ///< into the writing run's tile array
  std::int32_t tile_id = 0;
  std::int32_t device = -1;      ///< executing device (-1 = CPU fallback)
  std::int32_t node = -1;        ///< owning node (-1 = single-node run)
  std::uint8_t complete = 1;     ///< 1 = whole tile, 0 = row-slice prefix
  PrecisionMode mode = PrecisionMode::FP64;
  std::uint64_t r_begin = 0;     ///< absolute reference-row range covered
  std::uint64_t r_count = 0;
  std::uint64_t q_begin = 0;     ///< absolute query-column range covered
  std::uint64_t q_count = 0;
  std::uint64_t dims = 0;
  std::vector<double> profile;   ///< q_count * dims entries
  std::vector<std::int64_t> index;
  /// Raw storage-precision bytes of the tile's QT row after row
  /// r_count - 1: q_count * dims * storage_bytes(mode) bytes, or empty
  /// when the producing attempt has no restorable row (CPU fallback,
  /// memory-pressure split, fault-corrupted inputs).  Raw bits, so NaN
  /// payloads survive exactly.
  std::vector<std::uint8_t> qt;
  PrefilterStats prefilter;      ///< sketch decision tallies (0s if exact)
};

struct CheckpointData {
  std::uint64_t fingerprint = 0;  ///< inputs + config hash (see below)
  std::uint64_t tile_count = 0;   ///< total tiles of the journalled run
  std::vector<CheckpointSlice> slices;  ///< committed slices, any order
  std::vector<RunEvent> events;         ///< RunEvent history at write time
};

/// Hash of everything that determines the run's output bits: the raw
/// series samples and the shape/precision configuration.  Knobs that
/// cannot change the output (row path, device count, node count, tile
/// grid, resilience policy) are deliberately excluded so a resumed run
/// may use a different machine shape — or a different grid — than the
/// interrupted one.
std::uint64_t checkpoint_fingerprint(const TimeSeries& reference,
                                     const TimeSeries& query,
                                     const MatrixProfileConfig& config);

/// Cache key for *complete* profiles (the serve daemon's profile cache):
/// the checkpoint fingerprint plus the grid-affecting knobs the
/// fingerprint now ignores.  Two configs with equal profile_cache_key
/// produce byte-identical profiles.
std::uint64_t profile_cache_key(const TimeSeries& reference,
                                const TimeSeries& query,
                                const MatrixProfileConfig& config);

/// Serialises and durably, atomically replaces `path`: the temp file is
/// fsync'd before the rename and the parent directory after it, so a
/// crash at any point leaves either the previous journal or the complete
/// new one — never a zero-length or stale-behind-the-rename file.
/// Throws IoError on I/O failure.
void write_checkpoint(const std::string& path, const CheckpointData& data);

namespace detail {
/// Regression-test seam: cumulative count of the fsync barriers
/// write_checkpoint has issued process-wide (two per successful write —
/// file, then parent directory).
std::uint64_t durable_sync_count();
void note_durable_sync();
}  // namespace detail

/// Parses a journal; throws CheckpointError when the file is missing
/// (`Reason::kMissing`), truncated, checksum-corrupt, not an
/// `mpsim-ckpt-v4` document, or holds a slice whose precision mode,
/// `complete` flag or QT row length is out of range (`Reason::kCorrupt`).
CheckpointData read_checkpoint(const std::string& path);

}  // namespace mpsim::mp
