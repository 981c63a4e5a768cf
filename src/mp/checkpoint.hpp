// Durable checkpoint journal of the resilient scheduler.
//
// Format `mpsim-ckpt-v5`: an append-only log of little-endian records.  A
// journal file is a header followed by records:
//
//   header  magic "mpsim-ckpt-v5\n" | u64 fingerprint | u64 tile count |
//           u64 checksum of the 30 bytes before it
//   record  u32 kind | u64 payload length | payload | u64 checksum of the
//           kind, length and payload bytes
//
// There are two record kinds.  A *slice* record holds every field of one
// CheckpointSlice — a whole committed tile or a partially completed row
// slice: the slice's absolute row/column ranges, the node/device/precision
// rung that produced it, the merged profile slice (binary64 bits + global
// nearest-neighbour indices — exactly the TileResult the merge consumes,
// so a resumed run reproduces the uninterrupted run's output bit for
// bit), the raw storage-precision QT row after the slice's last row (the
// one piece of state the Eq. (1) recurrence carries from row to row, so a
// resumed tile continues from it instead of recomputing the prefix) and
// the tile's sketch-prefilter decision tallies.  An *events* record holds
// a batch of RunEvents.
//
// The checksum is FNV-1a over 64-bit little-endian words in 4 interleaved
// lanes (word i feeds lane i mod 4); the byte length and the four lanes
// are then folded word by word into one FNV-1a state, and the final
// `size mod 8` bytes are hashed bytewise.  Every step is a bijection of
// the state it updates, so a change confined to one full word or to one
// tail byte — in particular any single-bit flip — is always detected.
//
// Torn-tail rule: a reader takes the longest valid prefix of records.  The
// first record that is cut short, fails its checksum or holds values no
// writer emits ends the log; the records before it stay usable, and
// resume reports the byte offset where the valid prefix ends.  A bad
// header voids the whole file.  v4 and older journals are rejected by
// magic, like any foreign file.
//
// Writers (mp::compute_matrix_profile).  Each node of a run owns one
// segment: `<path>` in a one-node run, `<path>.node<k>` in a multi-node
// one.  A tile commit or row-slice snapshot appends one slice record; the
// K commits since the last append (`--checkpoint-interval=K`) go out as K
// records in one write.  Events go only to `<path>`: with the next record
// of a one-node run, at interrupt and at compaction in a multi-node one.
// A run that resumed from the file it journals to cuts that file to the
// valid prefix it read and appends to it; otherwise the segment starts
// fresh.  When every tile is committed the run *compacts*: one complete
// journal (complete slices and the event history, the same format) is
// written to `<path>.tmp`, synced and renamed over `<path>`, and the node
// segments are unlinked, so resuming a finished run is one sequential
// read.
//
// Sync contract (counted by detail::durable_sync_count): one fdatasync per
// append, one directory fsync when a segment is created, and two per
// compaction (the temp file before the rename, the directory after it).
//
// A fingerprint of the inputs and the output-affecting configuration
// (series bytes, window, mode, exclusion, prefilter) is embedded;
// resuming against a journal written for different inputs is rejected
// the same way as a corrupt header — the caller proceeds with a fresh
// run.  The tile *grid* is deliberately NOT part of the fingerprint:
// slices carry absolute ranges, so a journal written under one `--tiles`
// grid (or node count) can be re-keyed onto a different one at resume
// time.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
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

/// A whole journal file in memory (what read_checkpoint returns and
/// write_checkpoint writes).
struct CheckpointData {
  std::uint64_t fingerprint = 0;  ///< inputs + config hash (see below)
  std::uint64_t tile_count = 0;   ///< total tiles of the journalled run
  std::vector<CheckpointSlice> slices;  ///< slice records, in file order
  std::vector<RunEvent> events;         ///< every events record, in order
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

/// Writes journal records to one file.  Records are serialised into a
/// reusable buffer by the add_* calls and reach the file at write();
/// nothing is opened before the first write.  Every method that touches
/// the file throws IoError on failure.
class JournalWriter {
 public:
  /// A writer of `path`.  `keep` > 0 continues an existing file from its
  /// first `keep` bytes (a valid prefix this run restored from; anything
  /// after it is cut off); 0 creates the file fresh, header first.
  JournalWriter(std::string path, std::uint64_t fingerprint,
                std::uint64_t tile_count, std::uint64_t keep = 0);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one slice record: `meta`'s scalar fields with the given
  /// profile, index and QT row (so a committed tile's result is journalled
  /// without first being copied into a CheckpointSlice).
  void add_slice(const CheckpointSlice& meta, std::span<const double> profile,
                 std::span<const std::int64_t> index,
                 std::span<const std::uint8_t> qt);
  void add_slice(const CheckpointSlice& slice) {
    add_slice(slice, slice.profile, slice.index, slice.qt);
  }
  /// Buffers one events record (none for an empty batch).
  void add_events(std::span<const RunEvent> events);

  /// Durable append: write() then sync().  Returns the bytes written; with
  /// nothing buffered it does no I/O and returns 0.
  std::size_t append();

  /// Writes the buffered records (with one write call, after the header
  /// when it creates the file) and returns the bytes written; no sync.
  std::size_t write();

  /// Compaction: fsyncs this writer's file (a temp file it created and
  /// wrote), renames it over `target` and fsyncs the directory.  The
  /// writer is closed afterwards.
  void commit(const std::string& target);

  const std::string& path() const { return path_; }

 private:
  std::size_t open();  ///< returns the header bytes it wrote
  /// fdatasync of the file, plus one fsync of its directory the first
  /// time a file this writer created is synced.
  void sync();
  void report();

  std::string path_;
  std::uint64_t fingerprint_;
  std::uint64_t tile_count_;
  std::uint64_t keep_;
  int fd_ = -1;
  bool dir_sync_due_ = false;  ///< created the file, directory not synced
  std::string buf_;           ///< serialised records not yet written
  std::vector<std::size_t> starts_;  ///< offset of each record in buf_
  std::uint64_t records_ = 0;  ///< written, not yet counted in metrics
  std::uint64_t bytes_ = 0;
};

/// Durably writes `data` as one complete journal (the compaction path:
/// temp file, fsync, rename over `path`, directory fsync), so a crash at
/// any point leaves either the previous file or the complete new one.
/// Throws IoError on I/O failure.
void write_checkpoint(const std::string& path, const CheckpointData& data);

/// Streams one journal file record by record through one reused buffer,
/// so a large segment never sits in memory whole.
class JournalReader {
 public:
  enum class Record { kEnd, kSlice, kEvents };

  /// Opens `path` and checks its header; throws CheckpointError with
  /// `Reason::kMissing` when the file cannot be opened, `kCorrupt` when
  /// the header is short, foreign (any other magic, v4 included) or fails
  /// its checksum.
  explicit JournalReader(const std::string& path);

  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t tile_count() const { return tile_count_; }

  /// Reads the next record into slice() or events(); kEnd at a clean end
  /// of the file.  Throws CheckpointError (`kCorrupt`) at a record that is
  /// cut short, fails its checksum, has an unknown kind or holds a value
  /// no writer emits (precision mode, `complete` flag, QT row length, an
  /// inconsistent slice, an event kind); valid_bytes() then still ends
  /// the last good record.
  Record next();

  CheckpointSlice& slice() { return slice_; }
  std::vector<RunEvent>& events() { return events_; }

  /// The header plus every record read so far.
  std::uint64_t valid_bytes() const { return valid_; }
  /// Records read so far.
  std::uint64_t records() const { return records_; }

 private:
  [[noreturn]] void corrupt(const std::string& why) const;

  std::string path_;
  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::uint64_t valid_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t tile_count_ = 0;
  std::string buf_;
  CheckpointSlice slice_;
  std::vector<RunEvent> events_;
};

namespace detail {
/// Regression-test seam: cumulative count of the sync barriers the
/// journal writers have issued process-wide (see the sync contract
/// above).
std::uint64_t durable_sync_count();
void note_durable_sync();
}  // namespace detail

/// Parses a whole journal strictly: every record must be valid.  Throws
/// CheckpointError when the file is missing (`Reason::kMissing`) or when
/// its header or any record is bad (`Reason::kCorrupt`, see
/// JournalReader).  Resume reads valid prefixes with JournalReader
/// instead.
CheckpointData read_checkpoint(const std::string& path);

}  // namespace mpsim::mp
