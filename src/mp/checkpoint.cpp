#include "mp/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace mpsim::mp {

namespace {

constexpr char kMagic[] = "mpsim-ckpt-v5\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
/// Magic, fingerprint, tile count, then their checksum.
constexpr std::size_t kHeaderBytes = kMagicLen + 3 * sizeof(std::uint64_t);
/// A record's kind and payload length, before the payload.
constexpr std::size_t kRecordHead =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);
constexpr std::size_t kRecordTrailer = sizeof(std::uint64_t);

enum : std::uint32_t { kSliceRecord = 1, kEventsRecord = 2 };

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// The journal checksum (format in checkpoint.hpp): FNV-1a over 64-bit
/// words in 4 interleaved lanes, then the byte length and the lanes
/// folded word by word, then the sub-word tail bytewise.  Each step (xor,
/// then multiply by the odd FNV prime) is a bijection of the state it
/// updates, so a change confined to one word of the body or to one tail
/// byte always changes the result.  The four lanes are independent
/// dependency chains that the CPU overlaps.
std::uint64_t journal_checksum(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis};
  const std::size_t words = bytes / 8;
  const auto fold = [p](std::uint64_t& h, std::size_t w) {
    std::uint64_t v;
    std::memcpy(&v, p + 8 * w, sizeof(v));
    h = (h ^ v) * kFnvPrime;
  };
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    for (std::size_t k = 0; k < 4; ++k) fold(lane[k], w + k);
  }
  for (; w < words; ++w) fold(lane[w % 4], w);
  std::uint64_t h = (kFnvBasis ^ std::uint64_t(bytes)) * kFnvPrime;
  for (const std::uint64_t l : lane) h = (h ^ l) * kFnvPrime;
  return fnv1a(p + 8 * words, bytes % 8, h);
}

/// Appending little-endian serialiser over a byte buffer.
struct Writer {
  std::string& buf;

  void put_bytes(const void* data, std::size_t bytes) {
    buf.append(static_cast<const char*>(data), bytes);
  }
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&value, sizeof(T));
  }
  template <typename T>
  void put_span(std::span<const T> data) {
    put(std::uint64_t(data.size()));
    put_bytes(data.data(), data.size_bytes());
  }
};

/// A record payload ended before a field it declares.
struct PayloadOverrun {};

/// Bounds-checked reader over one record's payload; a short read throws
/// PayloadOverrun.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > size - pos) throw PayloadOverrun{};
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  template <typename Vector>
  void get_span(Vector& out) {
    using T = typename Vector::value_type;
    const auto count = get<std::uint64_t>();
    if (count > (size - pos) / sizeof(T)) throw PayloadOverrun{};
    out.resize(std::size_t(count));
    if (count != 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), data + pos, std::size_t(count) * sizeof(T));
    }
    pos += std::size_t(count) * sizeof(T);
  }
};

std::string header_bytes(std::uint64_t fingerprint, std::uint64_t tiles) {
  std::string buf;
  Writer w{buf};
  w.put_bytes(kMagic, kMagicLen);
  w.put(fingerprint);
  w.put(tiles);
  w.put(journal_checksum(buf.data(), buf.size()));
  return buf;
}

[[noreturn]] void io_fail(const std::string& what, int err) {
  throw IoError(what + ": " + std::strerror(err));
}

void write_all(int fd, const std::string& path, const char* data,
               std::size_t bytes) {
  std::size_t written = 0;
  while (written < bytes) {
    const ssize_t n = ::write(fd, data + written, bytes - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) io_fail("write to '" + path + "' failed", errno);
    written += std::size_t(n);
  }
}

/// fsync of `path`'s parent directory, so a created or renamed entry
/// survives a power cut.
void sync_directory(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) {
    io_fail("cannot open directory '" + dir + "' to sync it", errno);
  }
  if (::fsync(dirfd) != 0) {
    const int err = errno;
    ::close(dirfd);
    io_fail("fsync of directory '" + dir + "' failed", err);
  }
  detail::note_durable_sync();
  ::close(dirfd);
}

}  // namespace

namespace detail {

namespace {
std::atomic<std::uint64_t> g_durable_syncs{0};
}

void note_durable_sync() {
  g_durable_syncs.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t durable_sync_count() {
  return g_durable_syncs.load(std::memory_order_relaxed);
}

}  // namespace detail

std::uint64_t checkpoint_fingerprint(const TimeSeries& reference,
                                     const TimeSeries& query,
                                     const MatrixProfileConfig& config) {
  std::uint64_t h = fnv1a(kMagic, kMagicLen);
  // The prefilter knobs change which profile entries are exact, so they
  // are output-affecting configuration: budget enters as its raw binary64
  // bits (the guard band and sketch seed derive from them).
  std::uint64_t budget_bits;
  static_assert(sizeof(budget_bits) == sizeof(config.prefilter.budget));
  std::memcpy(&budget_bits, &config.prefilter.budget, sizeof(budget_bits));
  // The tile grid is deliberately absent: slices are keyed by absolute
  // ranges, so resuming onto a different `--tiles` grid is a feature.
  const std::uint64_t shape[] = {
      std::uint64_t(reference.length()), std::uint64_t(reference.dims()),
      std::uint64_t(query.length()),     std::uint64_t(config.window),
      std::uint64_t(int(config.mode)),
      std::uint64_t(config.exclusion),
      std::uint64_t(int(config.prefilter.mode)),
      config.prefilter.enabled() ? budget_bits : 0};
  h = fnv1a(shape, sizeof(shape), h);
  h = fnv1a(reference.raw().data(), reference.raw().size() * sizeof(double),
            h);
  h = fnv1a(query.raw().data(), query.raw().size() * sizeof(double), h);
  return h;
}

std::uint64_t profile_cache_key(const TimeSeries& reference,
                                const TimeSeries& query,
                                const MatrixProfileConfig& config) {
  // A completed profile is byte-determined by the fingerprint alone (the
  // grid cannot move bits), but the serve cache also keys the grid so a
  // `--tiles` change shows up as a distinct cache entry in stats.
  const std::uint64_t h = checkpoint_fingerprint(reference, query, config);
  const std::uint64_t grid = std::uint64_t(config.tiles);
  return fnv1a(&grid, sizeof(grid), h);
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

JournalWriter::JournalWriter(std::string path, std::uint64_t fingerprint,
                             std::uint64_t tile_count, std::uint64_t keep)
    : path_(std::move(path)),
      fingerprint_(fingerprint),
      tile_count_(tile_count),
      keep_(keep) {}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::add_slice(const CheckpointSlice& meta,
                              std::span<const double> profile,
                              std::span<const std::int64_t> index,
                              std::span<const std::uint8_t> qt) {
  starts_.push_back(buf_.size());
  Writer w{buf_};
  w.put(std::uint32_t(kSliceRecord));
  w.put(std::uint64_t(0));  // payload length, patched below
  w.put(meta.tile_index);
  w.put(meta.tile_id);
  w.put(meta.device);
  w.put(meta.node);
  w.put(meta.complete);
  w.put(std::int32_t(meta.mode));
  w.put(meta.r_begin);
  w.put(meta.r_count);
  w.put(meta.q_begin);
  w.put(meta.q_count);
  w.put(meta.dims);
  w.put_span(profile);
  w.put_span(index);
  w.put_span(qt);
  w.put(meta.prefilter.blocks_total);
  w.put(meta.prefilter.blocks_skipped);
  w.put(meta.prefilter.blocks_verified);
  w.put(meta.prefilter.cols_skipped);
  w.put(meta.prefilter.cols_verified);
  w.put(meta.prefilter.cols_missed);
  w.put(std::uint64_t(0));  // checksum, filled in by write()
}

void JournalWriter::add_events(std::span<const RunEvent> events) {
  if (events.empty()) return;
  starts_.push_back(buf_.size());
  Writer w{buf_};
  w.put(std::uint32_t(kEventsRecord));
  w.put(std::uint64_t(0));
  w.put(std::uint64_t(events.size()));
  for (const RunEvent& event : events) {
    w.put(std::int32_t(event.kind));
    w.put(std::int32_t(event.tile_id));
    w.put(std::int32_t(event.device));
    w.put_span(std::span<const char>(event.detail));
  }
  w.put(std::uint64_t(0));
}

std::size_t JournalWriter::open() {
  if (keep_ > 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) io_fail("cannot open '" + path_ + "' for appending", errno);
    if (::ftruncate(fd_, off_t(keep_)) != 0) {
      io_fail("cannot cut '" + path_ + "' to its valid prefix", errno);
    }
    return 0;
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd_ < 0) io_fail("cannot open '" + path_ + "' for writing", errno);
  dir_sync_due_ = true;
  const std::string header = header_bytes(fingerprint_, tile_count_);
  write_all(fd_, path_, header.data(), header.size());
  return header.size();
}

std::size_t JournalWriter::write() {
  const std::size_t header = fd_ < 0 ? open() : 0;
  // Seal every buffered record: its payload length and its checksum over
  // kind, length and payload.
  for (std::size_t r = 0; r < starts_.size(); ++r) {
    const std::size_t start = starts_[r];
    const std::size_t end =
        r + 1 < starts_.size() ? starts_[r + 1] : buf_.size();
    const std::uint64_t payload = end - start - kRecordHead - kRecordTrailer;
    std::memcpy(buf_.data() + start + sizeof(std::uint32_t), &payload,
                sizeof(payload));
    const std::uint64_t sum =
        journal_checksum(buf_.data() + start, end - start - kRecordTrailer);
    std::memcpy(buf_.data() + end - kRecordTrailer, &sum, sizeof(sum));
  }
  write_all(fd_, path_, buf_.data(), buf_.size());
  const std::size_t bytes = header + buf_.size();
  records_ += starts_.size();
  bytes_ += bytes;
  buf_.clear();
  starts_.clear();
  return bytes;
}

void JournalWriter::sync() {
  if (::fdatasync(fd_) != 0) {
    io_fail("fdatasync of '" + path_ + "' failed", errno);
  }
  detail::note_durable_sync();
  if (dir_sync_due_) {
    sync_directory(path_);
    dir_sync_due_ = false;
  }
  report();
}

std::size_t JournalWriter::append() {
  if (starts_.empty()) return 0;
  const std::size_t bytes = write();
  sync();
  return bytes;
}

void JournalWriter::commit(const std::string& target) {
  // Durable atomic replace: fsync the temp file *before* the rename
  // (otherwise a crash shortly after can leave a zero-length or partially
  // written file visible under `target`), rename, then fsync the parent
  // directory so the rename itself survives a power cut.
  if (::fsync(fd_) != 0) io_fail("fsync of '" + path_ + "' failed", errno);
  detail::note_durable_sync();
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) io_fail("close of '" + path_ + "' failed", errno);
  if (std::rename(path_.c_str(), target.c_str()) != 0) {
    io_fail("cannot rename '" + path_ + "' over '" + target + "'", errno);
  }
  sync_directory(target);
  report();
}

void JournalWriter::report() {
  auto& reg = MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("checkpoint.records").add(records_);
    reg.counter("checkpoint.bytes_written").add(bytes_);
  }
  records_ = 0;
  bytes_ = 0;
}

void write_checkpoint(const std::string& path, const CheckpointData& data) {
  JournalWriter journal(path + ".tmp", data.fingerprint, data.tile_count);
  for (const CheckpointSlice& slice : data.slices) {
    journal.add_slice(slice);
    journal.write();  // one record at a time: no second copy of the data
  }
  journal.add_events(data.events);
  journal.write();
  journal.commit(path);
}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

JournalReader::JournalReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary | std::ios::ate) {
  if (!in_.good()) {
    throw CheckpointError("cannot open checkpoint '" + path + "'",
                          CheckpointError::Reason::kMissing);
  }
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (size < 0 || !in_) {
    throw CheckpointError("cannot read checkpoint '" + path + "'");
  }
  size_ = std::uint64_t(size);
  buf_.resize(kHeaderBytes);
  if (size_ < kHeaderBytes || !in_.read(buf_.data(), kHeaderBytes) ||
      std::memcmp(buf_.data(), kMagic, kMagicLen) != 0) {
    throw CheckpointError("'" + path +
                          "' is not an mpsim-ckpt-v5 checkpoint (bad or "
                          "missing magic)");
  }
  Reader r{buf_.data(), kHeaderBytes, kMagicLen};
  fingerprint_ = r.get<std::uint64_t>();
  tile_count_ = r.get<std::uint64_t>();
  if (journal_checksum(buf_.data(), r.pos) != r.get<std::uint64_t>()) {
    throw CheckpointError("checkpoint '" + path +
                          "' has a corrupt header (checksum mismatch)");
  }
  valid_ = kHeaderBytes;
}

void JournalReader::corrupt(const std::string& why) const {
  throw CheckpointError("checkpoint '" + path_ + "' has a bad record at byte " +
                        std::to_string(valid_) + ": " + why);
}

JournalReader::Record JournalReader::next() {
  const std::uint64_t left = size_ - valid_;
  if (left == 0) return Record::kEnd;
  if (left < kRecordHead + kRecordTrailer) corrupt("cut short");
  if (!in_.read(buf_.data(), kRecordHead)) corrupt("unreadable");
  Reader head{buf_.data(), kRecordHead};
  const auto kind = head.get<std::uint32_t>();
  const auto payload = head.get<std::uint64_t>();
  if (kind != kSliceRecord && kind != kEventsRecord) {
    corrupt("unknown record kind " + std::to_string(kind));
  }
  if (payload > left - kRecordHead - kRecordTrailer) {
    corrupt("payload of " + std::to_string(payload) +
            " bytes overruns the file (cut short)");
  }
  const std::size_t body = kRecordHead + std::size_t(payload);
  // The buffer only grows, so a reused one is not cleared per record.
  if (buf_.size() < body + kRecordTrailer) buf_.resize(body + kRecordTrailer);
  if (!in_.read(buf_.data() + kRecordHead,
                std::streamsize(payload + kRecordTrailer))) {
    corrupt("unreadable");
  }
  std::uint64_t stored;
  std::memcpy(&stored, buf_.data() + body, sizeof(stored));
  if (journal_checksum(buf_.data(), body) != stored) {
    corrupt("checksum mismatch (corrupt or torn)");
  }

  Reader r{buf_.data() + kRecordHead, std::size_t(payload)};
  Record out = Record::kSlice;
  try {
    if (kind == kSliceRecord) {
      CheckpointSlice& slice = slice_;
      slice.tile_index = r.get<std::uint64_t>();
      slice.tile_id = r.get<std::int32_t>();
      slice.device = r.get<std::int32_t>();
      slice.node = r.get<std::int32_t>();
      slice.complete = r.get<std::uint8_t>();
      const auto mode = r.get<std::int32_t>();
      slice.mode = PrecisionMode(mode);
      slice.r_begin = r.get<std::uint64_t>();
      slice.r_count = r.get<std::uint64_t>();
      slice.q_begin = r.get<std::uint64_t>();
      slice.q_count = r.get<std::uint64_t>();
      slice.dims = r.get<std::uint64_t>();
      r.get_span(slice.profile);
      r.get_span(slice.index);
      r.get_span(slice.qt);
      slice.prefilter.blocks_total = r.get<std::uint64_t>();
      slice.prefilter.blocks_skipped = r.get<std::uint64_t>();
      slice.prefilter.blocks_verified = r.get<std::uint64_t>();
      slice.prefilter.cols_skipped = r.get<std::uint64_t>();
      slice.prefilter.cols_verified = r.get<std::uint64_t>();
      slice.prefilter.cols_missed = r.get<std::uint64_t>();
      // A checksum-valid record can still carry values no writer emits
      // (the mode and flag are used unchecked downstream): reject them.
      if (mode < int(PrecisionMode::FP64) || mode > int(PrecisionMode::TF32) ||
          slice.complete > 1) {
        corrupt("slice with precision mode " + std::to_string(mode) +
                " and complete flag " + std::to_string(int(slice.complete)));
      }
      const std::size_t qt_bytes =
          slice.profile.size() * storage_bytes(slice.mode);
      if (slice.tile_index >= tile_count_ ||
          slice.profile.size() != slice.index.size() ||
          (!slice.qt.empty() && slice.qt.size() != qt_bytes) ||
          slice.profile.size() != slice.q_count * slice.dims ||
          slice.r_count == 0 || slice.q_count == 0 || slice.dims == 0) {
        corrupt("inconsistent slice (index " +
                std::to_string(slice.tile_index) + ")");
      }
    } else {
      out = Record::kEvents;
      const auto count = r.get<std::uint64_t>();
      events_.clear();
      for (std::uint64_t e = 0; e < count; ++e) {
        RunEvent event;
        const auto event_kind = r.get<std::int32_t>();
        // The last enumerator bounds the wire values (the kinds are
        // frozen).
        if (event_kind < 0 ||
            event_kind > int(RunEvent::Kind::kNodeStolen)) {
          corrupt("event of kind " + std::to_string(event_kind));
        }
        event.kind = RunEvent::Kind(event_kind);
        event.tile_id = r.get<std::int32_t>();
        event.device = r.get<std::int32_t>();
        r.get_span(event.detail);
        events_.push_back(std::move(event));
      }
    }
  } catch (const PayloadOverrun&) {
    corrupt("a field overruns the payload");
  }
  if (r.pos != r.size) {
    corrupt(std::to_string(r.size - r.pos) + " trailing payload bytes");
  }
  valid_ += body + kRecordTrailer;
  records_ += 1;
  return out;
}

CheckpointData read_checkpoint(const std::string& path) {
  JournalReader reader(path);
  CheckpointData data;
  data.fingerprint = reader.fingerprint();
  data.tile_count = reader.tile_count();
  for (;;) {
    switch (reader.next()) {
      case JournalReader::Record::kEnd:
        return data;
      case JournalReader::Record::kSlice:
        data.slices.push_back(std::move(reader.slice()));
        break;
      case JournalReader::Record::kEvents:
        for (RunEvent& event : reader.events()) {
          data.events.push_back(std::move(event));
        }
        break;
    }
  }
}

}  // namespace mpsim::mp
