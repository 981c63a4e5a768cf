#include "mp/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/error.hpp"

namespace mpsim::mp {

namespace {

constexpr char kMagic[] = "mpsim-ckpt-v4\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

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

/// The journal's trailing checksum (format in checkpoint.hpp): FNV-1a
/// over 64-bit words in 4 interleaved lanes, then the payload length and
/// the lanes folded word by word, then the sub-word tail bytewise.  Each
/// step (xor, then multiply by the odd FNV prime) is a bijection of the
/// state it updates, so a change confined to one word of the body or to
/// one tail byte always changes the result.  The four lanes are
/// independent dependency chains that the CPU overlaps.
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

/// Append-only little-endian serialiser over a byte buffer.
struct Writer {
  std::string buf;

  void put_bytes(const void* data, std::size_t bytes) {
    buf.append(static_cast<const char*>(data), bytes);
  }
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&value, sizeof(T));
  }
  template <typename T>
  void put_span(const T* data, std::size_t count) {
    put(std::uint64_t(count));
    put_bytes(data, count * sizeof(T));
  }
};

/// Writer's interface, counting bytes instead of storing them: sizes the
/// journal buffer exactly before it is filled.
struct ByteCount {
  std::size_t bytes = 0;

  void put_bytes(const void*, std::size_t n) { bytes += n; }
  template <typename T>
  void put(T) {
    bytes += sizeof(T);
  }
  template <typename T>
  void put_span(const T*, std::size_t count) {
    bytes += sizeof(std::uint64_t) + count * sizeof(T);
  }
};

/// The journal payload, everything but the trailing checksum.
template <typename Sink>
void serialize(Sink& w, const CheckpointData& data) {
  w.put_bytes(kMagic, kMagicLen);
  w.put(data.fingerprint);
  w.put(data.tile_count);
  w.put(std::uint64_t(data.slices.size()));
  for (const CheckpointSlice& slice : data.slices) {
    w.put(slice.tile_index);
    w.put(slice.tile_id);
    w.put(slice.device);
    w.put(slice.node);
    w.put(slice.complete);
    w.put(std::int32_t(slice.mode));
    w.put(slice.r_begin);
    w.put(slice.r_count);
    w.put(slice.q_begin);
    w.put(slice.q_count);
    w.put(slice.dims);
    w.put_span(slice.profile.data(), slice.profile.size());
    w.put_span(slice.index.data(), slice.index.size());
    w.put_span(slice.qt.data(), slice.qt.size());
    w.put(slice.prefilter.blocks_total);
    w.put(slice.prefilter.blocks_skipped);
    w.put(slice.prefilter.blocks_verified);
    w.put(slice.prefilter.cols_skipped);
    w.put(slice.prefilter.cols_verified);
    w.put(slice.prefilter.cols_missed);
  }
  w.put(std::uint64_t(data.events.size()));
  for (const RunEvent& event : data.events) {
    w.put(std::int32_t(event.kind));
    w.put(std::int32_t(event.tile_id));
    w.put(std::int32_t(event.device));
    w.put_span(event.detail.data(), event.detail.size());
  }
}

/// Bounds-checked reader; every short read is a truncation error.
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos + sizeof(T) > buf.size()) {
      throw CheckpointError("checkpoint truncated at byte " +
                            std::to_string(pos));
    }
    T value;
    std::memcpy(&value, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  template <typename T>
  std::vector<T> get_span() {
    const auto count = std::size_t(get<std::uint64_t>());
    if (count > (buf.size() - pos) / sizeof(T)) {
      throw CheckpointError("checkpoint truncated: span of " +
                            std::to_string(count) + " elements at byte " +
                            std::to_string(pos) + " overruns the file");
    }
    std::vector<T> out(count);
    if (count != 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), buf.data() + pos, count * sizeof(T));
    }
    pos += count * sizeof(T);
    return out;
  }
  std::string get_string() {
    const auto bytes = get_span<char>();
    return std::string(bytes.begin(), bytes.end());
  }
};

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

void write_checkpoint(const std::string& path, const CheckpointData& data) {
  // Reserve the exact size up front: a journal of many slices would
  // otherwise grow the buffer by doubling, peaking near twice its size.
  ByteCount size;
  serialize(size, data);
  Writer w;
  w.buf.reserve(size.bytes + sizeof(std::uint64_t));
  serialize(w, data);
  w.put(journal_checksum(w.buf.data(), w.buf.size()));

  // Durable atomic replace: write the temp file, fsync it *before* the
  // rename (otherwise a crash shortly after can leave a zero-length or
  // partially written file visible under `path`), rename, then fsync the
  // parent directory so the rename itself survives a power cut.  This is
  // the warm-restart contract the serve daemon relies on.
  const std::string tmp = path + ".tmp";
  const auto fail = [](const std::string& what, int err) {
    throw IoError(what + ": " + std::strerror(err));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open '" + tmp + "' for writing", errno);
  std::size_t written = 0;
  while (written < w.buf.size()) {
    const ssize_t n =
        ::write(fd, w.buf.data() + written, w.buf.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      fail("write to '" + tmp + "' failed", err);
    }
    written += std::size_t(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    fail("fsync of '" + tmp + "' failed", err);
  }
  detail::note_durable_sync();
  if (::close(fd) != 0) fail("close of '" + tmp + "' failed", errno);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename '" + tmp + "' over '" + path + "'", errno);
  }

  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) {
    fail("cannot open directory '" + dir + "' to sync the rename", errno);
  }
  if (::fsync(dirfd) != 0) {
    const int err = errno;
    ::close(dirfd);
    fail("fsync of directory '" + dir + "' failed", err);
  }
  detail::note_durable_sync();
  ::close(dirfd);
}

CheckpointData read_checkpoint(const std::string& path) {
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good()) {
      throw CheckpointError("cannot open checkpoint '" + path + "'",
                            CheckpointError::Reason::kMissing);
    }
    // One sized read: streaming through a stringstream copies twice.
    const std::streamoff size = in.tellg();
    if (size >= 0) {
      buf.resize(std::size_t(size));
      in.seekg(0);
      in.read(buf.data(), std::streamsize(buf.size()));
    }
    if (size < 0 || !in) {
      throw CheckpointError("cannot read checkpoint '" + path + "'");
    }
  }
  if (buf.size() < kMagicLen + sizeof(std::uint64_t) ||
      std::memcmp(buf.data(), kMagic, kMagicLen) != 0) {
    throw CheckpointError("'" + path +
                          "' is not an mpsim-ckpt-v4 checkpoint (bad or "
                          "missing magic)");
  }
  // Checksum covers everything up to the trailing hash itself.
  const std::size_t payload = buf.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, buf.data() + payload, sizeof(stored));
  if (journal_checksum(buf.data(), payload) != stored) {
    throw CheckpointError("checkpoint '" + path +
                          "' failed its checksum (corrupt or truncated)");
  }

  Reader r{buf, kMagicLen};
  CheckpointData data;
  data.fingerprint = r.get<std::uint64_t>();
  data.tile_count = r.get<std::uint64_t>();
  const auto slice_entries = r.get<std::uint64_t>();
  for (std::uint64_t t = 0; t < slice_entries; ++t) {
    CheckpointSlice slice;
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
    slice.profile = r.get_span<double>();
    slice.index = r.get_span<std::int64_t>();
    slice.qt = r.get_span<std::uint8_t>();
    slice.prefilter.blocks_total = r.get<std::uint64_t>();
    slice.prefilter.blocks_skipped = r.get<std::uint64_t>();
    slice.prefilter.blocks_verified = r.get<std::uint64_t>();
    slice.prefilter.cols_skipped = r.get<std::uint64_t>();
    slice.prefilter.cols_verified = r.get<std::uint64_t>();
    slice.prefilter.cols_missed = r.get<std::uint64_t>();
    // A checksum-valid journal can still carry values no writer emits
    // (the mode and flag are used unchecked downstream): reject them here.
    if (mode < int(PrecisionMode::FP64) || mode > int(PrecisionMode::TF32) ||
        slice.complete > 1) {
      throw CheckpointError("checkpoint '" + path +
                            "' has a slice with precision mode " +
                            std::to_string(mode) + " and complete flag " +
                            std::to_string(int(slice.complete)) +
                            " (index " + std::to_string(slice.tile_index) +
                            ")");
    }
    if (slice.tile_index >= data.tile_count ||
        slice.profile.size() != slice.index.size() ||
        (!slice.qt.empty() &&
         slice.qt.size() != slice.profile.size() * storage_bytes(slice.mode)) ||
        slice.profile.size() != slice.q_count * slice.dims ||
        slice.r_count == 0 || slice.q_count == 0 || slice.dims == 0) {
      throw CheckpointError("checkpoint '" + path +
                            "' has an inconsistent slice entry (index " +
                            std::to_string(slice.tile_index) + ")");
    }
    data.slices.push_back(std::move(slice));
  }
  const auto event_entries = r.get<std::uint64_t>();
  for (std::uint64_t e = 0; e < event_entries; ++e) {
    RunEvent event;
    const auto kind = r.get<std::int32_t>();
    // The last enumerator bounds the wire values (the kinds are frozen).
    if (kind < 0 || kind > int(RunEvent::Kind::kNodeDuplicated)) {
      throw CheckpointError("checkpoint '" + path + "' has an event of kind " +
                            std::to_string(kind));
    }
    event.kind = RunEvent::Kind(kind);
    event.tile_id = r.get<std::int32_t>();
    event.device = r.get<std::int32_t>();
    event.detail = r.get_string();
    data.events.push_back(std::move(event));
  }
  if (r.pos != payload) {
    throw CheckpointError("checkpoint '" + path + "' has " +
                          std::to_string(payload - r.pos) +
                          " trailing bytes before its checksum");
  }
  return data;
}

}  // namespace mpsim::mp
