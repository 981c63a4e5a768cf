// Durable checkpoint/resume: the v5 append-only journal round-trips
// bit-exactly (QT rows included), every single-bit flip or truncation of a
// segment ends its valid prefix exactly at the damaged record and the
// resume from what is left matches the uninterrupted run, damaged or
// foreign headers fall back to a fresh run through a structured RunEvent
// (distinguishing missing vs corrupt vs fingerprint-mismatch), a
// killed-then-resumed computation produces the same profile/index bits as
// the uninterrupted run in every precision mode and on both row paths,
// and slices written under one tile grid re-key onto a different grid
// (whole tiles restore outright, row prefixes with a QT row run only
// their tail, everything else is discarded and recomputed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "mp/checkpoint.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/tile_plan.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

SyntheticDataset small_dataset(std::size_t segments = 160,
                               std::size_t dims = 2,
                               std::size_t window = 16,
                               std::uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.segments = segments;
  spec.dims = dims;
  spec.window = window;
  spec.injections_per_dim = 2;
  spec.seed = seed;
  return make_synthetic_dataset(spec);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "mpsim_" + name + ".ckpt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

CheckpointData sample_data() {
  CheckpointData data;
  data.fingerprint = 0xfeedbeefcafe1234ULL;
  data.tile_count = 4;
  CheckpointSlice slice;
  slice.tile_index = 2;
  slice.tile_id = 2;
  slice.device = 1;
  slice.node = 3;
  slice.complete = 0;  // a mid-tile row-slice snapshot
  slice.mode = PrecisionMode::Mixed;
  slice.r_begin = 40;
  slice.r_count = 17;
  slice.q_begin = 80;
  slice.q_count = 3;
  slice.dims = 1;
  slice.profile = {0.5, 1.25, std::numeric_limits<double>::infinity()};
  slice.index = {7, -1, 3};
  // Mixed stores QT in binary16: 3 columns x 1 dim x 2 bytes, one a NaN
  // with a payload.
  slice.qt = {0x00, 0x3c, 0x01, 0x7e, 0x00, 0xc0};
  slice.prefilter.blocks_total = 9;
  slice.prefilter.blocks_skipped = 4;
  slice.prefilter.cols_skipped = 12;
  data.slices.push_back(slice);
  data.events.push_back(
      {RunEvent::Kind::kRetry, 2, 1, "injected kernel fault — retry 1/3"});
  return data;
}

// ---------------------------------------------------------------------
// Journal mechanics.
// ---------------------------------------------------------------------

TEST(CheckpointJournal, RoundTripsBitExactly) {
  const std::string path = temp_path("roundtrip");
  const CheckpointData data = sample_data();
  write_checkpoint(path, data);

  const CheckpointData back = read_checkpoint(path);
  EXPECT_EQ(back.fingerprint, data.fingerprint);
  EXPECT_EQ(back.tile_count, data.tile_count);
  ASSERT_EQ(back.slices.size(), 1u);
  const CheckpointSlice& s = back.slices[0];
  EXPECT_EQ(s.tile_index, 2u);
  EXPECT_EQ(s.tile_id, 2);
  EXPECT_EQ(s.device, 1);
  EXPECT_EQ(s.node, 3);
  EXPECT_EQ(s.complete, 0);
  EXPECT_EQ(s.mode, PrecisionMode::Mixed);
  EXPECT_EQ(s.r_begin, 40u);
  EXPECT_EQ(s.r_count, 17u);
  EXPECT_EQ(s.q_begin, 80u);
  EXPECT_EQ(s.q_count, 3u);
  EXPECT_EQ(s.dims, 1u);
  EXPECT_EQ(s.profile, data.slices[0].profile);
  EXPECT_EQ(s.index, data.slices[0].index);
  EXPECT_EQ(s.qt, data.slices[0].qt);
  EXPECT_EQ(s.prefilter.blocks_total, 9u);
  EXPECT_EQ(s.prefilter.blocks_skipped, 4u);
  EXPECT_EQ(s.prefilter.cols_skipped, 12u);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].kind, RunEvent::Kind::kRetry);
  EXPECT_EQ(back.events[0].detail, data.events[0].detail);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, WriteIsAtomicReplace) {
  const std::string path = temp_path("atomic");
  CheckpointData data = sample_data();
  write_checkpoint(path, data);
  // A second write replaces the journal; no .tmp file survives.
  data.slices[0].profile[0] = 0.75;
  write_checkpoint(path, data);
  EXPECT_EQ(read_checkpoint(path).slices[0].profile[0], 0.75);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(CheckpointJournal, WriteIsDurablySynced) {
  // Regression: the tmp-write + rename used to issue no fsync at all, so
  // a crash shortly after a "successful" write could surface a zero-length
  // or stale file behind the rename.  A complete journal (compaction)
  // places two sync barriers: the tmp file before the rename, the parent
  // directory after.
  const std::string path = temp_path("durable");
  const std::uint64_t before = detail::durable_sync_count();
  write_checkpoint(path, sample_data());
  EXPECT_EQ(detail::durable_sync_count() - before, 2u);

  // Replacing an existing journal is synced the same way.
  write_checkpoint(path, sample_data());
  EXPECT_EQ(detail::durable_sync_count() - before, 4u);

  // A segment: one fdatasync per append, plus one directory sync when the
  // segment is created; an append with nothing buffered does no I/O.
  const CheckpointData data = sample_data();
  const std::string segment = temp_path("durable_segment");
  {
    JournalWriter journal(segment, data.fingerprint, data.tile_count);
    std::uint64_t mark = detail::durable_sync_count();
    EXPECT_EQ(journal.append(), 0u);
    EXPECT_EQ(detail::durable_sync_count() - mark, 0u);
    journal.add_slice(data.slices[0]);
    EXPECT_GT(journal.append(), 0u);
    EXPECT_EQ(detail::durable_sync_count() - mark, 2u);
    mark = detail::durable_sync_count();
    journal.add_slice(data.slices[0]);
    journal.add_events(data.events);
    journal.append();
    EXPECT_EQ(detail::durable_sync_count() - mark, 1u);
  }
  // Continuing an existing segment creates nothing: one sync per append.
  const std::uint64_t size = read_file(segment).size();
  {
    JournalWriter journal(segment, data.fingerprint, data.tile_count, size);
    const std::uint64_t mark = detail::durable_sync_count();
    journal.add_slice(data.slices[0]);
    journal.append();
    EXPECT_EQ(detail::durable_sync_count() - mark, 1u);
  }
  EXPECT_EQ(read_checkpoint(segment).slices.size(), 3u);
  std::remove(path.c_str());
  std::remove(segment.c_str());
}

TEST(CheckpointJournal, AppendWritesOnlyItsRecords) {
  // O(record), not O(journal): each append writes the records buffered
  // since the last one and nothing else, so the file grows by exactly the
  // bytes each append reports; a writer continuing a valid prefix cuts off
  // whatever follows it before appending.
  const CheckpointData data = sample_data();
  const std::string path = temp_path("append_only");
  std::size_t first = 0;
  std::size_t second = 0;
  {
    JournalWriter journal(path, data.fingerprint, data.tile_count);
    journal.add_slice(data.slices[0]);
    first = journal.append();  // header + one slice record
    EXPECT_EQ(read_file(path).size(), first);
    journal.add_slice(data.slices[0]);
    second = journal.append();
    EXPECT_EQ(read_file(path).size(), first + second);
    EXPECT_LT(second, first);  // no header, no earlier record again
  }
  std::string torn = read_file(path);
  torn.resize(first + second / 2);  // a write cut mid-record
  write_file(path, torn);
  {
    JournalWriter journal(path, data.fingerprint, data.tile_count, first);
    journal.add_events(data.events);
    journal.append();
  }
  const CheckpointData back = read_checkpoint(path);
  EXPECT_EQ(back.slices.size(), 1u);
  EXPECT_EQ(back.events.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, ZeroLengthFileIsRejectedNotParsed) {
  // The crash shape the missing fsync produced: a present but empty
  // journal.  Resume must treat it exactly like a corrupt file.
  const std::string path = temp_path("zerolen");
  write_file(path, "");
  try {
    read_checkpoint(path);
    FAIL() << "empty journal parsed";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), CheckpointError::Reason::kCorrupt);
  }
  std::remove(path.c_str());
}

TEST(CheckpointJournal, RejectsMissingTruncatedAndCorruptFiles) {
  // Missing and damaged files raise distinct reasons: the resume fallback
  // reports them as different structured events (see ResumeFallback*).
  try {
    read_checkpoint(temp_path("nonexistent"));
    FAIL() << "missing journal parsed";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), CheckpointError::Reason::kMissing);
  }

  const std::string path = temp_path("damaged");
  write_checkpoint(path, sample_data());
  const std::string good = read_file(path);

  // Truncations anywhere (header, payload, checksum) must be rejected.
  for (const std::size_t keep :
       {std::size_t(4), good.size() / 2, good.size() - 1}) {
    write_file(path, good.substr(0, keep));
    try {
      read_checkpoint(path);
      FAIL() << "truncated journal parsed at " << keep;
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.reason(), CheckpointError::Reason::kCorrupt) << keep;
    }
  }
  // A flipped payload byte fails the checksum.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] =
      char(corrupt[corrupt.size() / 2] ^ 0x20);
  write_file(path, corrupt);
  EXPECT_THROW(read_checkpoint(path), CheckpointError);
  // A different magic is not an mpsim checkpoint at all (this also covers
  // older journals: the "mpsim-ckpt-v3"/"-v4" magics no longer match).
  std::string foreign = good;
  foreign[0] = 'X';
  write_file(path, foreign);
  EXPECT_THROW(read_checkpoint(path), CheckpointError);
  for (const char older : {'3', '4'}) {
    std::string v = good;
    v[std::string("mpsim-ckpt-v").size()] = older;
    write_file(path, v);
    EXPECT_THROW(read_checkpoint(path), CheckpointError) << older;
  }
  // Checksum-valid journals carrying values no writer emits: an
  // out-of-range precision mode, a `complete` flag outside {0, 1}, a QT
  // row of the wrong length, an event kind outside the enum.
  const auto expect_corrupt = [&](const CheckpointData& bad,
                                  const std::string& what) {
    write_checkpoint(path, bad);
    try {
      read_checkpoint(path);
      FAIL() << what << " parsed";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.reason(), CheckpointError::Reason::kCorrupt) << what;
    }
  };
  CheckpointData bad = sample_data();
  bad.slices[0].mode = PrecisionMode(99);
  expect_corrupt(bad, "mode 99");
  bad = sample_data();
  bad.slices[0].mode = PrecisionMode(-1);
  expect_corrupt(bad, "mode -1");
  bad = sample_data();
  bad.slices[0].complete = 2;
  expect_corrupt(bad, "complete 2");
  bad = sample_data();
  bad.slices[0].qt.pop_back();
  expect_corrupt(bad, "short QT row");
  bad = sample_data();
  bad.slices[0].qt.resize(bad.slices[0].qt.size() * 2);
  expect_corrupt(bad, "long QT row");
  bad = sample_data();
  bad.events[0].kind = RunEvent::Kind(99);
  expect_corrupt(bad, "event kind 99");
  bad = sample_data();
  bad.events[0].kind = RunEvent::Kind(-1);
  expect_corrupt(bad, "event kind -1");
  // Bytes smuggled into the last record, before its checksum, are
  // rejected too.
  std::string padded = good;
  padded.insert(padded.size() - 8, "????");
  write_file(path, padded);
  EXPECT_THROW(read_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

/// Where each record of the journal at `path` ends, as the streaming
/// reader finds them; `header` gets where the first one starts.
std::vector<std::size_t> record_ends(const std::string& path,
                                     std::size_t& header) {
  std::vector<std::size_t> ends;
  JournalReader reader(path);
  header = reader.valid_bytes();
  while (reader.next() != JournalReader::Record::kEnd) {
    ends.push_back(reader.valid_bytes());
  }
  return ends;
}

TEST(CheckpointJournal, EveryBitFlipAndTruncationIsRejected) {
  // A small v5 segment of two appends: a committed tile, a partial row
  // slice with its QT row and an event batch, then another partial.
  // Every single-bit flip makes the record holding that bit the first one
  // the streaming reader rejects (a header bit voids the file), and every
  // truncation keeps exactly the records before the cut; the strict
  // reader rejects a cut unless it falls on a record boundary.  The
  // checksum folds 64-bit words, so this sweeps every word lane, the byte
  // tails and the trailers.
  const CheckpointData data = sample_data();
  CheckpointSlice whole = data.slices[0];
  whole.tile_index = 0;
  whole.tile_id = 0;
  whole.complete = 1;
  whole.r_begin = 0;
  whole.r_count = 40;
  const std::string path = temp_path("sweep");
  {
    JournalWriter journal(path, data.fingerprint, data.tile_count);
    journal.add_slice(whole);
    journal.add_slice(data.slices[0]);
    journal.add_events(data.events);
    journal.append();
    CheckpointSlice further = data.slices[0];
    further.r_count += 8;
    journal.add_slice(further);
    journal.append();
  }
  const std::string good = read_file(path);
  std::size_t header = 0;
  const std::vector<std::size_t> ends = record_ends(path, header);
  ASSERT_EQ(ends.size(), 4u);
  ASSERT_EQ(ends.back(), good.size());

  // Records the streaming reader accepts from `bytes` before it stops
  // (-1: the header is rejected); every rejection is kCorrupt.
  const auto scan = [&](const std::string& bytes) {
    write_file(path, bytes);
    int records = -1;
    try {
      JournalReader reader(path);
      records = 0;
      while (reader.next() != JournalReader::Record::kEnd) ++records;
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.reason(), CheckpointError::Reason::kCorrupt);
    }
    return records;
  };
  // Records that end at or before byte `at` (-1: inside the header).
  const auto records_before = [&](std::size_t at) {
    if (at < header) return -1;
    return int(std::upper_bound(ends.begin(), ends.end(), at) - ends.begin());
  };

  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] = char(flipped[bit / 8] ^ (1 << (bit % 8)));
    // The strict reader, built on the same reader, rejects it too.
    ASSERT_EQ(scan(flipped), records_before(bit / 8)) << "bit " << bit;
  }
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    const std::string cut = good.substr(0, keep);
    ASSERT_EQ(scan(cut), records_before(keep)) << "truncated to " << keep;
    const bool boundary =
        keep == header || std::binary_search(ends.begin(), ends.end(), keep);
    if (boundary) {
      EXPECT_NO_THROW(read_checkpoint(path)) << "truncated to " << keep;
    } else {
      EXPECT_THROW(read_checkpoint(path), CheckpointError)
          << "truncated to " << keep;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, DamagedSegmentResumesItsValidPrefixBitIdentically) {
  // The segment of a killed one-node run — row-slice snapshots with their
  // QT rows, a committed tile and event batches, appended as the run went
  // — damaged in each of its records, by a cut inside the record or a
  // flipped bit in it.  Whatever the reader keeps (the sweep above pins
  // which records that is for every offset), the resumed profile matches
  // the uninterrupted run's bytes.
  const auto data = small_dataset(40, 1, 8, 31);
  MatrixProfileConfig config;
  config.window = 8;
  config.tiles = 2;
  const auto clean =
      compute_matrix_profile(data.reference, data.query, config);
  const std::string path = temp_path("damaged_segment");
  config.checkpoint.write_path = path;
  config.checkpoint.interval_tiles = 1;
  config.checkpoint.slice_rows = 4;
  config.checkpoint.kill_after_slices = 6;
  clear_shutdown();
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();
  const std::string good = read_file(path);
  std::size_t header = 0;
  const std::vector<std::size_t> ends = record_ends(path, header);
  const CheckpointData journal = read_checkpoint(path);
  int complete = 0;
  for (const CheckpointSlice& slice : journal.slices) {
    complete += slice.complete;
  }
  ASSERT_GE(complete, 1);
  ASSERT_GT(int(journal.slices.size()), complete);
  ASSERT_FALSE(journal.events.empty());

  MatrixProfileConfig resume = config;
  resume.checkpoint = {};
  resume.checkpoint.resume_path = path;
  const auto resumes_clean = [&](const std::string& bytes) {
    write_file(path, bytes);
    const auto r = compute_matrix_profile(data.reference, data.query, resume);
    return r.profile == clean.profile && r.index == clean.index;
  };
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const std::size_t begin = i == 0 ? header : ends[i - 1];
    EXPECT_TRUE(resumes_clean(good.substr(0, (begin + ends[i]) / 2)))
        << "cut in record " << i;
    std::string flipped = good;
    flipped[(begin + ends[i]) / 2] ^= 0x10;
    EXPECT_TRUE(resumes_clean(flipped)) << "bit flip in record " << i;
  }
  EXPECT_TRUE(resumes_clean(good.substr(0, header - 1)));  // bad header
  write_file(path, good);  // intact: the tile and the prefix are reused
  const auto intact = compute_matrix_profile(data.reference, data.query,
                                             resume);
  EXPECT_EQ(intact.profile, clean.profile);
  EXPECT_GE(intact.health.resumed_tiles, 1);
  EXPECT_GE(intact.health.partial_slices, 1);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, FingerprintTracksInputsNotShape) {
  const auto a = small_dataset(120, 2, 16, 1);
  const auto b = small_dataset(120, 2, 16, 2);  // different samples
  MatrixProfileConfig config;
  config.window = 16;
  const auto fp_a = checkpoint_fingerprint(a.reference, a.query, config);
  EXPECT_EQ(fp_a, checkpoint_fingerprint(a.reference, a.query, config));
  EXPECT_NE(fp_a, checkpoint_fingerprint(b.reference, b.query, config));
  MatrixProfileConfig other = config;
  other.mode = PrecisionMode::FP16;
  EXPECT_NE(fp_a, checkpoint_fingerprint(a.reference, a.query, other));
  // The tile grid is deliberately NOT part of the fingerprint: slices
  // carry absolute ranges, so a journal re-keys onto a different grid.
  other = config;
  other.tiles = 4;
  EXPECT_EQ(fp_a, checkpoint_fingerprint(a.reference, a.query, other));
  // ... but the grid DOES change reduced-precision output bits, so the
  // serve daemon's profile cache key must still separate the two.
  EXPECT_NE(profile_cache_key(a.reference, a.query, config),
            profile_cache_key(a.reference, a.query, other));
  // Non-output-affecting knobs change neither identity.
  other = config;
  other.devices = 3;
  other.row_path = RowPath::kCooperative;
  other.resilience.watchdog = true;
  EXPECT_EQ(fp_a, checkpoint_fingerprint(a.reference, a.query, other));
  EXPECT_EQ(profile_cache_key(a.reference, a.query, config),
            profile_cache_key(a.reference, a.query, other));
}

// ---------------------------------------------------------------------
// Slice re-keying: how journalled ranges map onto a changed tile grid.
// ---------------------------------------------------------------------

TEST(CheckpointSliceFit, RekeyingEdgeCases) {
  Tile tile;  // the *current* grid's tile: rows [100, 150) x cols [0, 40)
  tile.r_begin = 100;
  tile.r_count = 50;
  tile.q_begin = 0;
  tile.q_count = 40;
  const std::size_t dims = 2;

  // Exact cover — zero-width remainder — restores the tile outright.
  EXPECT_EQ(classify_slice(100, 50, 0, 40, dims, tile, dims),
            SliceFit::kComplete);
  // Proper row prefix: the tail [130, 150) continues from the prefix.
  EXPECT_EQ(classify_slice(100, 30, 0, 40, dims, tile, dims),
            SliceFit::kPrefix);
  // A slice spanning exactly past the tile's row boundary is unusable:
  // its profile is already min-merged over rows the tile does not own,
  // and row contributions cannot be un-merged.
  EXPECT_EQ(classify_slice(100, 100, 0, 40, dims, tile, dims),
            SliceFit::kNone);
  // Row origin inside the tile but not at its start: the journalled QT
  // recurrence was seeded elsewhere, so its bits are not this tile's.
  EXPECT_EQ(classify_slice(125, 25, 0, 40, dims, tile, dims),
            SliceFit::kNone);
  // Zero journalled rows carry nothing to restore.
  EXPECT_EQ(classify_slice(100, 0, 0, 40, dims, tile, dims),
            SliceFit::kNone);
  // Column subset or shift: no bit-safe sub-range can be extracted.
  EXPECT_EQ(classify_slice(100, 50, 0, 20, dims, tile, dims),
            SliceFit::kNone);
  EXPECT_EQ(classify_slice(100, 50, 8, 40, dims, tile, dims),
            SliceFit::kNone);
  // d-dimension mismatch is rejected outright.
  EXPECT_EQ(classify_slice(100, 50, 0, 40, dims + 1, tile, dims),
            SliceFit::kNone);
}

// ---------------------------------------------------------------------
// Kill + resume produces the uninterrupted run's bits.
// ---------------------------------------------------------------------

TEST(CheckpointResume, KilledRunResumesBitIdenticallyAllModesBothPaths) {
  const auto data = small_dataset();
  for (const RowPath path : {RowPath::kAuto, RowPath::kCooperative}) {
    for (const PrecisionMode mode : kAllPrecisionModes) {
      MatrixProfileConfig config;
      config.window = 16;
      config.mode = mode;
      config.tiles = 4;
      config.devices = 2;
      config.row_path = path;

      const auto clean =
          compute_matrix_profile(data.reference, data.query, config);

      const std::string ckpt =
          temp_path("resume_" + to_string(mode) + "_" + to_string(path));
      config.checkpoint.write_path = ckpt;
      config.checkpoint.interval_tiles = 1;
      config.checkpoint.kill_after_tiles = 2;
      clear_shutdown();
      try {
        const auto r =
            compute_matrix_profile(data.reference, data.query, config);
        // The kill raced run completion: every tile committed before the
        // monitor saw the request.  The journal is complete either way.
        EXPECT_EQ(r.profile, clean.profile);
      } catch (const InterruptedError& e) {
        EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos);
      }
      clear_shutdown();

      config.checkpoint.kill_after_tiles = 0;
      config.checkpoint.resume_path = ckpt;
      const auto resumed =
          compute_matrix_profile(data.reference, data.query, config);

      EXPECT_EQ(resumed.profile, clean.profile)
          << to_string(mode) << " " << to_string(path);
      EXPECT_EQ(resumed.index, clean.index)
          << to_string(mode) << " " << to_string(path);
      EXPECT_GT(resumed.health.resumed_tiles, 0);
      EXPECT_GT(resumed.health.checkpoint_writes, 0);
      bool saw_resume_event = false;
      for (const auto& event : resumed.health.events) {
        if (event.kind == RunEvent::Kind::kResumed) saw_resume_event = true;
      }
      EXPECT_TRUE(saw_resume_event);
      std::remove(ckpt.c_str());
    }
  }
}

TEST(CheckpointResume, MidTileSliceKillResumesBitIdentically) {
  // Sub-tile durability: kill after a handful of journalled row slices —
  // mid-tile, before every tile committed — then resume.  The journalled
  // prefix seeds its tile (the tail continues from its QT row) and the
  // final bits match the uninterrupted run.  A silently discarded prefix
  // would give the same bytes, so the restore is checked in the counters.
  const auto data = small_dataset(160, 2, 16, 9);
  for (const PrecisionMode mode : kExtendedPrecisionModes) {
    MatrixProfileConfig config;
    config.window = 16;
    config.tiles = 2;
    config.mode = mode;
    const auto clean =
        compute_matrix_profile(data.reference, data.query, config);

    const std::string ckpt = temp_path("slicekill_" + to_string(mode));
    config.checkpoint.write_path = ckpt;
    config.checkpoint.slice_rows = 8;
    config.checkpoint.kill_after_slices = 2;
    clear_shutdown();
    try {
      compute_matrix_profile(data.reference, data.query, config);
    } catch (const InterruptedError&) {
    }
    clear_shutdown();

    config.checkpoint.kill_after_slices = 0;
    config.checkpoint.slice_rows = 0;
    config.checkpoint.resume_path = ckpt;
    const auto resumed =
        compute_matrix_profile(data.reference, data.query, config);
    EXPECT_EQ(resumed.profile, clean.profile) << to_string(mode);
    EXPECT_EQ(resumed.index, clean.index) << to_string(mode);
    EXPECT_GE(resumed.health.partial_slices, 1) << to_string(mode);
    EXPECT_EQ(resumed.health.slices_discarded, 0) << to_string(mode);
    std::remove(ckpt.c_str());
  }
}

TEST(CheckpointResume, SamePathResumeCutsTheTornTailAndAppends) {
  // `--resume=X --checkpoint=X`: the resumed run continues X from the
  // valid prefix it read — a torn tail is cut off before anything is
  // appended, so X stays one valid log — and a finished run compacts it.
  const auto data = small_dataset(160, 2, 16, 9);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 2;
  config.mode = PrecisionMode::Mixed;
  const auto clean =
      compute_matrix_profile(data.reference, data.query, config);

  const std::string ckpt = temp_path("same_path");
  config.checkpoint.write_path = ckpt;
  config.checkpoint.slice_rows = 8;
  config.checkpoint.kill_after_slices = 2;
  clear_shutdown();
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();
  std::string bytes = read_file(ckpt);
  bytes.resize(bytes.size() - 5);  // a write cut mid-record
  write_file(ckpt, bytes);
  EXPECT_THROW(read_checkpoint(ckpt), CheckpointError);

  config.checkpoint.resume_path = ckpt;
  clear_shutdown();
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();
  const CheckpointData continued = read_checkpoint(ckpt);  // no torn bytes
  EXPECT_GE(continued.slices.size(), 2u);

  config.checkpoint.kill_after_slices = 0;
  const auto resumed =
      compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);
  EXPECT_GE(resumed.health.partial_slices, 1);
  for (const CheckpointSlice& slice : read_checkpoint(ckpt).slices) {
    EXPECT_EQ(slice.complete, 1);  // compacted
  }
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, ResumeIntoAnotherFileCarriesTheRestoredTiles) {
  // A run resuming from X while journalling to Y appends the tiles it
  // restored to Y as well, so Y alone resumes it if it is killed again.
  const auto data = small_dataset(160, 2, 16, 7);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 6;
  const auto clean =
      compute_matrix_profile(data.reference, data.query, config);
  const std::string first = temp_path("carry_first");
  const std::string second = temp_path("carry_second");
  config.checkpoint.interval_tiles = 1;
  config.checkpoint.write_path = first;
  config.checkpoint.kill_after_tiles = 2;
  clear_shutdown();
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();

  config.checkpoint.resume_path = first;
  config.checkpoint.write_path = second;
  config.checkpoint.kill_after_tiles = 4;  // restored tiles count
  EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
               InterruptedError);
  clear_shutdown();
  std::remove(first.c_str());

  config.checkpoint = {};
  config.checkpoint.resume_path = second;
  const auto resumed =
      compute_matrix_profile(data.reference, data.query, config);
  EXPECT_EQ(resumed.health.resumed_tiles, 4);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);
  std::remove(second.c_str());
}

TEST(CheckpointResume, CompletedJournalSkipsAllWork) {
  const auto data = small_dataset(120, 2, 16, 4);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;
  const std::string ckpt = temp_path("complete");
  config.checkpoint.write_path = ckpt;

  const auto first = compute_matrix_profile(data.reference, data.query,
                                            config);
  EXPECT_GT(first.health.checkpoint_writes, 0);

  config.checkpoint.resume_path = ckpt;
  const auto second = compute_matrix_profile(data.reference, data.query,
                                             config);
  EXPECT_EQ(second.health.resumed_tiles, 4);
  EXPECT_EQ(second.profile, first.profile);
  EXPECT_EQ(second.index, first.index);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------
// Resume fallback: every unusable-journal class is a structured event,
// not a silent fresh start (and never an abort).
// ---------------------------------------------------------------------

int count_fallbacks(const RunHealth& health, const std::string& needle) {
  int n = 0;
  for (const auto& event : health.events) {
    if (event.kind == RunEvent::Kind::kResumeFallback &&
        event.detail.find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(CheckpointResume, MissingJournalFallsBackWithStructuredEvent) {
  const auto data = small_dataset(120, 2, 16, 5);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 2;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  auto& fallbacks = registry.counter("resilient.resume_fallback");
  const std::uint64_t before = fallbacks.value();

  config.checkpoint.resume_path = temp_path("never_written");
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              config);
  EXPECT_EQ(resumed.health.resumed_tiles, 0);
  EXPECT_EQ(resumed.health.resume_fallbacks, 1);
  EXPECT_EQ(count_fallbacks(resumed.health, "is missing"), 1);
  EXPECT_EQ(fallbacks.value() - before, 1u);
  EXPECT_EQ(resumed.profile, clean.profile);
  registry.set_enabled(false);
  registry.reset();
}

TEST(CheckpointResume, CorruptJournalFallsBackWithStructuredEvent) {
  const auto data = small_dataset(120, 2, 16, 5);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 2;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  const std::string ckpt = temp_path("corrupt_resume");
  MatrixProfileConfig writer = config;
  writer.checkpoint.write_path = ckpt;
  compute_matrix_profile(data.reference, data.query, writer);
  const std::string good = read_file(ckpt);

  // A corrupt header voids the journal: a fresh run.
  std::string bytes = good;
  bytes[20] = char(bytes[20] ^ 0x01);  // inside the fingerprint
  write_file(ckpt, bytes);
  config.checkpoint.resume_path = ckpt;
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              config);
  EXPECT_EQ(resumed.health.resumed_tiles, 0);
  EXPECT_EQ(resumed.health.resume_fallbacks, 1);
  EXPECT_EQ(count_fallbacks(resumed.health, "is unreadable"), 1);
  EXPECT_EQ(resumed.profile, clean.profile);

  // A corrupt record ends the log there: the record before it restores
  // its tile, and the discarded tail is named with its byte offset.
  std::size_t second = 0;  // where the second record starts
  write_file(ckpt, good);
  {
    JournalReader reader(ckpt);
    ASSERT_EQ(reader.next(), JournalReader::Record::kSlice);
    second = reader.valid_bytes();
  }
  bytes = good;
  bytes[second + 40] = char(bytes[second + 40] ^ 0x01);
  write_file(ckpt, bytes);
  const auto torn = compute_matrix_profile(data.reference, data.query,
                                           config);
  EXPECT_EQ(torn.health.resumed_tiles, 1);
  EXPECT_EQ(torn.health.resume_fallbacks, 0);
  EXPECT_EQ(torn.health.slices_discarded, 1);
  EXPECT_EQ(torn.profile, clean.profile);
  EXPECT_EQ(torn.index, clean.index);
  int tails = 0;
  for (const auto& event : torn.health.events) {
    if (event.kind == RunEvent::Kind::kSliceDiscarded &&
        event.tile_id == -1 &&
        event.detail.find("at byte " + std::to_string(second)) !=
            std::string::npos) {
      ++tails;
    }
  }
  EXPECT_EQ(tails, 1);
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, ForeignJournalFallsBackWithStructuredEvent) {
  const auto data = small_dataset(120, 2, 16, 5);
  const auto other = small_dataset(120, 2, 16, 6);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 2;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  // Journal of a different dataset: fingerprint mismatch.
  const std::string ckpt = temp_path("foreign");
  MatrixProfileConfig other_config = config;
  other_config.checkpoint.write_path = ckpt;
  compute_matrix_profile(other.reference, other.query, other_config);

  config.checkpoint.resume_path = ckpt;
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              config);
  EXPECT_EQ(resumed.health.resumed_tiles, 0);
  EXPECT_EQ(resumed.health.resume_fallbacks, 1);
  EXPECT_EQ(count_fallbacks(resumed.health, "fingerprint mismatch"), 1);
  EXPECT_EQ(resumed.profile, clean.profile);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------
// Elastic resume: a journal written under one tile grid re-keys onto a
// different grid — and the run's bits still match the clean run's.
// ---------------------------------------------------------------------

TEST(CheckpointResume, GridChangeReusesPrefixesAndDiscardsTheRest) {
  // tiles=8 → a 4x2 grid, tiles=4 → 2x2: the column split is identical,
  // each coarse tile's rows are two fine tiles' rows.  Of each pair of
  // fine complete slices, the first is an exact row *prefix* of the
  // coarse tile (same seed origin — restorable, the tail continues from
  // its QT row)
  // and the second is seeded mid-tile (unusable, discarded).
  const auto data = small_dataset(160, 2, 16, 8);
  MatrixProfileConfig fine;
  fine.window = 16;
  fine.tiles = 8;
  const std::string ckpt = temp_path("gridchange");
  fine.checkpoint.write_path = ckpt;
  compute_matrix_profile(data.reference, data.query, fine);

  MatrixProfileConfig coarse;
  coarse.window = 16;
  coarse.tiles = 4;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            coarse);

  coarse.checkpoint.resume_path = ckpt;
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              coarse);
  EXPECT_EQ(resumed.health.resumed_tiles, 0);
  EXPECT_EQ(resumed.health.partial_slices, 4);
  EXPECT_EQ(resumed.health.slices_discarded, 4);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);
  bool saw_restored = false;
  bool saw_discarded = false;
  for (const auto& event : resumed.health.events) {
    if (event.kind == RunEvent::Kind::kSliceRestored) saw_restored = true;
    if (event.kind == RunEvent::Kind::kSliceDiscarded) saw_discarded = true;
  }
  EXPECT_TRUE(saw_restored);
  EXPECT_TRUE(saw_discarded);
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, PrefixWithoutQtRowIsDiscardedAndRecomputed) {
  // The grid change of the test above yields four restorable prefixes.
  // Strip their QT rows (what a CPU-fallback, split or corrupted-input
  // tile journals): each is discarded with an event and its tile
  // recomputed from row 0, to the same bytes.  A QT row of the wrong
  // length never gets that far: the reader rejects the journal.
  const auto data = small_dataset(160, 2, 16, 8);
  MatrixProfileConfig fine;
  fine.window = 16;
  fine.tiles = 8;
  const std::string ckpt = temp_path("noqt");
  fine.checkpoint.write_path = ckpt;
  compute_matrix_profile(data.reference, data.query, fine);
  CheckpointData journal = read_checkpoint(ckpt);
  ASSERT_EQ(journal.slices.size(), 8u);
  for (CheckpointSlice& slice : journal.slices) {
    EXPECT_FALSE(slice.qt.empty());
    slice.qt.clear();
  }
  write_checkpoint(ckpt, journal);

  MatrixProfileConfig coarse;
  coarse.window = 16;
  coarse.tiles = 4;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            coarse);
  coarse.checkpoint.resume_path = ckpt;
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              coarse);
  EXPECT_EQ(resumed.health.partial_slices, 0);
  EXPECT_EQ(resumed.health.slices_discarded, 8);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);
  int no_qt = 0;
  for (const auto& event : resumed.health.events) {
    if (event.kind == RunEvent::Kind::kSliceDiscarded &&
        event.detail.find("no QT row") != std::string::npos) {
      ++no_qt;
    }
  }
  EXPECT_EQ(no_qt, 4);

  // A wrong-length QT row makes its record the first bad one: the log
  // ends before it, so nothing after it is restored either.
  journal.slices[0].qt.assign(3, 0);
  write_checkpoint(ckpt, journal);
  const auto fallback = compute_matrix_profile(data.reference, data.query,
                                               coarse);
  EXPECT_EQ(fallback.health.partial_slices, 0);
  EXPECT_EQ(fallback.health.slices_discarded, 1);
  int bad_records = 0;
  for (const auto& event : fallback.health.events) {
    if (event.kind == RunEvent::Kind::kSliceDiscarded &&
        event.tile_id == -1 &&
        event.detail.find("inconsistent slice") != std::string::npos) {
      ++bad_records;
    }
  }
  EXPECT_EQ(bad_records, 1);
  EXPECT_EQ(fallback.profile, clean.profile);
  EXPECT_EQ(fallback.index, clean.index);
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, DimsMismatchedSliceIsDiscardedNotRestored) {
  const auto data = small_dataset(120, 2, 16, 4);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 2;
  const std::string ckpt = temp_path("dimsmismatch");
  config.checkpoint.write_path = ckpt;
  const auto clean = compute_matrix_profile(data.reference, data.query,
                                            config);

  // Rewrite the journal with one slice carrying a different per-column
  // value count (internally consistent, so the reader accepts it):
  // re-keying must reject it rather than mis-merge.
  CheckpointData journal = read_checkpoint(ckpt);
  ASSERT_EQ(journal.slices.size(), 2u);
  CheckpointSlice& widened = journal.slices[0];
  widened.dims += 1;
  widened.profile.resize(widened.q_count * widened.dims, 0.0);
  widened.index.resize(widened.q_count * widened.dims, -1);
  widened.qt.resize(widened.q_count * widened.dims *
                    storage_bytes(widened.mode));
  write_checkpoint(ckpt, journal);

  config.checkpoint.write_path.clear();
  config.checkpoint.resume_path = ckpt;
  const auto resumed = compute_matrix_profile(data.reference, data.query,
                                              config);
  EXPECT_EQ(resumed.health.resumed_tiles, 1);
  EXPECT_EQ(resumed.health.slices_discarded, 1);
  EXPECT_EQ(resumed.profile, clean.profile);
  EXPECT_EQ(resumed.index, clean.index);
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, IntervalControlsJournalCadence) {
  const auto data = small_dataset(160, 2, 16, 7);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 6;
  const std::string ckpt = temp_path("cadence");
  config.checkpoint.write_path = ckpt;
  config.checkpoint.interval_tiles = 2;

  const auto result = compute_matrix_profile(data.reference, data.query,
                                             config);
  // 6 commits at K=2 → 3 interval writes, plus the final flush.
  EXPECT_EQ(result.health.checkpoint_writes, 4);
  const CheckpointData journal = read_checkpoint(ckpt);
  EXPECT_EQ(journal.tile_count, 6u);
  EXPECT_EQ(journal.slices.size(), 6u);
  for (const CheckpointSlice& slice : journal.slices) {
    EXPECT_EQ(slice.complete, 1);
  }
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, UnwritableJournalFailsTheRunWithIoError) {
  // A journal that cannot be written is no device fault: whether the write
  // comes from a worker between attempts (the interval cadence) or from a
  // row-slice snapshot inside an attempt, the run stops on every node and
  // the caller gets one IoError — never an abort, a retry or a blacklist.
  const auto data = small_dataset(160, 2, 16, 7);
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  for (const int nodes : {1, 2}) {
    for (const int slice_rows : {0, 8}) {
      MatrixProfileConfig config;
      config.window = 16;
      config.tiles = 4;
      config.devices = 2;
      config.nodes = nodes;
      config.checkpoint.write_path =
          testing::TempDir() + "mpsim_missing_dir/x.ckpt";
      config.checkpoint.interval_tiles = 1;
      config.checkpoint.slice_rows = slice_rows;
      EXPECT_THROW(compute_matrix_profile(data.reference, data.query, config),
                   IoError)
          << "nodes " << nodes << " slice rows " << slice_rows;
    }
  }
  EXPECT_EQ(registry.counter("resilient.retries").value(), 0u);
  EXPECT_EQ(registry.counter("resilient.blacklist_events").value(), 0u);
  EXPECT_EQ(registry.counter("resilient.checkpoint_writes").value(), 0u);
  registry.set_enabled(false);
  registry.reset();
}

}  // namespace
}  // namespace mpsim::mp
