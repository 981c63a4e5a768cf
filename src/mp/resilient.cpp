#include "mp/resilient.hpp"

#include <unistd.h>

#include <iterator>
#include <optional>
#include <sstream>
#include <utility>

#include "common/metrics.hpp"
#include "mp/checkpoint.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/single_tile.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// Column-wise min/argmin merge of row sub-tiles into their parent tile's
/// result slot.  The sub-tiles cover disjoint reference rows of the same
/// query columns, so entries align 1:1.  The slot starts at inf/-1, so a
/// NaN in either half is never copied in; because the fold is associative,
/// merging sub-tiles here and then tiles at run level is bit-identical to
/// merging the sub-tiles as planner tiles directly.
void merge_sub_tiles(const TileResult& left, const TileResult& right,
                     TileResult& out) {
  out.profile.assign(left.profile.size(),
                     std::numeric_limits<double>::infinity());
  out.index.assign(left.profile.size(), -1);
  merge_min_into(out.profile, out.index, left.profile, left.index);
  merge_min_into(out.profile, out.index, right.profile, right.index);
  out.qt.clear();  // the right half restarted its own recurrence
  out.ledger.reset();
  out.ledger.merge_from(left.ledger);
  out.ledger.merge_from(right.ledger);
  out.prefilter = {};
  out.prefilter.merge_from(left.prefilter);
  out.prefilter.merge_from(right.prefilter);
}

/// Node segments a multi-node run may have left next to the base journal
/// (one per node id); restore probes and compaction unlinks this many.
constexpr int kMaxNodeJournals = 64;

}  // namespace

void execute_with_split(const RunInputs& run, gpusim::Device& device,
                        PrecisionMode mode, const Tile& tile,
                        TileResult& result,
                        const gpusim::CancellationToken* cancel,
                        const SliceProgress* slice,
                        const std::function<void(const std::string&)>& on_split,
                        int depth) {
  try {
    dispatch_precision(mode, [&]<typename Traits>() {
      SingleTileEngine<Traits>::run(device, *run.reference, *run.query,
                                    run.config->window, tile,
                                    run.config->exclusion, result, run.staging,
                                    run.config->row_path, run.config->prefilter,
                                    cancel, slice);
    });
  } catch (const DeviceMemoryError& e) {
    if (depth >= kMaxTileSplits || tile.r_count < 2) {
      throw;
    }
    Tile left = tile;
    Tile right = tile;
    left.r_count = tile.r_count - tile.r_count / 2;
    right.r_begin = tile.r_begin + left.r_count;
    right.r_count = tile.r_count - left.r_count;
    on_split("rows [" + std::to_string(tile.r_begin) + ", +" +
             std::to_string(tile.r_count) + ") split at +" +
             std::to_string(left.r_count) + ": " + e.what());
    TileResult left_result, right_result;
    // Sub-tiles restart from their own precalculation and cover the full
    // row ranges: no prefix resume, no snapshot emission (their row state
    // is not a prefix of the whole tile's).
    execute_with_split(run, device, mode, left, left_result, cancel, nullptr,
                       on_split, depth + 1);
    execute_with_split(run, device, mode, right, right_result, cancel,
                       nullptr, on_split, depth + 1);
    merge_sub_tiles(left_result, right_result, result);
  }
}

std::string RunEvent::to_string() const {
  const std::string tile = "tile " + std::to_string(tile_id);
  const std::string dev = "device " + std::to_string(device);
  switch (kind) {
    case Kind::kRetry:
      return tile + ": " + detail + " on " + dev;
    case Kind::kRetriesExhausted:
      return tile + ": retries exhausted on " + dev + " (" + detail + ")";
    case Kind::kReassigned:
      return tile + ": reassigned to " + dev;
    case Kind::kStolen:
      return tile + ": stolen by " + dev;
    case Kind::kBlacklisted:
      return dev + " blacklisted: " + detail;
    case Kind::kDeferredToCpu:
      return tile + ": no healthy device left, deferring to CPU fallback";
    case Kind::kCpuFallback:
      return tile + ": completed on the CPU reference path (FP64)";
    case Kind::kEscalated:
      return tile + ": " + detail;
    case Kind::kWatchdogFired:
      return tile + ": watchdog fired on " + dev + " (" + detail + ")";
    case Kind::kSpeculated:
      return tile + ": speculative backup launched on " + dev + " (" +
             detail + ")";
    case Kind::kSpeculationWon:
      return tile + ": speculative backup on " + dev + " won";
    case Kind::kSpeculationLost:
      return tile + ": attempt on " + dev + " cancelled, tile won elsewhere";
    case Kind::kTileSplit:
      return tile + ": memory pressure on " + dev + ", " + detail;
    case Kind::kResumed:
      return detail.empty() ? tile + ": restored from checkpoint"
                            : "checkpoint resume: " + detail;
    case Kind::kCheckpointWritten:
      return "checkpoint written (" + detail + ")";
    case Kind::kInterrupted:
      return "shutdown requested, stopping (" + detail + ")";
    case Kind::kResumeFallback:
      return "resume fallback: " + detail;
    case Kind::kSliceRestored:
      return tile + ": " + detail;
    case Kind::kSliceDiscarded:
      return tile_id < 0 ? "journal tail discarded: " + detail
                         : tile + ": journalled slice discarded (" + detail +
                               ")";
    case Kind::kNodeJoined:
      return "node " + std::to_string(device) + " joined (" + detail + ")";
    case Kind::kNodeCrashed:
      return "node " + std::to_string(device) + " crashed: " + detail;
    case Kind::kNodeStolen:
      return tile + ": stolen by node " + std::to_string(device) +
             (detail.empty() ? "" : " (" + detail + ")");
  }
  return detail;
}

std::string RunHealth::summary() const {
  std::ostringstream os;
  os << "run health: " << (degraded ? "DEGRADED" : "clean") << " — "
     << faults_injected << " fault(s), " << retries << " retry(ies), "
     << reassigned_tiles << " reassignment(s), " << blacklist_events
     << " blacklist(s), " << cpu_fallback_tiles << " CPU-fallback tile(s), "
     << escalations.size() << " escalation(s)\n";
  if (resumed_tiles > 0 || checkpoint_writes > 0 || watchdog_fires > 0 ||
      speculative_wins > 0 || speculative_losses > 0 || tile_splits > 0 ||
      slice_commits > 0 || partial_slices > 0 || resume_fallbacks > 0 ||
      slices_discarded > 0) {
    os << "  durability: " << resumed_tiles << " tile(s) resumed, "
       << checkpoint_writes << " checkpoint write(s), " << watchdog_fires
       << " watchdog fire(s), " << speculative_wins << " speculative win(s)/"
       << speculative_losses << " loss(es), " << tile_splits
       << " tile split(s), " << slice_commits << " slice commit(s), "
       << partial_slices << " partial restore(s), " << slices_discarded
       << " slice(s) discarded, " << resume_fallbacks
       << " resume fallback(s)\n";
  }
  if (node_crashes > 0 || node_steals > 0) {
    os << "  cluster: " << node_crashes << " node crash(es), " << node_steals
       << " cross-node steal(s)\n";
  }
  for (const auto& dev : devices) {
    os << "  device " << dev.device << ": " << dev.tiles_completed
       << " tile(s), " << dev.faults << " fault(s)"
       << (dev.offline ? ", OFFLINE" : dev.blacklisted ? ", BLACKLISTED" : "")
       << "\n";
  }
  for (const auto& esc : escalations) {
    os << "  tile " << esc.tile_id << ": escalated " << to_string(esc.from)
       << " -> " << to_string(esc.to) << " ("
       << int(100.0 * esc.non_finite_fraction) << "% non-finite)\n";
  }
  for (const auto& event : events) {
    os << "  | " << event.to_string() << "\n";
  }
  return os.str();
}

std::string journal_segment_path(const std::string& path, int node) {
  return node < 0 ? path : path + ".node" + std::to_string(node);
}

RestoredState restore_from_journals(const std::string& resume_path,
                                    std::uint64_t fingerprint,
                                    const std::vector<Tile>& tiles,
                                    std::size_t dims,
                                    const MatrixProfileConfig& config) {
  RestoredState out;
  out.reset(tiles.size(), config.mode);
  out.prefixes.assign(tiles.size(), CheckpointSlice{});
  if (resume_path.empty()) return out;

  // The restore's own events follow the prior run's history in `out`.
  std::vector<RunEvent> notes;
  auto note_fallback = [&](const std::string& why) {
    out.fallbacks += 1;
    notes.push_back({RunEvent::Kind::kResumeFallback, -1, -1, why});
  };
  auto note_discard = [&](int tile_id, int device, std::string why) {
    out.discarded += 1;
    notes.push_back(
        {RunEvent::Kind::kSliceDiscarded, tile_id, device, std::move(why)});
  };

  // Re-keys one journalled slice by its absolute row/column ranges
  // against the *current* grid — the journal may have been written under
  // a different tile count or node count — and keeps what it restores:
  // the first complete slice of a tile, the furthest row prefix.
  const auto restore_slice = [&](CheckpointSlice& slice) {
    std::size_t target = tiles.size();
    SliceFit fit = SliceFit::kNone;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      fit = classify_slice(std::size_t(slice.r_begin),
                           std::size_t(slice.r_count),
                           std::size_t(slice.q_begin),
                           std::size_t(slice.q_count),
                           std::size_t(slice.dims), tiles[t], dims);
      if (fit != SliceFit::kNone) {
        target = t;
        break;
      }
    }
    if (target == tiles.size()) {
      note_discard(int(slice.tile_id), int(slice.device),
                   "rows [" + std::to_string(slice.r_begin) + ", +" +
                       std::to_string(slice.r_count) + ") x cols [" +
                       std::to_string(slice.q_begin) + ", +" +
                       std::to_string(slice.q_count) +
                       ") does not fit the current tile grid");
      return;
    }
    if (fit == SliceFit::kComplete) {
      if (out.committed[target]) return;  // duplicate across journals
      out.committed[target] = 1;
      out.results[target].profile = std::move(slice.profile);
      out.results[target].index = std::move(slice.index);
      out.results[target].qt = std::move(slice.qt);
      out.results[target].prefilter = slice.prefilter;
      out.executed_device[target] = int(slice.device);
      out.final_mode[target] = slice.mode;
      out.resumed += 1;
      return;
    }
    // Row prefix: only usable at the run's base precision and without
    // the prefilter, and only with its QT row — the tail attempt
    // continues the recurrence from exactly that state.  The reader
    // admits an empty or an exactly sized row; a prefix without one (a
    // CPU-fallback, split or corrupted-input tile) is recomputed from
    // row 0.
    if (slice.mode != config.mode || config.prefilter.enabled()) {
      note_discard(int(slice.tile_id), int(slice.device),
                   "row prefix at " + to_string(slice.mode) +
                       " is not restorable under this configuration");
    } else if (slice.qt.size() != std::size_t(slice.q_count) *
                                      std::size_t(slice.dims) *
                                      storage_bytes(slice.mode)) {
      note_discard(int(slice.tile_id), int(slice.device),
                   "row prefix carries no QT row (CPU-fallback, split or "
                   "corrupted-input tile); recomputed from row 0");
    } else if (slice.r_count > out.prefixes[target].r_count) {
      out.prefixes[target] = std::move(slice);  // keep the furthest prefix
    }
  };

  // The base journal (the one-node segment or a multi-node run's event
  // log, node -1 here) carries the prior run's event history; node
  // segments only add slices.  Each file is streamed record by record.
  std::string base_missing;
  bool any_read = false;
  for (int node = -1; node < kMaxNodeJournals; ++node) {
    const std::string path = journal_segment_path(resume_path, node);
    const std::string then = node < 0 ? "starting fresh" : "ignoring it";
    std::optional<JournalReader> reader;
    try {
      reader.emplace(path);
    } catch (const CheckpointError& e) {
      // Absent node segments are the norm: a run with fewer nodes simply
      // wrote fewer of them.
      if (e.reason() != CheckpointError::Reason::kMissing) {
        note_fallback("journal '" + path + "' is unreadable (" + e.what() +
                      "), " + then);
      } else if (node < 0) {
        base_missing = e.what();
      }
      continue;
    }
    if (reader->fingerprint() != fingerprint) {
      note_fallback("journal '" + path +
                    "' was written for different inputs or configuration "
                    "(fingerprint mismatch), " + then);
      continue;
    }
    any_read = true;
    try {
      for (;;) {
        const JournalReader::Record record = reader->next();
        if (record == JournalReader::Record::kEnd) break;
        if (record == JournalReader::Record::kSlice) {
          restore_slice(reader->slice());
        } else if (node < 0) {
          for (RunEvent& event : reader->events()) {
            out.events.push_back(std::move(event));
          }
        }
      }
    } catch (const CheckpointError& e) {
      // A torn or corrupt record ends this file's log; the records
      // before it stand.
      note_discard(-1, -1,
                   std::string(e.what()) + "; its first " +
                       std::to_string(reader->records()) +
                       " record(s) are used");
    }
    if (node < 0) out.base_events = out.events.size();
    out.journal_prefixes[path] = reader->valid_bytes();
  }
  if (!base_missing.empty() && !any_read) {
    note_fallback("journal '" + resume_path + "' is missing (" +
                  base_missing + "), starting fresh");
  }

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (out.committed[t]) {
      out.prefixes[t] = CheckpointSlice{};  // complete restore supersedes
      continue;
    }
    if (out.prefixes[t].r_count == 0) continue;
    out.partial += 1;
    notes.push_back(
        {RunEvent::Kind::kSliceRestored, tiles[t].id,
         int(out.prefixes[t].device),
         "rows [0, +" + std::to_string(out.prefixes[t].r_count) + ") of " +
             std::to_string(tiles[t].r_count) +
             " restored; tail resumes from the journalled QT row"});
  }
  out.events.insert(out.events.end(), std::make_move_iterator(notes.begin()),
                    std::make_move_iterator(notes.end()));
  return out;
}

MatrixProfileResult assemble_tile_results(const std::vector<Tile>& tiles,
                                          std::vector<TileResult>& results,
                                          std::size_t n_q, std::size_t d,
                                          std::size_t workers) {
  // ---- CPU merge (Pseudocode 2, lines 6-8). ----
  // Parallel over output columns; bit-identical to the serial merge (each
  // column sees the tiles in the same ascending order).
  MatrixProfileResult out;
  {
    ScopedEvent span(MetricsRegistry::global(), "merge_tile_results", -1,
                     "cpu");
    ThreadPool merge_pool(workers);
    merge_tile_results(tiles, results, n_q, d, out, &merge_pool);
  }

  // ---- Per-kernel breakdown (successful attempts only). ----
  gpusim::KernelLedger merged;
  for (const auto& r : results) merged.merge_from(r.ledger);
  for (const auto& [name, stats] : merged.all()) {
    out.breakdown.push_back(KernelBreakdownEntry{
        name, stats.launches, stats.modeled_seconds, stats.measured_seconds});
  }
  // Per-kernel accounting in the registry: measured wall seconds next to
  // the roofline-modelled seconds of the same launches (registration cost
  // only here, at end of run; nothing when the registry is disabled).
  if (MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    for (const auto& entry : out.breakdown) {
      reg.counter("kernel." + entry.name + ".launches")
          .add(std::uint64_t(entry.launches));
      reg.gauge("kernel." + entry.name + ".wall_seconds")
          .set(entry.measured_seconds);
      reg.gauge("kernel." + entry.name + ".modeled_seconds")
          .set(entry.modeled_seconds);
    }
  }

  // ---- Prefilter accounting (sketch runs only; exact runs stay all-zero
  // and emit nothing).  Stats survive retries, sub-tile splits, checkpoint
  // resume and the CPU fallback because every path above fills or merges
  // the per-tile PrefilterStats it commits.
  for (const auto& r : results) out.prefilter.merge_from(r.prefilter);
  if (out.prefilter.any() && MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("prefilter.blocks_total").add(out.prefilter.blocks_total);
    reg.counter("prefilter.blocks_skipped")
        .add(out.prefilter.blocks_skipped);
    reg.counter("prefilter.blocks_verified")
        .add(out.prefilter.blocks_verified);
    reg.counter("prefilter.cols_skipped").add(out.prefilter.cols_skipped);
    reg.counter("prefilter.cols_verified").add(out.prefilter.cols_verified);
    reg.counter("prefilter.cols_missed").add(out.prefilter.cols_missed);
    reg.gauge("prefilter.miss_rate")
        .set(out.prefilter.cols_verified == 0
                 ? 0.0
                 : double(out.prefilter.cols_missed) /
                       double(out.prefilter.cols_verified));
  }
  return out;
}

void compute_tile_on_cpu(const TimeSeries& reference, const TimeSeries& query,
                         std::size_t window, const Tile& tile,
                         std::int64_t exclusion, TileResult& result) {
  const TimeSeries sub_ref = reference.slice(tile.r_begin,
                                             tile.r_count + window - 1);
  const TimeSeries sub_query = query.slice(tile.q_begin,
                                           tile.q_count + window - 1);
  CpuReferenceConfig cc;
  cc.window = window;
  cc.exclusion = exclusion;
  cc.r_offset = std::int64_t(tile.r_begin);
  cc.q_offset = std::int64_t(tile.q_begin);
  const CpuReferenceResult cpu =
      compute_matrix_profile_cpu(sub_ref, sub_query, cc);
  result.profile = cpu.profile;
  result.qt.clear();  // the CPU reference runs no reduced-precision QT row
  result.ledger.reset();
  result.prefilter = {};  // the CPU fallback always runs every column exact
  result.index.resize(cpu.index.size());
  for (std::size_t e = 0; e < cpu.index.size(); ++e) {
    // Local reference rows become global segment indices.
    result.index[e] =
        cpu.index[e] < 0 ? -1 : cpu.index[e] + std::int64_t(tile.r_begin);
  }
}

void CommittedTiles::reset(std::size_t tiles, PrecisionMode mode) {
  committed.assign(tiles, 0);
  results = std::vector<TileResult>(tiles);
  executed_device.assign(tiles, -1);
  final_mode.assign(tiles, mode);
}

void CommittedTiles::commit(std::size_t t, TileResult& result, int device,
                            PrecisionMode mode) {
  TileResult& slot = results[t];
  slot.profile = std::move(result.profile);
  slot.index = std::move(result.index);
  slot.qt = std::move(result.qt);
  slot.ledger.reset();
  slot.ledger.merge_from(result.ledger);
  slot.prefilter = result.prefilter;
  committed[t] = 1;
  executed_device[t] = device;
  final_mode[t] = mode;
}

void add_committed_slice(JournalWriter& journal, const RunInputs& run,
                         const CommittedTiles& done, std::size_t t) {
  const Tile& tile = (*run.tiles)[t];
  const int device = done.executed_device[t];
  const TileResult& result = done.results[t];
  journal.add_slice(
      {.tile_index = t, .tile_id = std::int32_t(tile.id),
       .device = std::int32_t(device),
       .node = run.config->nodes > 1 && device >= 0
                   ? std::int32_t(device / run.config->devices)
                   : -1,
       .mode = done.final_mode[t], .r_begin = tile.r_begin,
       .r_count = tile.r_count, .q_begin = tile.q_begin,
       .q_count = tile.q_count, .dims = run.reference->dims(),
       .profile = {}, .index = {}, .qt = {}, .prefilter = result.prefilter},
      result.profile, result.index, result.qt);
}

RunEvent compact_journal(const RunInputs& run, const CommittedTiles& done,
                         const std::vector<RunEvent>& events) {
  const std::string& path = run.config->checkpoint.write_path;
  const std::size_t tiles = run.tiles->size();
  JournalWriter journal(path + ".tmp", run.fingerprint, tiles);
  std::size_t complete = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    if (!done.committed[t]) continue;
    add_committed_slice(journal, run, done, t);
    journal.write();  // one record at a time: no copy of every result
    complete += 1;
  }
  journal.add_events(events);
  journal.write();
  journal.commit(path);
  // The complete journal supersedes every node segment of the path.
  for (int node = 0; node < kMaxNodeJournals; ++node) {
    ::unlink(journal_segment_path(path, node).c_str());
  }
  return {RunEvent::Kind::kCheckpointWritten, -1, -1,
          "compacted " + std::to_string(complete) + "/" +
              std::to_string(tiles) + " tiles -> " + path};
}

}  // namespace mpsim::mp
