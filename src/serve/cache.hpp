// Cross-query caches of the serve daemon.
//
// Three layers, each keyed so a repeated query does strictly less work
// than the first one:
//
//   * series   — CSV path → parsed TimeSeries.  Entries remember the
//                file's (size, mtime) and reload when the file changed,
//                so a daemon never serves stale bytes after an input is
//                rewritten.
//   * inputs   — (reference path, query path) → a pinned pair of series
//                plus one mp::StagingCache bound to them.  Passing that
//                cache into the run (config.staging_cache) makes the
//                reduced-precision conversion a once-per-input cost
//                instead of once-per-query; retried, escalated and
//                repeated queries all reuse the staged bytes.
//   * profiles — profile_cache_key(reference, query, config) → the
//                completed profile, rendered once as its response payload
//                (the profile CSV).  The key covers the raw series bytes
//                and every output-affecting config knob, so a hit is
//                byte-identical to recomputing by construction, and it
//                costs no rendering.
//
// All lookups are counted in the global MetricsRegistry
// (serve.*_cache.hits / .misses) and every map is bounded with FIFO
// eviction — the daemon's footprint cannot grow without bound under
// many-tenant traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "mp/options.hpp"
#include "mp/staging.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::serve {

/// One cached (reference, query) working set.  `staging` is bound to the
/// two owned series; runs against this input must pass exactly these
/// series objects together with `&staging`.
struct CachedInput {
  std::shared_ptr<const TimeSeries> reference;
  std::shared_ptr<const TimeSeries> query;  ///< == reference for self-joins
  mp::StagingCache staging;

  CachedInput(std::shared_ptr<const TimeSeries> ref,
              std::shared_ptr<const TimeSeries> q)
      : reference(std::move(ref)),
        query(std::move(q)),
        staging(*reference, *query) {}
};

/// A completed profile as a query response carries it: the rendered
/// profile CSV (byte-identical to `mpsim_cli --output`) and its shape.
struct CachedProfile {
  std::string csv;
  std::size_t segments = 0;
  std::size_t dims = 0;
};

/// Entry caps of each cache layer (FIFO eviction beyond them).
struct CacheLimits {
  std::size_t max_series = 32;
  std::size_t max_inputs = 16;
  std::size_t max_profiles = 64;
};

class ServeCache {
 public:
  using Limits = CacheLimits;

  explicit ServeCache(Limits limits = Limits()) : limits_(limits) {}

  /// Loads (or returns the cached) series at `path`; reloads when the
  /// file's size or mtime changed.  Throws Error when unreadable.
  std::shared_ptr<const TimeSeries> series(const std::string& path);

  /// The pinned working set for a (reference, query) pair; `query_path`
  /// empty means self-join (query aliases reference).  The entry is
  /// rebuilt when either underlying series was reloaded.
  std::shared_ptr<CachedInput> input(const std::string& reference_path,
                                     const std::string& query_path);

  /// Completed-profile lookup/insert by profile_cache_key.
  std::shared_ptr<const CachedProfile> find_profile(std::uint64_t key);
  void store_profile(std::uint64_t key,
                     std::shared_ptr<const CachedProfile> profile);

 private:
  struct SeriesEntry {
    std::shared_ptr<const TimeSeries> series;
    std::int64_t size = -1;
    std::int64_t mtime_ns = -1;
  };
  struct InputEntry {
    std::shared_ptr<CachedInput> input;
    // Identity of the series the staging cache was built against; a
    // reload (file change) invalidates the entry.
    const TimeSeries* reference_identity = nullptr;
    const TimeSeries* query_identity = nullptr;
  };

  template <typename Map>
  static void evict_oldest(Map& map, std::deque<typename Map::key_type>& fifo,
                           std::size_t cap);

  Limits limits_;
  std::mutex mutex_;
  std::map<std::string, SeriesEntry> series_;
  std::deque<std::string> series_fifo_;
  std::map<std::pair<std::string, std::string>, InputEntry> inputs_;
  std::deque<std::pair<std::string, std::string>> inputs_fifo_;
  std::map<std::uint64_t, std::shared_ptr<const CachedProfile>> profiles_;
  std::deque<std::uint64_t> profiles_fifo_;
};

}  // namespace mpsim::serve
