#include "serve/cache.hpp"

#include <sys/stat.h>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "tsdata/io.hpp"

namespace mpsim::serve {

namespace {

struct CacheMetrics {
  Counter& series_hits;
  Counter& series_misses;
  Counter& input_hits;
  Counter& input_misses;
  Counter& profile_hits;
  Counter& profile_misses;

  static CacheMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static CacheMetrics m{reg.counter("serve.series_cache.hits"),
                          reg.counter("serve.series_cache.misses"),
                          reg.counter("serve.input_cache.hits"),
                          reg.counter("serve.input_cache.misses"),
                          reg.counter("serve.profile_cache.hits"),
                          reg.counter("serve.profile_cache.misses")};
    return m;
  }
};

void stat_file(const std::string& path, std::int64_t& size,
               std::int64_t& mtime_ns) {
  struct ::stat st = {};
  MPSIM_CHECK(::stat(path.c_str(), &st) == 0,
              "cannot stat '" << path << "'");
  size = std::int64_t(st.st_size);
  mtime_ns = std::int64_t(st.st_mtim.tv_sec) * 1000000000 +
             std::int64_t(st.st_mtim.tv_nsec);
}

}  // namespace

template <typename Map>
void ServeCache::evict_oldest(Map& map,
                              std::deque<typename Map::key_type>& fifo,
                              std::size_t cap) {
  while (fifo.size() > cap) {
    map.erase(fifo.front());
    fifo.pop_front();
  }
}

std::shared_ptr<const TimeSeries> ServeCache::series(const std::string& path) {
  std::int64_t size = 0, mtime_ns = 0;
  stat_file(path, size, mtime_ns);

  std::lock_guard lock(mutex_);
  auto it = series_.find(path);
  if (it != series_.end() && it->second.size == size &&
      it->second.mtime_ns == mtime_ns) {
    CacheMetrics::get().series_hits.add();
    return it->second.series;
  }
  CacheMetrics::get().series_misses.add();
  SeriesEntry entry;
  entry.series = std::make_shared<const TimeSeries>(read_csv(path));
  entry.size = size;
  entry.mtime_ns = mtime_ns;
  if (it == series_.end()) {
    series_fifo_.push_back(path);
    series_.emplace(path, std::move(entry));
    evict_oldest(series_, series_fifo_, limits_.max_series);
    it = series_.find(path);
  } else {
    it->second = std::move(entry);
  }
  return it->second.series;
}

std::shared_ptr<CachedInput> ServeCache::input(
    const std::string& reference_path, const std::string& query_path) {
  auto reference = series(reference_path);
  auto query = query_path.empty() ? reference : series(query_path);

  std::lock_guard lock(mutex_);
  const auto key = std::make_pair(reference_path, query_path);
  auto it = inputs_.find(key);
  if (it != inputs_.end() &&
      it->second.reference_identity == reference.get() &&
      it->second.query_identity == query.get()) {
    CacheMetrics::get().input_hits.add();
    return it->second.input;
  }
  CacheMetrics::get().input_misses.add();
  InputEntry entry;
  entry.input = std::make_shared<CachedInput>(reference, query);
  entry.reference_identity = reference.get();
  entry.query_identity = query.get();
  if (it == inputs_.end()) {
    inputs_fifo_.push_back(key);
    inputs_.emplace(key, std::move(entry));
    evict_oldest(inputs_, inputs_fifo_, limits_.max_inputs);
    it = inputs_.find(key);
  } else {
    it->second = std::move(entry);
  }
  return it->second.input;
}

std::shared_ptr<const CachedProfile> ServeCache::find_profile(
    std::uint64_t key) {
  std::lock_guard lock(mutex_);
  const auto it = profiles_.find(key);
  if (it == profiles_.end()) {
    CacheMetrics::get().profile_misses.add();
    return nullptr;
  }
  CacheMetrics::get().profile_hits.add();
  return it->second;
}

void ServeCache::store_profile(std::uint64_t key,
                               std::shared_ptr<const CachedProfile> profile) {
  std::lock_guard lock(mutex_);
  if (profiles_.emplace(key, std::move(profile)).second) {
    profiles_fifo_.push_back(key);
    evict_oldest(profiles_, profiles_fifo_, limits_.max_profiles);
  }
}

}  // namespace mpsim::serve
