// Execution-timeline tracing shared by the modelled schedule and the
// runtime observability layer.
//
// A Timeline keeps individual intervals — which device, which engine lane
// (compute or copy), when — and serialises them in the Chrome tracing
// format (chrome://tracing, Perfetto, speedscope all read it), the
// standard way GPU schedules are inspected.  Two producers fill one:
// mp::model_timeline() builds a *modelled* schedule without executing
// anything, and MetricsRegistry (common/metrics.hpp) records *measured*
// wall-clock events from real runs — both serialize to the same JSON, so
// the two can be compared side by side in the same viewer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpsim {

struct TraceEvent {
  std::string name;     ///< e.g. "tile 3 dist_calc"
  int device = 0;       ///< pid in the trace
  std::string lane;     ///< tid: "compute" or "copy"
  double start_seconds = 0.0;
  double duration_seconds = 0.0;

  double end_seconds() const { return start_seconds + duration_seconds; }
};

class Timeline {
 public:
  void add(TraceEvent event);

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Latest event end across all devices and lanes.
  double makespan_seconds() const;

  /// End of the last event on one device's lane (0 if none).
  double lane_end_seconds(int device, const std::string& lane) const;

  /// Chrome tracing JSON (an array of "X" complete events; timestamps in
  /// microseconds as the format requires).
  std::string to_chrome_json() const;

  /// Writes the JSON to a file; throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace mpsim
