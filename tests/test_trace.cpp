// Tests for the execution-timeline tracing and the modelled schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/trace.hpp"
#include "mp/model.hpp"

namespace mpsim {
namespace {

TEST(Timeline, TracksLaneEndsAndMakespan) {
  Timeline timeline;
  timeline.add({"a", 0, "compute", 0.0, 1.0});
  timeline.add({"b", 0, "compute", 1.0, 0.5});
  timeline.add({"c", 1, "copy", 0.2, 2.0});
  EXPECT_DOUBLE_EQ(timeline.lane_end_seconds(0, "compute"), 1.5);
  EXPECT_DOUBLE_EQ(timeline.lane_end_seconds(0, "copy"), 0.0);
  EXPECT_DOUBLE_EQ(timeline.lane_end_seconds(1, "copy"), 2.2);
  EXPECT_DOUBLE_EQ(timeline.makespan_seconds(), 2.2);
}

TEST(Timeline, ChromeJsonIsWellFormed) {
  Timeline timeline;
  timeline.add({"kernel", 2, "compute", 0.001, 0.002});
  const auto json = timeline.to_chrome_json();
  EXPECT_NE(json.find("\"name\": \"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000"), std::string::npos);   // microseconds
  EXPECT_NE(json.find("\"dur\": 2000"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(Timeline, EscapesQuotesBackslashesAndControlCharsInNames) {
  // Regression: event names/lanes used to be interpolated verbatim, so a
  // quote or backslash produced an invalid Chrome-trace document.
  Timeline timeline;
  timeline.add({"tile \"3\" dist\\calc\nline", 0, "lane\"q", 0.0, 1.0});
  const auto json = timeline.to_chrome_json();
  EXPECT_NE(json.find("tile \\\"3\\\" dist\\\\calc\\nline"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tid\": \"lane\\\"q\""), std::string::npos) << json;
  // No raw quote survives inside the name value.
  EXPECT_EQ(json.find("\"name\": \"tile \"3\""), std::string::npos) << json;
}

TEST(Timeline, QuoteBearingNamesRoundTripThroughPythonJson) {
  if (std::system("python3 -c 'pass' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  Timeline timeline;
  timeline.add({"evil \"name\" with \\ and \t tab", 1, "copy\\lane", 0.5,
                0.25});
  timeline.add({std::string("nul\x01byte"), 0, "compute", 0.0, 1.0});
  const auto path =
      (std::filesystem::temp_directory_path() / "mpsim_trace_escape.json")
          .string();
  timeline.write_chrome_json(path);
  const std::string check =
      "python3 -c 'import json,sys; events = json.load(open(sys.argv[1])); "
      "assert len(events) == 2, events; "
      "assert events[0][\"name\"].startswith(\"evil \\\"name\\\"\"), events' " +
      path;
  EXPECT_EQ(std::system(check.c_str()), 0);
  std::remove(path.c_str());
}

TEST(Timeline, WritesToFile) {
  Timeline timeline;
  timeline.add({"x", 0, "compute", 0.0, 1.0});
  const auto path =
      (std::filesystem::temp_directory_path() / "mpsim_trace.json").string();
  timeline.write_chrome_json(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"x\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ModelTimeline, LaneEventsNeverOverlap) {
  mp::ModelConfig config;
  config.spec = gpusim::a100();
  config.n_r = config.n_q = 1 << 14;
  config.dims = 16;
  config.window = 64;
  config.tiles = 12;
  config.devices = 3;
  const auto timeline = mp::model_timeline(config);
  ASSERT_FALSE(timeline.empty());

  for (std::size_t a = 0; a < timeline.events().size(); ++a) {
    for (std::size_t b = a + 1; b < timeline.events().size(); ++b) {
      const auto& x = timeline.events()[a];
      const auto& y = timeline.events()[b];
      if (x.device != y.device || x.lane != y.lane) continue;
      const bool disjoint = x.end_seconds() <= y.start_seconds + 1e-12 ||
                            y.end_seconds() <= x.start_seconds + 1e-12;
      EXPECT_TRUE(disjoint) << x.name << " overlaps " << y.name;
    }
  }
}

TEST(ModelTimeline, MakespanConsistentWithModelReport) {
  mp::ModelConfig config;
  config.spec = gpusim::v100();
  config.n_r = config.n_q = 1 << 14;
  config.dims = 32;
  config.window = 64;
  config.tiles = 16;
  config.devices = 4;
  const auto timeline = mp::model_timeline(config);
  const auto report = mp::model_matrix_profile(config);
  // The timeline serialises per-tile dependencies that the coarse model
  // overlaps away, so it can only be slower — and not wildly so.
  EXPECT_GE(timeline.makespan_seconds(),
            report.device_seconds * 0.99);
  EXPECT_LE(timeline.makespan_seconds(),
            (report.device_seconds + report.merge_seconds) * 1.5 + 0.01);
}

TEST(ModelTimeline, UsesAllDevices) {
  mp::ModelConfig config;
  config.spec = gpusim::a100();
  config.n_r = config.n_q = 1 << 13;
  config.dims = 8;
  config.window = 32;
  config.tiles = 8;
  config.devices = 4;
  const auto timeline = mp::model_timeline(config);
  for (int dev = 0; dev < 4; ++dev) {
    EXPECT_GT(timeline.lane_end_seconds(dev, "compute"), 0.0) << dev;
  }
}

}  // namespace
}  // namespace mpsim
