#include "gpusim/faults.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/metrics.hpp"
#include "gpusim/cancel.hpp"

namespace mpsim::gpusim {

namespace {

constexpr int kSiteClassCount = 4;  // kernel, copy, staging, node

/// Counts every fault that actually fired, by kind, in the global metrics
/// registry (alongside the FaultInjector's own event list, which carries
/// the full detail).
void count_fault(FaultKind kind, std::size_t corrupted_elements) {
  struct FaultMetrics {
    Counter& injected;
    Counter& kernel;
    Counter& copy;
    Counter& offline;
    Counter& corruption;
    Counter& corrupted_elements;
    Counter& hangs;
    Counter& slowdowns;
    Counter& node_crashes;
    Counter& node_stalls;

    static FaultMetrics& get() {
      auto& reg = MetricsRegistry::global();
      static FaultMetrics m{reg.counter("faults.injected"),
                            reg.counter("faults.kernel_launch"),
                            reg.counter("faults.copy"),
                            reg.counter("faults.device_offline"),
                            reg.counter("faults.corruption"),
                            reg.counter("faults.corrupted_elements"),
                            reg.counter("faults.hangs"),
                            reg.counter("faults.slowdowns"),
                            reg.counter("faults.node_crashes"),
                            reg.counter("faults.node_stalls")};
      return m;
    }
  };
  FaultMetrics& m = FaultMetrics::get();
  m.injected.add();
  switch (kind) {
    case FaultKind::kKernelLaunch: m.kernel.add(); break;
    case FaultKind::kCopy: m.copy.add(); break;
    case FaultKind::kDeviceOffline: m.offline.add(); break;
    case FaultKind::kNaNPoison:
    case FaultKind::kBitFlip:
      m.corruption.add();
      m.corrupted_elements.add(corrupted_elements);
      break;
    case FaultKind::kHang: m.hangs.add(); break;
    case FaultKind::kSlowdown: m.slowdowns.add(); break;
    case FaultKind::kNodeCrash: m.node_crashes.add(); break;
    case FaultKind::kNodeStall:
    case FaultKind::kNodeSlow: m.node_stalls.add(); break;
  }
}

FaultKind parse_kind(const std::string& word) {
  if (word == "kernel") return FaultKind::kKernelLaunch;
  if (word == "copy") return FaultKind::kCopy;
  if (word == "offline") return FaultKind::kDeviceOffline;
  if (word == "nan") return FaultKind::kNaNPoison;
  if (word == "bitflip") return FaultKind::kBitFlip;
  if (word == "hang") return FaultKind::kHang;
  if (word == "slow") return FaultKind::kSlowdown;
  if (word == "node_crash") return FaultKind::kNodeCrash;
  if (word == "node_stall") return FaultKind::kNodeStall;
  if (word == "node_slow") return FaultKind::kNodeSlow;
  throw ConfigError("unknown fault kind '" + word +
                    "' (expected kernel|copy|offline|nan|bitflip|hang|slow|"
                    "node_crash|node_stall|node_slow)");
}

/// Stall a matching hang/slowdown rule injects, in milliseconds.  A hang
/// defaults to "forever" on the scale of any test or run (the watchdog or
/// a cancellation is the only way out); a slowdown to a visible stutter.
double rule_delay_ms(const FaultRule& rule) {
  if (rule.delay_ms >= 0.0) return rule.delay_ms;
  if (rule.kind == FaultKind::kHang || rule.kind == FaultKind::kNodeStall) {
    return 3600e3;
  }
  return 100.0;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw ConfigError("fault spec: '" + text + "' is not a valid " + what);
  }
  return value;
}

double parse_real(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw ConfigError("fault spec: '" + text + "' is not a valid " + what);
  }
  return value;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKernelLaunch: return "kernel-launch";
    case FaultKind::kCopy: return "copy";
    case FaultKind::kDeviceOffline: return "device-offline";
    case FaultKind::kNaNPoison: return "nan-poison";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kHang: return "hang";
    case FaultKind::kSlowdown: return "slowdown";
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kNodeStall: return "node-stall";
    case FaultKind::kNodeSlow: return "node-slow";
  }
  return "unknown";
}

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec parsed;
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty()) continue;
    const auto fields = split(clause, ':');
    // Bare `seed=S` clause.
    if (fields.size() == 1 && fields[0].rfind("seed=", 0) == 0) {
      parsed.seed = parse_u64(fields[0].substr(5), "seed");
      continue;
    }
    FaultRule rule;
    std::string head = fields[0];
    const auto amp = head.find('@');
    if (amp != std::string::npos) {
      const std::string dev = head.substr(amp + 1);
      if (dev != "*") rule.device = int(parse_u64(dev, "device index"));
      head = head.substr(0, amp);
    }
    rule.kind = parse_kind(head);
    for (std::size_t f = 1; f < fields.size(); ++f) {
      const auto eq = fields[f].find('=');
      MPSIM_CHECK(eq != std::string::npos,
                  "fault option '" << fields[f] << "' is not key=value");
      const std::string key = fields[f].substr(0, eq);
      const std::string value = fields[f].substr(eq + 1);
      if (key == "at") {
        rule.at = parse_u64(value, "event count");
      } else if (key == "every") {
        rule.every = parse_u64(value, "event count");
      } else if (key == "p") {
        rule.probability = parse_real(value, "probability");
      } else if (key == "frac") {
        rule.fraction = parse_real(value, "fraction");
      } else if (key == "ms") {
        rule.delay_ms = parse_real(value, "delay in milliseconds");
      } else {
        throw ConfigError("unknown fault option '" + key +
                          "' (expected at|every|p|frac|ms)");
      }
    }
    if (rule.at == 0 && rule.every == 0 && rule.probability <= 0.0) {
      throw ConfigError("fault clause '" + clause +
                        "' has no trigger (use at=, every= or p=)");
    }
    if (rule.kind == FaultKind::kDeviceOffline && rule.device < 0) {
      throw ConfigError("offline fault needs a target device (offline@N)");
    }
    parsed.rules.push_back(rule);
  }
  return parsed;
}

FaultInjector::FaultInjector(std::uint64_t seed)
    : rng_(seed), counters_(kSiteClassCount) {}

void FaultInjector::add_rule(const FaultRule& rule) {
  std::lock_guard lock(mutex_);
  rules_.push_back(rule);
}

void FaultInjector::configure(const FaultSpec& spec) {
  std::lock_guard lock(mutex_);
  rng_.reseed(spec.seed);
  rules_.insert(rules_.end(), spec.rules.begin(), spec.rules.end());
}

int FaultInjector::site_class(FaultSite site) {
  switch (site) {
    case FaultSite::kKernelLaunch: return 0;
    case FaultSite::kCopyH2D:
    case FaultSite::kCopyD2H: return 1;
    case FaultSite::kStaging: return 2;
    case FaultSite::kNodeTile: return 3;
  }
  return 0;
}

bool FaultInjector::rule_fires(const FaultRule& rule, std::uint64_t sequence) {
  if (rule.at != 0 && sequence == rule.at) return true;
  if (rule.every != 0 && sequence % rule.every == 0) return true;
  if (rule.probability > 0.0 && rng_.uniform() < rule.probability) return true;
  return false;
}

std::optional<FaultRule> FaultInjector::match_locked(int cls, int device,
                                                    std::uint64_t sequence) {
  for (const FaultRule& rule : rules_) {
    if (rule.device >= 0 && rule.device != device) continue;
    const bool kind_matches =
        (cls == 0 && (rule.kind == FaultKind::kKernelLaunch ||
                      rule.kind == FaultKind::kDeviceOffline ||
                      rule.kind == FaultKind::kHang ||
                      rule.kind == FaultKind::kSlowdown)) ||
        (cls == 1 && rule.kind == FaultKind::kCopy) ||
        (cls == 3 && (rule.kind == FaultKind::kNodeCrash ||
                      rule.kind == FaultKind::kNodeStall ||
                      rule.kind == FaultKind::kNodeSlow));
    if (kind_matches && rule_fires(rule, sequence)) return rule;
  }
  return std::nullopt;
}

void FaultInjector::fire(FaultSite site, int device,
                         const std::string& detail,
                         const CancellationToken* cancel) {
  double stall_ms = -1.0;
  {
    std::lock_guard lock(mutex_);
    if (offline_.count(device) != 0) {
      throw DeviceFailedError("device " + std::to_string(device) +
                              " is offline (injected fault)");
    }
    auto& per_device = counters_[std::size_t(site_class(site))];
    if (per_device.size() <= std::size_t(device)) {
      per_device.resize(std::size_t(device) + 1, 0);
    }
    const std::uint64_t n = ++per_device[std::size_t(device)];
    const std::optional<FaultRule> rule =
        match_locked(site_class(site), device, n);
    if (!rule) return;
    stall_ms = record_locked(*rule, device, detail, n);
  }
  stall(stall_ms, device, detail, cancel);
}

std::optional<FaultRule> FaultInjector::plan(FaultSite site, int device,
                                             std::uint64_t sequence) {
  std::lock_guard lock(mutex_);
  return match_locked(site_class(site), device, sequence);
}

void FaultInjector::inject(const FaultRule& rule, int device,
                           const std::string& detail, std::uint64_t sequence,
                           const CancellationToken* cancel) {
  double stall_ms = -1.0;
  {
    std::lock_guard lock(mutex_);
    stall_ms = record_locked(rule, device, detail, sequence);
  }
  stall(stall_ms, device, detail, cancel);
}

double FaultInjector::record_locked(const FaultRule& rule, int device,
                                    const std::string& detail,
                                    std::uint64_t sequence) {
  events_.push_back(FaultEvent{rule.kind, device, detail, sequence, 0});
  count_fault(rule.kind, 0);
  const std::string at =
      " at " + detail + " (event " + std::to_string(sequence) + ")";
  switch (rule.kind) {
    case FaultKind::kDeviceOffline:
      offline_.insert(device);
      throw DeviceFailedError("device " + std::to_string(device) +
                              " went offline" + at);
    case FaultKind::kNodeCrash:  // `device` is a node id here
      throw NodeFailedError("node " + std::to_string(device) + " crashed" +
                            at);
    case FaultKind::kHang:
    case FaultKind::kSlowdown:
    case FaultKind::kNodeStall:
    case FaultKind::kNodeSlow:
      return rule_delay_ms(rule);
    default:
      throw TransientFaultError("injected " + to_string(rule.kind) +
                                " fault on device " + std::to_string(device) +
                                at);
  }
}

void FaultInjector::stall(double ms, int device, const std::string& detail,
                          const CancellationToken* cancel) {
  // Cancellable stall, outside the injector lock (a hang must pin only
  // this attempt, not every other device's fault points).  Nothing fails
  // here — the launch just takes `ms` longer, which only a deadline
  // watchdog can notice.  Poll the token so a cancelled attempt unwinds
  // within one poll period.
  using clock = std::chrono::steady_clock;
  const auto until =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  constexpr auto kPoll = std::chrono::milliseconds(2);
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) {
      throw CancelledError("injected stall at " + detail +
                           " on device " + std::to_string(device) +
                           " cancelled");
    }
    const auto now = clock::now();
    if (now >= until) break;
    std::this_thread::sleep_for(std::min<clock::duration>(kPoll, until - now));
  }
}

FaultInjector::CorruptionPlan FaultInjector::plan_corruption(
    int device, std::size_t count) {
  CorruptionPlan plan;
  if (count == 0) return plan;
  std::unique_lock lock(mutex_);
  if (offline_.count(device) != 0) return plan;
  auto& per_device = counters_[std::size_t(site_class(FaultSite::kStaging))];
  if (per_device.size() <= std::size_t(device)) {
    per_device.resize(std::size_t(device) + 1, 0);
  }
  const std::uint64_t n = ++per_device[std::size_t(device)];

  for (const FaultRule& rule : rules_) {
    if (rule.device >= 0 && rule.device != device) continue;
    if (rule.kind != FaultKind::kNaNPoison && rule.kind != FaultKind::kBitFlip)
      continue;
    if (!rule_fires(rule, n)) continue;

    plan.kind = rule.kind;
    const double fraction = rule.fraction > 0.0 ? rule.fraction : 0.0;
    std::size_t hits = fraction > 0.0
                           ? std::size_t(double(count) * fraction)
                           : 1;
    hits = std::max<std::size_t>(1, std::min(hits, count));
    std::set<std::size_t> chosen;
    while (chosen.size() < hits) {
      chosen.insert(std::size_t(rng_.uniform_index(count)));
    }
    plan.indices.assign(chosen.begin(), chosen.end());
    plan.bits.reserve(plan.indices.size());
    for (std::size_t i = 0; i < plan.indices.size(); ++i) {
      plan.bits.push_back(std::size_t(rng_.uniform_index(64)));
    }
    events_.push_back(
        FaultEvent{rule.kind, device, "staging", n, plan.indices.size()});
    count_fault(rule.kind, plan.indices.size());
    return plan;  // first matching rule wins for this event
  }
  return plan;
}

bool FaultInjector::device_offline(int device) const {
  std::lock_guard lock(mutex_);
  return offline_.count(device) != 0;
}

std::vector<FaultEvent> FaultInjector::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::size_t FaultInjector::fault_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

}  // namespace mpsim::gpusim
