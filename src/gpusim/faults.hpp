// Deterministic fault injection for the simulated GPU substrate.
//
// A FaultInjector is attached to the Devices of a System (see
// Device::attach_fault_injector) and fires faults at well-defined sites:
//
//  * kernel-launch failures   — a TransientFaultError thrown at the start
//    of a kernel launch (the CUDA analogue of a sporadic launch error),
//  * copy failures            — a TransientFaultError thrown by an
//    h2d/d2h transfer,
//  * permanent device loss    — a DeviceFailedError; once a device has
//    gone offline every subsequent launch/copy on it fails too,
//  * value corruption         — NaN poisoning or bit flips applied to the
//    staged (reduced-precision) input buffers of a tile, modelling FP16
//    overflow and memory corruption,
//  * hangs and slowdowns      — the kernel-launch event stalls in a
//    cancellable sleep (`ms` long; a hang defaults to effectively forever,
//    a slowdown to a short stutter) and then proceeds *successfully*.
//    Nothing throws, so only a liveness mechanism — the resilient
//    scheduler's deadline watchdog — can detect it; cancelling the
//    attempt's CancellationToken unwinds the sleeper with CancelledError.
//
// Rules trigger either at exact per-device event counts (`at`, `every` —
// fully deterministic, used by the fault-tolerance tests) or with a seeded
// per-event probability (`probability` — deterministic for a fixed thread
// interleaving).  Every injected fault is recorded and exposed through
// events(), which the resilient scheduler folds into its RunHealth report.
//
// The textual spec accepted by parse_fault_spec (the CLI's --faults= flag)
// is a comma-separated list of clauses:
//
//   seed=S
//   kind[@device][:key=value]...
//
// with kind in {kernel, copy, offline, nan, bitflip, hang, slow,
// node_crash, node_stall, node_slow}, device an integer (default: any
// device), and keys at=N, every=N, p=P, frac=F, ms=D (hang/slow stall
// duration in milliseconds).  Example:
//
//   --faults=seed=7,kernel@0:at=5,offline@1:at=12,nan@0:at=1:frac=0.05
//   --faults=hang@0:at=3:ms=60000,slow@1:p=0.01:ms=50
//
// The node_* kinds fire at the coordinator's per-node kNodeTile site (the
// "@device" selector addresses a *node* there, and `at`/`every` count
// the tiles dealt to the node, in grid order, see plan()): node_crash
// throws NodeFailedError and takes the whole simulated node down,
// node_stall and node_slow stall the node's tile start in the same
// cancellable sleep as hang/slow.  They are used with
// --node-faults=, whose injector is separate from the per-device one.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mpsim::gpusim {

class CancellationToken;

/// Where in the execution a fault hook is being evaluated.
enum class FaultSite : int {
  kKernelLaunch,
  kCopyH2D,
  kCopyD2H,
  kStaging,
  kNodeTile,  ///< a node is about to start executing a tile (coordinator)
};

/// What kind of fault a rule injects.
enum class FaultKind : int {
  kKernelLaunch,  ///< transient kernel-launch failure
  kCopy,          ///< transient h2d/d2h copy failure
  kDeviceOffline, ///< permanent device loss (fires on a kernel-launch event)
  kNaNPoison,     ///< overwrite staged values with quiet NaNs
  kBitFlip,       ///< flip one random bit per selected staged value
  kHang,          ///< kernel-launch stalls (cancellable sleep), then proceeds
  kSlowdown,      ///< kernel-launch stutters briefly, then proceeds
  kNodeCrash,     ///< whole-node loss (throws NodeFailedError at kNodeTile)
  kNodeStall,     ///< node stalls ~forever before a tile (cancellable sleep)
  kNodeSlow,      ///< node stutters briefly before a tile, then proceeds
};

std::string to_string(FaultKind kind);

/// One injection rule.  Event counters are kept per (site class, device);
/// a rule fires when its trigger matches the counter value (`at` is
/// 1-based, `every` fires on every multiple) or its seeded coin comes up.
struct FaultRule {
  FaultKind kind = FaultKind::kKernelLaunch;
  int device = -1;             ///< target device index, -1 = any
  std::uint64_t at = 0;        ///< fire on exactly the Nth matching event
  std::uint64_t every = 0;     ///< fire on every Nth matching event
  double probability = 0.0;    ///< seeded per-event probability
  double fraction = 0.0;       ///< corruption: fraction of elements hit
  double delay_ms = -1.0;      ///< hang/slow stall (<0 = kind's default)
};

/// A fault that actually fired.
struct FaultEvent {
  FaultKind kind = FaultKind::kKernelLaunch;
  int device = -1;
  std::string site;            ///< kernel name / copy direction / "staging"
  std::uint64_t sequence = 0;  ///< per-device event count when it fired
  std::size_t corrupted = 0;   ///< elements poisoned (corruption only)
};

/// Parsed form of a --faults= specification.
struct FaultSpec {
  std::uint64_t seed = 0x5eedfa17ULL;
  std::vector<FaultRule> rules;
};

/// Parses the textual fault spec described above; throws ConfigError on
/// malformed input.
FaultSpec parse_fault_spec(const std::string& spec);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5eedfa17ULL);

  void add_rule(const FaultRule& rule);
  void configure(const FaultSpec& spec);
  void configure(const std::string& spec) { configure(parse_fault_spec(spec)); }

  /// Hook called by kernel launches and copies when their work executes.
  /// Throws DeviceFailedError if `device` is offline (or goes offline on
  /// this event) and TransientFaultError when a transient rule fires.
  /// A matching hang/slowdown rule stalls in a cancellable sleep (outside
  /// the injector lock, so only this attempt blocks) and then returns
  /// normally; when `cancel` flips mid-stall the sleeper unwinds with
  /// CancelledError.
  void fire(FaultSite site, int device, const std::string& detail,
            const CancellationToken* cancel = nullptr);

  /// Decides, without firing anything, which rule (if any) matches the
  /// `sequence`-th event at `site` on `device` — for callers that fix
  /// the event order up front instead of counting live events.  The
  /// coordinator plans node faults this way over each node's deal order,
  /// so they fire the same under any thread interleaving (probability
  /// rules draw from the seeded stream in plan order).
  std::optional<FaultRule> plan(FaultSite site, int device,
                                std::uint64_t sequence);

  /// Fires `rule` (as returned by plan) for the `sequence`-th event on
  /// `device`: records it, then throws or stalls exactly as fire() does.
  void inject(const FaultRule& rule, int device, const std::string& detail,
              std::uint64_t sequence,
              const CancellationToken* cancel = nullptr);

  /// Applies any matching corruption rule to a staged buffer; returns the
  /// number of elements corrupted.  T must be trivially copyable (all the
  /// storage formats are).
  template <typename T>
  std::size_t corrupt_span(int device, T* data, std::size_t count) {
    const CorruptionPlan plan = plan_corruption(device, count);
    for (std::size_t idx = 0; idx < plan.indices.size(); ++idx) {
      const std::size_t e = plan.indices[idx];
      if (plan.kind == FaultKind::kNaNPoison) {
        data[e] = T(std::numeric_limits<double>::quiet_NaN());
      } else {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &data[e], sizeof(T));
        const std::size_t bit = plan.bits[idx] % (8 * sizeof(T));
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        std::memcpy(&data[e], bytes, sizeof(T));
      }
    }
    return plan.indices.size();
  }

  bool device_offline(int device) const;

  /// Snapshot of every fault fired so far (thread-safe copy).
  std::vector<FaultEvent> events() const;
  std::size_t fault_count() const;

 private:
  struct CorruptionPlan {
    FaultKind kind = FaultKind::kNaNPoison;
    std::vector<std::size_t> indices;  ///< elements to corrupt
    std::vector<std::size_t> bits;     ///< bit choice per element (bit flips)
  };

  /// Decides (under the lock, with the seeded Rng) which elements of a
  /// staged span get corrupted; empty plan = no rule fired.
  CorruptionPlan plan_corruption(int device, std::size_t count);

  static int site_class(FaultSite site);
  bool rule_fires(const FaultRule& rule, std::uint64_t sequence);
  /// First rule of site class `cls` firing at `sequence` (lock held).
  std::optional<FaultRule> match_locked(int cls, int device,
                                        std::uint64_t sequence);
  /// Records a fired rule, then throws its error — or returns the stall
  /// in milliseconds for the hang/slow kinds (lock held).
  double record_locked(const FaultRule& rule, int device,
                       const std::string& detail, std::uint64_t sequence);
  /// Cancellable sleep of a fired hang/slow rule.
  static void stall(double ms, int device, const std::string& detail,
                    const CancellationToken* cancel);

  mutable std::mutex mutex_;
  Rng rng_;
  std::vector<FaultRule> rules_;
  std::vector<FaultEvent> events_;
  // Per (site class, device) event counters; device -1 never occurs here.
  std::vector<std::vector<std::uint64_t>> counters_;
  std::set<int> offline_;
};

}  // namespace mpsim::gpusim
