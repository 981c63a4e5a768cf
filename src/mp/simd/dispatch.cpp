#include "mp/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "precision/float16.hpp"

namespace mpsim::mp::simd {

namespace {

Level probe() {
#ifdef MPSIM_SIMD_X86
  Level level = kScalar;
#if defined(MPSIM_FLOAT16_HW) && defined(__AVX__)
  if (__builtin_cpu_supports("avx") && __builtin_cpu_supports("f16c")) {
    level = kF16C;
  }
#endif
#ifdef MPSIM_SIMD_AVX2
  // The AVX2 tier is a superset of the F16C tier (its merge kernels use
  // the F16C conversions), so it only unlocks on top of it.
  if (level == kF16C && __builtin_cpu_supports("avx2")) level = kAvx2;
#endif
#ifdef MPSIM_SIMD_FP16
  // The native-FP16 kernels chain into the kAvx2-level kernels for their
  // ragged tails, so this tier only unlocks on top of kAvx2.
  if (level == kAvx2 && __builtin_cpu_supports("avx512fp16") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    level = kAvx512Fp16;
  }
#endif
  return level;
#else
  return kScalar;
#endif
}

// -1 = no in-process override: fall back to MPSIM_SIMD, then auto.
std::atomic<int> g_override{-1};

int env_request() {
  static const int value = [] {
    const char* env = std::getenv("MPSIM_SIMD");
    if (env == nullptr || *env == '\0') return -1;
    const std::string name(env);
    if (name == "auto") return -1;
    try {
      return int(parse_level(name));
    } catch (const ConfigError&) {
      return -1;  // unknown env value: behave as auto rather than abort
    }
  }();
  return value;
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case kScalar: return "scalar";
    case kF16C: return "f16c";
    case kAvx2: return "avx2";
    case kAvx512Fp16: return "avx512fp16";
  }
  return "scalar";
}

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kDistCalc: return "dist_calc";
    case Stage::kSortScan: return "sort_scan";
    case Stage::kMerge: return "merge";
    case Stage::kPrecalc: return "precalc";
    case Stage::kGemm: return "gemm";
  }
  return "dist_calc";
}

Level parse_level(const std::string& name) {
  if (name == "scalar") return kScalar;
  if (name == "f16c") return kF16C;
  if (name == "avx2") return kAvx2;
  if (name == "avx512fp16") return kAvx512Fp16;
  throw ConfigError("unknown simd level '" + name +
                    "' (expected auto|scalar|f16c|avx2|avx512fp16)");
}

void apply_option(const std::string& name) {
  if (name == "auto") {
    clear_override();
    return;
  }
  set_override(parse_level(name));
}

Level detected_level() {
  static const Level level = probe();
  return level;
}

Level active_level() {
  int requested = g_override.load(std::memory_order_relaxed);
  if (requested < 0) requested = env_request();
  const Level detected = detected_level();
  if (requested < 0) return detected;
  return requested < int(detected) ? Level(requested) : detected;
}

void set_override(Level level) {
  g_override.store(int(level), std::memory_order_relaxed);
}

void clear_override() { g_override.store(-1, std::memory_order_relaxed); }

}  // namespace mpsim::mp::simd
