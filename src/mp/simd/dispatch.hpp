// Runtime CPU-feature dispatch of the explicit SIMD kernel layer
// (src/mp/simd/).
//
// The row-pipeline kernels ship in up to four variants per (mode, stage):
//
//   kScalar     — the templated scalar bodies (every platform),
//   kF16C       — 8-wide F16C widen-op-round kernels of the emulated-FP16
//                 storage family (FP16 / Mixed / FP16C),
//   kAvx2       — the 4-wide f64 / 8-wide f32 AVX recurrence kernels, the
//                 AVX2 BF16/TF32 kernels and the AVX2 merge kernels,
//   kAvx512Fp16 — 32-wide native binary16 arithmetic (AVX512-FP16) for the
//                 FP16 dist_calc / QT-only spans, block sort + scan, fused
//                 merge and FP16-mode GEMM seed panel (kernels_fp16.hpp);
//                 each chains into the kAvx2-level kernels for the columns
//                 past its last whole 32-column block.
//
// The hardware level is cpuid-probed once (first use); the *active* level
// is min(requested, detected) — a request above the hardware silently
// clamps, so `--simd=avx2` is portable to any host.  The request comes
// from the CLI flag (--simd=auto|scalar|f16c|avx2|avx512fp16), the
// MPSIM_SIMD
// environment variable (benches and script-driven tests), or
// set_override() (unit tests switching variants in-process).
//
// Every vector variant is bit-identical to the scalar bodies by
// construction (see the per-kernel proofs in kernels_*.hpp), so the knob
// is a performance/debugging control, never a correctness one — the
// variant bit-equality tests in tests/test_simd_dispatch.cpp enforce it.
#pragma once

#include <cstddef>
#include <string>

#include "common/error.hpp"

// x86 gate of the whole explicit-SIMD layer.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define MPSIM_SIMD_X86 1
#endif

#if defined(MPSIM_SIMD_X86) && defined(__AVX__)
// Native f64/f32 spans: baseline-AVX intrinsics (the build compiles with
// -mf16c, which implies AVX).
#define MPSIM_SIMD_NATIVE 1
// BF16/TF32 and merge kernels: compiled inside a `#pragma GCC target`
// AVX2 region, runtime-gated by the cpuid probe below.
#define MPSIM_SIMD_AVX2 1
#endif

#if defined(MPSIM_SIMD_AVX2) && defined(__F16C__) && \
    defined(MPSIM_HAVE_AVX512FP16)
// Native FP16 kernels: compiled inside a `#pragma GCC target`
// AVX512-FP16 region when the compiler accepts -mavx512fp16 (CMake
// defines MPSIM_HAVE_AVX512FP16), runtime-gated by the cpuid probe.  They
// hand their ragged tails to the F16C kernels, hence __F16C__.
#define MPSIM_SIMD_FP16 1
#endif

// Restrict qualifier of the kernel layer (kept separate from kernels.hpp's
// MPSIM_RESTRICT so the simd headers are self-contained).
#if defined(__GNUC__) || defined(__clang__)
#define MPSIM_SIMD_RESTRICT __restrict__
#else
#define MPSIM_SIMD_RESTRICT
#endif

namespace mpsim::mp::simd {

/// Row cap shared with the fused row pipeline: the block scans gather at
/// most this many dimension rows per column into stack scratch.  kernels.hpp
/// static_asserts its kMaxFusedRowDims equals this.
inline constexpr std::size_t kMaxSortRows = 64;

/// Dispatch level, ordered: a request of level L enables every kernel of
/// level <= L (subject to the hardware probe).
enum Level { kScalar = 0, kF16C = 1, kAvx2 = 2, kAvx512Fp16 = 3 };

/// Pipeline stages whose kernels have SIMD variants, as reported by the
/// per-stage metrics counters (`simd.<stage>.<variant>`).
enum class Stage { kDistCalc, kSortScan, kMerge, kPrecalc, kGemm };

const char* to_string(Level level);
const char* to_string(Stage stage);

/// Parses a --simd / MPSIM_SIMD level name; throws ConfigError on
/// anything but scalar|f16c|avx2|avx512fp16 ("auto" is handled by
/// apply_option).
Level parse_level(const std::string& name);

/// Applies a --simd value: "auto" clears the override, any other name
/// parses (throwing ConfigError on unknown names) and installs it.
void apply_option(const std::string& name);

/// Highest level the executing CPU supports (probed once, cached).
Level detected_level();

/// min(requested, detected): the level the kernels dispatch on.  The
/// request defaults to the MPSIM_SIMD environment variable (read once),
/// else the detected level.
Level active_level();

/// Installs / clears an in-process request.  Thread-safe (relaxed
/// atomic); takes effect on the next kernel dispatch.
void set_override(Level level);
void clear_override();

}  // namespace mpsim::mp::simd
