// GEMM-blocked QT seeding (mp/gemm.hpp) against the naive per-column
// centered_dot loop it replaced.  The contract is BIT-identity, not
// closeness: the blocked driver hoists the fixed-side subtractions and
// streams SIMD panels over output columns, but every column's reduction
// replays the scalar operation sequence, so the seeds may not move by a
// single ULP in any precision mode, at any dispatch level, with either
// operand order (seed row passes the fixed segment first, seed column the
// sliding one), and NaN-poisoned inputs (fault-injector staging
// corruption) must round-trip through the NaN-redo path to the naive
// bits too.  The end-to-end leg checks both row paths consume the seeds
// identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/faults.hpp"
#include "mp/gemm.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/precalc.hpp"
#include "mp/simd/dispatch.hpp"
#include "precision/modes.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::mp {
namespace {

// Restores auto dispatch however a test exits.
struct DispatchGuard {
  ~DispatchGuard() { simd::clear_override(); }
};

/// The naive seeding loop gemm_sliding_dots replaced: one centered_dot
/// call per output column, in the caller's original operand order.
template <typename Traits>
std::vector<typename Traits::Storage> naive_seeds(
    const typename Traits::Storage* fixed, typename Traits::Storage fmu,
    const typename Traits::Storage* slide,
    const typename Traits::Storage* smu, std::size_t m, std::size_t n,
    bool slide_first) {
  std::vector<typename Traits::Storage> out(n);
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = slide_first
                 ? centered_dot<Traits>(slide + j, fixed, m, smu[j], fmu)
                 : centered_dot<Traits>(fixed, slide + j, m, fmu, smu[j]);
  }
  return out;
}

/// Bitwise comparison of storage words — EXPECT_EQ would treat NaN
/// payloads as unordered and -0.0 == +0.0.
template <typename ST>
void expect_bits_equal(const std::vector<ST>& got,
                       const std::vector<ST>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(ST)), 0)
        << what << " column " << j;
  }
}

/// Quantizes a fresh random series to ST, optionally NaN-poisons it with
/// the fault injector (the same staging-corruption machinery the engine
/// uses), computes real sliding means, and checks gemm_sliding_dots ==
/// naive seeding for both operand orders at every dispatch level the
/// host supports.
template <typename Traits>
void check_seed_equality(bool poison) {
  using ST = typename Traits::Storage;
  DispatchGuard guard;
  const std::size_t m = 48, nseg = 300, len = nseg + m - 1;
  Rng rng(17);
  std::vector<ST> slide(len), fixed(m);
  for (auto& v : slide) v = ST(rng.normal(0.0, 1.0));
  for (auto& v : fixed) v = ST(rng.normal(0.0, 1.0));
  if (poison) {
    gpusim::FaultInjector injector;
    injector.configure("seed=9,nan@0:at=1:frac=0.05,nan@0:at=2:frac=0.1");
    injector.corrupt_span(0, slide.data(), slide.size());
    injector.corrupt_span(0, fixed.data(), fixed.size());
  }
  std::vector<ST> smu(nseg), inv(nseg), df(nseg), dg(nseg);
  precalc_dimension<Traits>(slide.data(), m, nseg, smu.data(), inv.data(),
                            df.data(), dg.data());
  ST fmu;
  {
    std::vector<ST> fstats(4);  // mu of the fixed segment via the same path
    precalc_dimension<Traits>(fixed.data(), m, 1, fstats.data(),
                              fstats.data() + 1, fstats.data() + 2,
                              fstats.data() + 3);
    fmu = fstats[0];
  }

  const simd::Level top = simd::detected_level();
  for (const bool slide_first : {false, true}) {
    const auto want = naive_seeds<Traits>(fixed.data(), fmu, slide.data(),
                                          smu.data(), m, nseg, slide_first);
    for (int lv = simd::kScalar; lv <= top; ++lv) {
      simd::set_override(simd::Level(lv));
      std::vector<ST> got(nseg);
      gemm_sliding_dots<Traits>(fixed.data(), fmu, slide.data(), smu.data(),
                                m, 0, nseg, slide_first, got.data());
      expect_bits_equal(got, want,
                        slide_first ? "slide_first" : "fixed_first");
    }
  }
}

using Fp64 = PrecisionTraits<PrecisionMode::FP64>;
using Fp32 = PrecisionTraits<PrecisionMode::FP32>;
using Fp16 = PrecisionTraits<PrecisionMode::FP16>;
using Mixed = PrecisionTraits<PrecisionMode::Mixed>;
using Fp16c = PrecisionTraits<PrecisionMode::FP16C>;

TEST(GemmSeeding, MatchesNaiveFp64) { check_seed_equality<Fp64>(false); }
TEST(GemmSeeding, MatchesNaiveFp32) { check_seed_equality<Fp32>(false); }
TEST(GemmSeeding, MatchesNaiveFp16) { check_seed_equality<Fp16>(false); }
TEST(GemmSeeding, MatchesNaiveMixed) { check_seed_equality<Mixed>(false); }
TEST(GemmSeeding, MatchesNaiveFp16c) { check_seed_equality<Fp16c>(false); }

TEST(GemmSeeding, MatchesNaiveNanPoisonedFp64) {
  check_seed_equality<Fp64>(true);
}
TEST(GemmSeeding, MatchesNaiveNanPoisonedFp32) {
  check_seed_equality<Fp32>(true);
}
TEST(GemmSeeding, MatchesNaiveNanPoisonedFp16) {
  check_seed_equality<Fp16>(true);
}
TEST(GemmSeeding, MatchesNaiveNanPoisonedMixed) {
  check_seed_equality<Mixed>(true);
}
TEST(GemmSeeding, MatchesNaiveNanPoisonedFp16c) {
  check_seed_equality<Fp16c>(true);
}

TEST(GemmSeeding, PartialRangeMatchesFullRange) {
  // Sub-tile splits re-seed partial column ranges [j0, j1): the blocked
  // panels must produce the same bits whatever range boundary they start
  // from (panel alignment must not leak into the values).
  using ST = Fp16::Storage;
  const std::size_t m = 32, nseg = 200, len = nseg + m - 1;
  Rng rng(23);
  std::vector<ST> slide(len), fixed(m);
  for (auto& v : slide) v = ST(rng.normal(0.0, 1.0));
  for (auto& v : fixed) v = ST(rng.normal(0.0, 1.0));
  std::vector<ST> smu(nseg), inv(nseg), df(nseg), dg(nseg);
  precalc_dimension<Fp16>(slide.data(), m, nseg, smu.data(), inv.data(),
                          df.data(), dg.data());
  const ST fmu = smu[0];
  std::vector<ST> full(nseg), pieces(nseg);
  gemm_sliding_dots<Fp16>(fixed.data(), fmu, slide.data(), smu.data(), m, 0,
                          nseg, false, full.data());
  for (const std::size_t split : {1ul, 7ul, 64ul, 133ul}) {
    gemm_sliding_dots<Fp16>(fixed.data(), fmu, slide.data(), smu.data(), m,
                            0, split, false, pieces.data());
    gemm_sliding_dots<Fp16>(fixed.data(), fmu, slide.data(), smu.data(), m,
                            split, nseg, false, pieces.data());
    expect_bits_equal(pieces, full, "split range");
  }
}

TEST(GemmSeeding, RowPathsConsumeSeedsIdentically) {
  // End-to-end: the GEMM seeds feed both row executions; fused and
  // cooperative must agree bit-for-bit in every paper mode, clean and
  // NaN-poisoned.
  SyntheticSpec spec;
  spec.segments = 280;
  spec.dims = 3;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 77;
  const auto data = make_synthetic_dataset(spec);
  for (const PrecisionMode mode : kAllPrecisionModes) {
    for (const char* fault_spec :
         {(const char*)nullptr, "seed=9,nan@0:at=1:frac=0.05"}) {
      MatrixProfileResult results[2];
      int slot = 0;
      for (const RowPath path : {RowPath::kAuto, RowPath::kCooperative}) {
        MatrixProfileConfig config;
        config.window = 32;
        config.mode = mode;
        config.tiles = 1;
        config.row_path = path;
        gpusim::FaultInjector injector;
        if (fault_spec != nullptr) {
          injector.configure(fault_spec);
          config.fault_injector = &injector;
        }
        results[slot++] =
            compute_matrix_profile(data.reference, data.query, config);
      }
      ASSERT_EQ(results[0].profile.size(), results[1].profile.size());
      for (std::size_t e = 0; e < results[0].profile.size(); ++e) {
        EXPECT_EQ(std::memcmp(&results[0].profile[e], &results[1].profile[e],
                              sizeof(double)),
                  0)
            << to_string(mode) << " entry " << e
            << (fault_spec ? " poisoned" : " clean");
        EXPECT_EQ(results[0].index[e], results[1].index[e])
            << to_string(mode) << " entry " << e;
      }
    }
  }
}

}  // namespace
}  // namespace mpsim::mp
