// Runtime-dispatch tier equivalence (tensor/dispatch.hpp).
//
// The bit-exactness policy says every kernel tier — SSE reference, AVX2,
// AVX-512 — produces bit-identical GEMM results, quantization grids,
// fused-epilogue outcomes and attention scores and value sums. These tests
// pin that promise on whatever tiers the host supports; tiers the host
// cannot run are skipped with a reason (the per-tier TESTs exist so a skip
// is visible in ctest output rather than silently shrinking a loop).
#include "tensor/dispatch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/ft2.hpp"
#include "numeric/f16.hpp"
#include "protect/range_restriction.hpp"
#include "tensor/ops.hpp"

namespace ft2 {
namespace {

/// Restores the active tier and the fused-epilogue switch on scope exit so
/// a failing test cannot leak a forced tier into the rest of the suite.
class TierGuard {
 public:
  TierGuard() : tier_(active_kernel_tier()), fused_(fused_epilogue_enabled()) {}
  ~TierGuard() {
    set_kernel_tier(tier_);
    set_fused_epilogue_enabled(fused_);
  }

 private:
  KernelTier tier_;
  bool fused_;
};

void fill_uniform(std::span<float> v, Xoshiro256& rng, float lo, float hi) {
  for (float& f : v) f = rng.uniform_float(lo, hi);
}

/// The documented accumulation chain: acc += x[i] * w[o][i], ascending i,
/// separate mul and add. Every tier must reproduce this bit for bit.
void gemm_scalar_ref(const Tensor& x, std::size_t rows, const Tensor& w,
                     std::span<const float> bias, Tensor& y) {
  const std::size_t n = w.dim(0), k = w.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < n; ++o) {
      float acc = bias.empty() ? 0.0f : bias[o];
      const float* xr = x.row(r).data();
      const float* wr = w.row(o).data();
      for (std::size_t i = 0; i < k; ++i) acc += xr[i] * wr[i];
      y.row(r)[o] = acc;
    }
  }
}

/// Runs the span + packed GEMM paths on `tier` over shapes that exercise
/// full tiles and tail tiles on every tier width, demanding bit-equality
/// with the scalar reference.
void expect_tier_gemm_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  ThreadPool pool(2);
  Xoshiro256 rng(42);
  const struct {
    std::size_t n, k;
  } shapes[] = {{48, 33}, {64, 64}, {100, 17}, {257, 96}};
  for (const auto& shape : shapes) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      Tensor x({rows, shape.k}), w({shape.n, shape.k});
      Tensor y({rows, shape.n}), y_ref({rows, shape.n});
      std::vector<float> bias(shape.n);
      fill_uniform(x.span(), rng, -2.0f, 2.0f);
      fill_uniform(w.span(), rng, -1.0f, 1.0f);
      fill_uniform(bias, rng, -0.5f, 0.5f);
      gemm_scalar_ref(x, rows, w, bias, y_ref);

      linear_forward_span(x, rows, w, bias, y, /*chunked_accum=*/false, pool);
      for (std::size_t i = 0; i < y_ref.numel(); ++i) {
        ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
            << kernel_tier_name(tier) << " span mismatch at " << i << " (n="
            << shape.n << " k=" << shape.k << " rows=" << rows << ")";
      }

      PackedLinear pl(w, bias);
      Tensor y_packed({rows, shape.n});
      linear_forward_span_packed(x, rows, pl, y_packed, pool);
      for (std::size_t i = 0; i < y_ref.numel(); ++i) {
        ASSERT_EQ(f32_bits(y_packed[i]), f32_bits(y_ref[i]))
            << kernel_tier_name(tier) << " packed mismatch at " << i;
      }
    }
  }
}

/// Demands the dispatched quantize sweep matches the scalar quantize_f16
/// bit for bit: all 65536 f16-exact values, denormals, infinities, NaN
/// payloads, overflow/rounding boundaries and random bit patterns.
void expect_tier_quantize_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  std::vector<float> v;
  v.reserve((1u << 16) + 4200);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    v.push_back(f16::from_bits(static_cast<std::uint16_t>(h)).to_float());
  }
  const float specials[] = {
      65504.0f,  65519.9f,  65520.0f,  -65520.0f,  // overflow boundary
      1e30f,     -1e30f,                            // far overflow
      5.9e-8f,   -5.9e-8f,  1e-10f,    -1e-10f,     // denormal / underflow
      1.0009765f, 1.0009766f,                       // RNE tie region
      0.0f,      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  v.insert(v.end(), std::begin(specials), std::end(specials));
  v.push_back(f32_from_bits(0x7FC01234u));  // quiet NaN, nonzero payload
  v.push_back(f32_from_bits(0xFFC00000u));  // negative quiet NaN
  v.push_back(f32_from_bits(0x7F800001u));  // signalling NaN
  v.push_back(f32_from_bits(0xFF800001u));
  Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) {
    v.push_back(f32_from_bits(static_cast<std::uint32_t>(rng())));
  }
  std::vector<float> expect = v;
  for (float& f : expect) f = quantize_f16(f);
  quantize_span_f16(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(f32_bits(v[i]), f32_bits(expect[i]))
        << kernel_tier_name(tier) << " quantize mismatch at " << i
        << ": in-bits neither matches scalar grid";
  }
}

#define FT2_REQUIRE_TIER(tier)                                         \
  if (!kernel_tier_supported(tier)) {                                  \
    GTEST_SKIP() << "tier '" << kernel_tier_name(tier)                 \
                 << "' not supported on this host ("                   \
                 << (kernel_tier_compiled(tier) ? "CPU lacks the feature" \
                                                : "not compiled in")   \
                 << ")";                                               \
  }

TEST(KernelTierEquivalence, SseGemmMatchesScalarReference) {
  expect_tier_gemm_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2GemmMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_gemm_bit_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, Avx512GemmMatchesScalarReference) {
  FT2_REQUIRE_TIER(KernelTier::kAvx512);
  expect_tier_gemm_bit_exact(KernelTier::kAvx512);
}

TEST(KernelTierEquivalence, SseQuantizeMatchesScalar) {
  expect_tier_quantize_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, Avx2QuantizeMatchesScalar) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_tier_quantize_bit_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, Avx512QuantizeMatchesScalar) {
  FT2_REQUIRE_TIER(KernelTier::kAvx512);
  expect_tier_quantize_bit_exact(KernelTier::kAvx512);
}

// --- Fused epilogue vs the hook path ---------------------------------------

/// Collects (index, original) pairs exactly as the epilogue's event stream
/// does, for comparison against EpilogueTally::events.
class RecordingObserver final : public ClipObserver {
 public:
  void on_oob(float original, std::size_t index) override {
    events.push_back({index, original});
  }
  std::vector<EpilogueEvent> events;
};

/// One adversarial input span: NaNs, infinities, values straddling the
/// bounds, and clean values, with f16-rounding sensitive magnitudes.
std::vector<float> adversarial_span(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v[i] = std::numeric_limits<float>::infinity(); break;
      case 2: v[i] = -std::numeric_limits<float>::infinity(); break;
      case 3: v[i] = rng.uniform_float(1.9f, 2.2f); break;   // near +bound
      case 4: v[i] = rng.uniform_float(-2.2f, -1.9f); break; // near -bound
      default: v[i] = rng.uniform_float(-1.5f, 1.5f); break;
    }
  }
  return v;
}

/// For every tier and every epilogue mode the planner can emit, the
/// epilogue_span must reproduce quantize_span_f16 + range_restrict exactly:
/// values (bitwise), counts, and the per-event (index, original) stream.
TEST(KernelTierEquivalence, EpilogueMatchesQuantizePlusRangeRestrict) {
  TierGuard guard;
  Xoshiro256 rng(11);
  const Bounds bounds{-2.0f, 2.0f, 0.25f};
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    for (bool quantize : {false, true}) {
      for (ClipPolicy policy :
           {ClipPolicy::kToBound, ClipPolicy::kToZero, ClipPolicy::kToTypical}) {
        for (bool detect_only : {false, true}) {
          for (bool correct_nan : {false, true}) {
            const std::vector<float> input = adversarial_span(301, rng);

            // Hook path: quantize sweep (scalar) then range_restrict.
            std::vector<float> expect = input;
            if (quantize) {
              for (float& f : expect) f = quantize_f16(f);
            }
            ProtectionStats ref_stats;
            RecordingObserver ref_events;
            range_restrict(expect, bounds, policy, correct_nan, &ref_stats,
                           detect_only, &ref_events);

            // Fused path: one epilogue_span sweep on the dispatched tier.
            KernelEpilogue epi;
            epi.quantize = quantize;
            epi.protect = KernelEpilogue::Protect::kBounds;
            epi.correct_nan = correct_nan;
            epi.detect_only = detect_only;
            epi.lo = bounds.lo;
            epi.hi = bounds.hi;
            switch (policy) {
              case ClipPolicy::kToBound:
                epi.lo_sub = bounds.lo;
                epi.hi_sub = bounds.hi;
                break;
              case ClipPolicy::kToZero:
                epi.lo_sub = epi.hi_sub = 0.0f;
                break;
              case ClipPolicy::kToTypical:
                epi.lo_sub = epi.hi_sub = bounds.typical;
                break;
            }
            epi.record_events = true;
            std::vector<float> fused = input;
            EpilogueTally tally;
            active_kernel_ops().epilogue_span(fused.data(), fused.size(),
                                              /*flat0=*/0, epi, &tally);

            for (std::size_t i = 0; i < fused.size(); ++i) {
              ASSERT_EQ(f32_bits(fused[i]), f32_bits(expect[i]))
                  << kernel_tier_name(tier) << " value " << i << " policy="
                  << static_cast<int>(policy) << " detect_only=" << detect_only
                  << " correct_nan=" << correct_nan << " q=" << quantize;
            }
            EXPECT_EQ(tally.nan, ref_stats.nan_corrected);
            EXPECT_EQ(tally.oob, ref_stats.oob_corrected);
            ASSERT_EQ(tally.events.size(), ref_events.events.size());
            for (std::size_t e = 0; e < tally.events.size(); ++e) {
              EXPECT_EQ(tally.events[e].index, ref_events.events[e].index);
              EXPECT_EQ(f32_bits(tally.events[e].original),
                        f32_bits(ref_events.events[e].original));
            }
          }
        }
      }
    }
  }
}

/// kNanOnly mirrors range_restrict with invalid bounds (NaN-only pass);
/// kFirstToken corrects NaN even in detect_only (the scheme's first-token
/// branch ignores the detector flag).
TEST(KernelTierEquivalence, NanOnlyAndFirstTokenModes) {
  TierGuard guard;
  Xoshiro256 rng(13);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    const std::vector<float> input = adversarial_span(97, rng);

    {
      std::vector<float> expect = input;
      ProtectionStats ref_stats;
      range_restrict(expect, Bounds{}, ClipPolicy::kToBound,
                     /*correct_nan=*/true, &ref_stats, /*detect_only=*/false);
      KernelEpilogue epi;
      epi.protect = KernelEpilogue::Protect::kNanOnly;
      std::vector<float> fused = input;
      EpilogueTally tally;
      active_kernel_ops().epilogue_span(fused.data(), fused.size(), 0, epi,
                                        &tally);
      for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(f32_bits(fused[i]), f32_bits(expect[i]));
      }
      EXPECT_EQ(tally.nan, ref_stats.nan_corrected);
      EXPECT_EQ(tally.oob, 0u);
    }

    {
      std::vector<float> expect = input;
      const std::size_t nan_count = correct_nan_to_zero(expect);
      KernelEpilogue epi;
      epi.protect = KernelEpilogue::Protect::kFirstToken;
      epi.detect_only = true;  // must be ignored in first-token mode
      std::vector<float> fused = input;
      EpilogueTally tally;
      active_kernel_ops().epilogue_span(fused.data(), fused.size(), 0, epi,
                                        &tally);
      for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(f32_bits(fused[i]), f32_bits(expect[i]));
      }
      EXPECT_EQ(tally.nan, nan_count);
    }
  }
}

/// The fused GEMM path (epilogue applied at tile store) must equal the
/// two-pass path (plain GEMM, then one epilogue sweep over the output),
/// including the sorted event stream's flat indices.
TEST(KernelTierEquivalence, FusedGemmMatchesTwoPass) {
  TierGuard guard;
  ThreadPool pool(2);
  Xoshiro256 rng(29);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    const std::size_t rows = 3, n = 100, k = 33;
    Tensor x({rows, k}), w({n, k});
    fill_uniform(x.span(), rng, -2.0f, 2.0f);
    fill_uniform(w.span(), rng, -1.0f, 1.0f);
    std::vector<float> bias(n);
    fill_uniform(bias, rng, -0.5f, 0.5f);
    // Plant NaN-producing rows: a huge weight makes |acc| overflow the
    // bound; two opposing infinities are not constructible here, so NaN
    // coverage for the GEMM path comes from an inf - inf accumulation.
    w.at(7, 0) = 1e38f;
    w.at(7, 1) = -1e38f;
    x.at(1, 0) = 1e38f;  // inf * w + (-inf) * w -> NaN in row 1, col 7
    x.at(1, 1) = 1e38f;
    w.at(23, 0) = 50.0f;  // comfortably out of bound

    KernelEpilogue epi;
    epi.quantize = true;
    epi.protect = KernelEpilogue::Protect::kBounds;
    epi.correct_nan = true;
    epi.lo = -4.0f;
    epi.hi = 4.0f;
    epi.lo_sub = -4.0f;
    epi.hi_sub = 4.0f;
    epi.record_events = true;

    Tensor y_ref({rows, n});
    linear_forward_span(x, rows, w, bias, y_ref, false, pool);
    EpilogueTally ref_tally;
    active_kernel_ops().epilogue_span(y_ref.data(), rows * n, 0, epi,
                                      &ref_tally);

    Tensor y({rows, n});
    EpilogueTally tally;
    linear_forward_span(x, rows, w, bias, y, false, pool, &epi, &tally);

    for (std::size_t i = 0; i < rows * n; ++i) {
      ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
          << kernel_tier_name(tier) << " fused GEMM value " << i;
    }
    EXPECT_GE(tally.nan + tally.oob, 1u) << "test inputs must trip the epilogue";
    EXPECT_EQ(tally.nan, ref_tally.nan);
    EXPECT_EQ(tally.oob, ref_tally.oob);
    ASSERT_EQ(tally.events.size(), ref_tally.events.size());
    for (std::size_t e = 0; e < tally.events.size(); ++e) {
      EXPECT_EQ(tally.events[e].index, ref_tally.events[e].index);
      EXPECT_EQ(f32_bits(tally.events[e].original),
                f32_bits(ref_tally.events[e].original));
    }
  }
}

/// Packed tiles are tier-independent: tiles built while one tier is active
/// give, under every supported tier, output bit-identical to
/// linear_forward_row — so a kernel-tier switch never needs a repack.
TEST(KernelTierEquivalence, PackedTilesServeEveryTier) {
  TierGuard guard;
  ThreadPool pool(2);
  Xoshiro256 rng(37);
  const struct {
    std::size_t n, k;
  } shapes[] = {{20, 8}, {64, 33}, {100, 17}, {257, 96}};
  for (const auto& shape : shapes) {
    const std::size_t rows = 3;
    Tensor x({rows, shape.k}), w({shape.n, shape.k});
    std::vector<float> bias(shape.n);
    fill_uniform(x.span(), rng, -2.0f, 2.0f);
    fill_uniform(w.span(), rng, -1.0f, 1.0f);
    fill_uniform(bias, rng, -0.5f, 0.5f);
    Tensor y_ref({rows, shape.n});
    for (std::size_t r = 0; r < rows; ++r) {
      linear_forward_row(x.row(r), w, bias, y_ref.row(r));
    }
    for (KernelTier pack_tier : supported_kernel_tiers()) {
      set_kernel_tier(pack_tier);
      const PackedLinear pl(w, bias);
      for (KernelTier run_tier : supported_kernel_tiers()) {
        set_kernel_tier(run_tier);
        Tensor y({rows, shape.n});
        linear_forward_span_packed(x, rows, pl, y, pool);
        for (std::size_t i = 0; i < y_ref.numel(); ++i) {
          ASSERT_EQ(f32_bits(y[i]), f32_bits(y_ref[i]))
              << "packed under " << kernel_tier_name(pack_tier)
              << ", run under " << kernel_tier_name(run_tier) << ": element "
              << i << " (n=" << shape.n << " k=" << shape.k << ")";
        }
      }
    }
  }
}

/// epilogue_span over every length 1–47 (every vector tail on every tier)
/// in every protect mode, with NaN and out-of-bound values among the live
/// elements: values, tallies and events equal the scalar reference over
/// the same n elements, and the elements past n — which hold NaNs and
/// out-of-bound values too — are neither touched, counted nor recorded.
TEST(KernelTierEquivalence, EpilogueTailsEveryLength) {
  TierGuard guard;
  using Protect = KernelEpilogue::Protect;
  Xoshiro256 rng(71);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    for (const Protect protect : {Protect::kNone, Protect::kNanOnly,
                                  Protect::kBounds, Protect::kFirstToken}) {
      for (const bool quantize : {false, true}) {
        KernelEpilogue epi;
        epi.quantize = quantize;
        epi.protect = protect;
        epi.correct_nan = true;
        epi.lo = -2.0f;
        epi.hi = 2.0f;
        epi.lo_sub = -2.0f;
        epi.hi_sub = 2.0f;
        epi.record_events = true;
        for (std::size_t n = 1; n <= 47; ++n) {
          std::vector<float> input(n + 16);
          for (float& f : input) f = rng.uniform_float(-2.5f, 2.5f);
          for (std::size_t i = n % 7; i < input.size(); i += 7) {
            input[i] = std::numeric_limits<float>::quiet_NaN();
          }
          for (std::size_t i = n; i < input.size(); i += 2) {
            input[i] = std::numeric_limits<float>::quiet_NaN();
          }
          std::vector<float> expect = input;
          EpilogueTally ref;
          detail::epilogue_scalar_span(expect.data(), n, 5, epi, &ref);
          std::vector<float> got = input;
          EpilogueTally tally;
          active_kernel_ops().epilogue_span(got.data(), n, 5, epi, &tally);
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(f32_bits(got[i]), f32_bits(expect[i]))
                << kernel_tier_name(tier) << " element " << i << " of n " << n
                << " protect " << static_cast<int>(protect) << " quantize "
                << quantize;
          }
          EXPECT_EQ(tally.nan, ref.nan);
          EXPECT_EQ(tally.oob, ref.oob);
          ASSERT_EQ(tally.events.size(), ref.events.size());
          for (std::size_t e = 0; e < ref.events.size(); ++e) {
            EXPECT_EQ(tally.events[e].index, ref.events[e].index);
            EXPECT_EQ(f32_bits(tally.events[e].original),
                      f32_bits(ref.events[e].original));
          }
        }
      }
    }
  }
}

// --- Attention kernels ------------------------------------------------------
//
// attn_scores and attn_value_sum run one scalar chain per vector lane on
// the wide tiers; these tests demand equality with the documented chains
// over every head_dim the model zoo and tests use, every length 1-80 (all
// key-group tails), and K/V rows holding NaN, +-inf, +-0 and subnormals.

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Bit-equality, except that a NaN only has to meet a NaN: when two NaN
/// operands meet, which payload survives follows the operand order of the
/// add or multiply instruction, and C++ leaves that order to the compiler
/// (the scalar reference itself commutes them), so no tier promises a NaN
/// payload or sign.
bool same_value(float got, float expect) {
  if (std::isnan(expect)) return std::isnan(got);
  return f32_bits(got) == f32_bits(expect);
}

/// A K/V element: mostly ordinary values, sometimes one of the values a
/// fault can leave behind.
float adversarial_element(Xoshiro256& rng) {
  switch (rng() % 16) {
    case 0: return std::numeric_limits<float>::quiet_NaN();
    case 1: return f32_from_bits(0xFFC01234u);  // negative NaN, payload
    case 2: return kInf;
    case 3: return -kInf;
    case 4: return 0.0f;
    case 5: return -0.0f;
    case 6: return f32_from_bits(0x00000123u);  // subnormal
    case 7: return -f32_from_bits(0x007FFFFFu);  // largest subnormal
    default: return rng.uniform_float(-3.0f, 3.0f);
  }
}

/// `len` rows of `width` floats, each its own allocation (as paged and
/// forked caches hand out rows from unrelated buffers).
struct Rows {
  std::vector<std::vector<float>> data;
  std::vector<const float*> ptrs;

  Rows(std::size_t len, std::size_t width, Xoshiro256& rng, bool clean) {
    data.resize(len);
    for (auto& row : data) {
      row.resize(width);
      for (float& f : row) {
        f = clean ? rng.uniform_float(-2.0f, 2.0f) : adversarial_element(rng);
      }
      ptrs.push_back(row.data());
    }
  }
};

void scores_ref(const float* q, const float* const* k, std::size_t off,
                std::size_t len, std::size_t head_dim, float scale,
                float* s) {
  for (std::size_t j = 0; j < len; ++j) {
    float dot = 0.0f;
    for (std::size_t d = 0; d < head_dim; ++d) dot += q[d] * k[j][off + d];
    s[j] = dot * scale;
  }
}

void value_sum_ref(const float* p, const float* const* v, std::size_t off,
                   std::size_t len, std::size_t head_dim, float* out) {
  for (std::size_t j = 0; j < len; ++j) {
    if (p[j] == 0.0f) continue;
    for (std::size_t d = 0; d < head_dim; ++d) out[d] += p[j] * v[j][off + d];
  }
}

constexpr std::size_t kHeadDims[] = {8, 12, 16, 32, 64};
constexpr std::size_t kMaxLen = 80;

/// Scores of head 1 of a two-head row (so `off` is exercised), for every
/// head_dim and length, clean and adversarial keys.
void expect_scores_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  const KernelOps& ops = active_kernel_ops();
  Xoshiro256 rng(61);
  for (const std::size_t hd : kHeadDims) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (const bool clean : {true, false}) {
      const Rows keys(kMaxLen, 2 * hd, rng, clean);
      std::vector<float> q(hd);
      for (float& f : q) f = rng.uniform_float(-2.0f, 2.0f);
      if (!clean) q[hd / 2] = -0.0f;
      for (std::size_t len = 1; len <= kMaxLen; ++len) {
        std::vector<float> expect(len), got(len + 16, 7.0f);
        scores_ref(q.data(), keys.ptrs.data(), hd, len, hd, scale,
                   expect.data());
        ops.attn_scores(q.data(), keys.ptrs.data(), hd, len, hd, scale,
                        got.data());
        for (std::size_t j = 0; j < len; ++j) {
          ASSERT_TRUE(same_value(got[j], expect[j]))
              << got[j] << " vs " << expect[j] << ": "
              << kernel_tier_name(tier) << " score " << j << " of len " << len
              << " head_dim " << hd << (clean ? " clean" : " adversarial");
        }
        for (std::size_t j = len; j < got.size(); ++j) {
          ASSERT_EQ(got[j], 7.0f) << "wrote past len " << len;
        }
      }
    }
  }
}

/// Value sums of head 1 of a two-head row into a non-zero accumulator, with
/// zero (and negative-zero) weights in front of inf/NaN value rows.
void expect_value_sum_bit_exact(KernelTier tier) {
  TierGuard guard;
  set_kernel_tier(tier);
  const KernelOps& ops = active_kernel_ops();
  Xoshiro256 rng(67);
  for (const std::size_t hd : kHeadDims) {
    for (const bool clean : {true, false}) {
      Rows values(kMaxLen, 2 * hd, rng, clean);
      std::vector<float> p(kMaxLen);
      for (std::size_t j = 0; j < kMaxLen; ++j) {
        p[j] = rng() % 4 == 0 ? 0.0f : rng.uniform_float(0.0f, 1.0f);
      }
      // A zero weight in front of an all-inf row and a negative zero in
      // front of an all-NaN row: both must be skipped, not turn out NaN.
      p[2] = 0.0f;
      p[5] = -0.0f;
      for (float& f : values.data[2]) f = kInf;
      for (float& f : values.data[5]) {
        f = std::numeric_limits<float>::quiet_NaN();
      }
      for (std::size_t len = 1; len <= kMaxLen; ++len) {
        std::vector<float> expect(hd + 16), got;
        for (float& f : expect) f = rng.uniform_float(-1.0f, 1.0f);
        got = expect;
        value_sum_ref(p.data(), values.ptrs.data(), hd, len, hd,
                      expect.data());
        ops.attn_value_sum(p.data(), values.ptrs.data(), hd, len, hd,
                           got.data());
        for (std::size_t d = 0; d < expect.size(); ++d) {
          ASSERT_TRUE(same_value(got[d], expect[d]))
              << got[d] << " vs " << expect[d] << ": "
              << kernel_tier_name(tier) << " column " << d << " of len "
              << len << " head_dim " << hd
              << (clean ? " clean" : " adversarial");
        }
        if (clean && len > 5) {
          for (std::size_t d = 0; d < hd; ++d) {
            ASSERT_FALSE(std::isnan(got[d])) << "zero weight not skipped";
          }
        }
      }
    }
  }
}

TEST(KernelTierEquivalence, AttentionScoresSse) {
  expect_scores_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, AttentionScoresAvx2) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_scores_bit_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, AttentionScoresAvx512) {
  FT2_REQUIRE_TIER(KernelTier::kAvx512);
  expect_scores_bit_exact(KernelTier::kAvx512);
}

TEST(KernelTierEquivalence, AttentionValueSumSse) {
  expect_value_sum_bit_exact(KernelTier::kSse);
}

TEST(KernelTierEquivalence, AttentionValueSumAvx2) {
  FT2_REQUIRE_TIER(KernelTier::kAvx2);
  expect_value_sum_bit_exact(KernelTier::kAvx2);
}

TEST(KernelTierEquivalence, AttentionValueSumAvx512) {
  FT2_REQUIRE_TIER(KernelTier::kAvx512);
  expect_value_sum_bit_exact(KernelTier::kAvx512);
}

TransformerLM head_dim16_model(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 32;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 48;
  c.max_seq = 64;
  if (arch == ArchFamily::kLlama) {
    c.activation = Activation::kSilu;
    c.norm = NormKind::kRmsNorm;
    c.position = PositionKind::kRotary;
    c.linear_bias = false;
  } else {
    c.activation = Activation::kRelu;
    c.norm = NormKind::kLayerNorm;
    c.position = PositionKind::kLearned;
    c.linear_bias = true;
  }
  Xoshiro256 rng(43);
  return TransformerLM(c, init_weights(c, rng));
}

/// Prefill logits of three prompts (lengths straddling the 8- and 16-key
/// groups) and one batched decode step over their caches.
std::vector<float> forward_logits(const TransformerLM& model, bool fp16) {
  const std::size_t vocab = model.config().vocab_size;
  const ExecConfig exec{fp16};
  HookChain hooks;
  Workspace ws(model.config());
  const std::size_t lens[] = {17, 33, 40};
  std::vector<KvCache> caches;
  std::vector<float> out;
  std::vector<float> logits(3 * vocab);
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<int> prompt = {Vocab::kBos};
    for (std::size_t i = 1; i < lens[s]; ++i) {
      prompt.push_back(static_cast<int>((i * 5 + s * 11 + 1) % vocab));
    }
    caches.push_back(model.make_cache());
    const std::span<float> row{logits.data() + s * vocab, vocab};
    for (std::size_t p = 0; p < prompt.size(); p += 16) {
      const std::size_t n = std::min<std::size_t>(16, prompt.size() - p);
      const bool last = p + n == prompt.size();
      model.forward_span(std::span<const int>(prompt).subspan(p, n), p,
                         caches.back(), hooks, exec, true, ws,
                         last ? row : std::span<float>{});
    }
  }
  out.insert(out.end(), logits.begin(), logits.end());
  std::vector<DecodeSlot> slots;
  for (std::size_t s = 0; s < 3; ++s) {
    slots.push_back(DecodeSlot{static_cast<int>(s + 4), lens[s], &caches[s],
                               &hooks, {logits.data() + s * vocab, vocab}});
  }
  model.forward_batch(slots, exec, ws);
  out.insert(out.end(), logits.begin(), logits.end());
  return out;
}

TEST(KernelTierEquivalence, AttentionForwardHeadDim16) {
  TierGuard guard;
  for (const ArchFamily arch : {ArchFamily::kOpt, ArchFamily::kLlama}) {
    const TransformerLM model = head_dim16_model(arch);
    ASSERT_EQ(model.config().head_dim(), 16u);
    for (const bool fp16 : {false, true}) {
      set_kernel_tier(KernelTier::kSse);
      const std::vector<float> ref = forward_logits(model, fp16);
      for (KernelTier tier : supported_kernel_tiers()) {
        set_kernel_tier(tier);
        const std::vector<float> got = forward_logits(model, fp16);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(f32_bits(got[i]), f32_bits(ref[i]))
              << kernel_tier_name(tier) << " logit " << i << " fp16 " << fp16;
        }
      }
    }
  }
}

// --- Dispatch plumbing ------------------------------------------------------

TEST(KernelDispatch, TierNamesRoundTrip) {
  EXPECT_EQ(parse_kernel_tier("sse"), KernelTier::kSse);
  EXPECT_EQ(parse_kernel_tier("avx2"), KernelTier::kAvx2);
  EXPECT_EQ(parse_kernel_tier("avx512"), KernelTier::kAvx512);
  EXPECT_FALSE(parse_kernel_tier("avx1024").has_value());
  for (KernelTier t : supported_kernel_tiers()) {
    EXPECT_EQ(parse_kernel_tier(kernel_tier_name(t)), t);
  }
}

TEST(KernelDispatch, SseAlwaysSupported) {
  EXPECT_TRUE(kernel_tier_compiled(KernelTier::kSse));
  EXPECT_TRUE(kernel_tier_supported(KernelTier::kSse));
  EXPECT_FALSE(supported_kernel_tiers().empty());
}

TEST(KernelDispatch, SetTierNameSwitchesAndAutoRestores) {
  TierGuard guard;
  set_kernel_tier_name("sse");
  EXPECT_EQ(active_kernel_tier(), KernelTier::kSse);
  EXPECT_EQ(active_kernel_ops().tile_cols, 16u);
  set_kernel_tier_name("auto");
  // auto re-probes to the widest supported tier.
  EXPECT_EQ(active_kernel_tier(), supported_kernel_tiers().back());
  EXPECT_THROW(set_kernel_tier_name("bogus"), Error);
}

TEST(KernelDispatch, FusedEpilogueToggle) {
  TierGuard guard;
  set_fused_epilogue_enabled(false);
  EXPECT_FALSE(fused_epilogue_enabled());
  set_fused_epilogue_enabled(true);
  EXPECT_TRUE(fused_epilogue_enabled());
}

TEST(KernelDispatch, TallyMergeAndSort) {
  EpilogueTally a, b;
  a.nan = 1;
  a.oob = 2;
  a.events = {{10, 1.0f}, {30, 3.0f}};
  b.nan = 4;
  b.oob = 8;
  b.events = {{20, 2.0f}};
  a.merge(std::move(b));
  a.sort_events();
  EXPECT_EQ(a.nan, 5u);
  EXPECT_EQ(a.oob, 10u);
  ASSERT_EQ(a.events.size(), 3u);
  EXPECT_EQ(a.events[0].index, 10u);
  EXPECT_EQ(a.events[1].index, 20u);
  EXPECT_EQ(a.events[2].index, 30u);
}

}  // namespace
}  // namespace ft2
