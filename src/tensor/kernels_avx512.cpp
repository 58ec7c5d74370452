// AVX-512F dispatch tier: 64-column GEMM tiles and a 16-wide fused store
// epilogue; attention runs on the AVX2 tier's kernels. Compiled with
// -mavx512f -ffp-contract=off (see src/CMakeLists.txt); without those flags
// this TU degrades to a stub returning nullptr and the dispatcher falls
// back to AVX2 or SSE.
//
// Same ODR and bit-exactness rules as kernels_avx2.cpp: file-local
// intrinsic code only, mul-then-add accumulation (no FMA), slow paths call
// the extern baseline-built scalar epilogue, and NaN lanes of the hardware
// f16 round-trip are masked onto the software path's canonical quiet NaN.
// Only AVX512F intrinsics are used (integer sign/payload masking goes
// through si512 casts rather than DQ float logicals).
#include "tensor/dispatch.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace ft2 {
namespace {

using Protect = KernelEpilogue::Protect;

constexpr std::size_t kTileCols = 64;

// The f16 conversions use the merge-masked intrinsics with a full mask:
// the same instructions as the plain forms, whose GCC 12 definitions pass
// an undefined source vector that -Wmaybe-uninitialized flags (an error in
// FT2_WERROR builds such as the asan preset).
constexpr __mmask16 kAll16 = 0xFFFF;

inline __m512 quantize16(__m512 v) {
  const __m256i h = _mm512_mask_cvtps_ph(
      _mm256_setzero_si256(), kAll16, v,
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 q = _mm512_mask_cvtph_ps(v, kAll16, h);
  const __mmask16 unord = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  if (unord != 0) {
    const __m512i canon = _mm512_or_si512(
        _mm512_and_si512(_mm512_castps_si512(v),
                         _mm512_set1_epi32(static_cast<int>(0x80000000u))),
        _mm512_set1_epi32(0x7FC00000));
    q = _mm512_mask_mov_ps(q, unord, _mm512_castsi512_ps(canon));
  }
  return q;
}

/// 16-lane analogue of the AVX2 tier's store8 — see kernels_avx2.cpp for
/// the fast-path/dirty-spill contract. Only the first `n` lanes are live:
/// the rest are neither stored nor screened, so they are never counted,
/// clipped or recorded.
inline void store16(__m512 acc, float* y, std::size_t flat0,
                    const KernelEpilogue* epi, EpilogueTally* tally,
                    std::size_t n = 16) {
  const __mmask16 live = static_cast<__mmask16>((1u << n) - 1u);
  if (epi == nullptr) {
    _mm512_mask_storeu_ps(y, live, acc);
    return;
  }
  const __m512 q = epi->quantize ? quantize16(acc) : acc;
  __mmask16 dirty = 0;
  if (epi->protect != Protect::kNone) {
    const __mmask16 unord = _mm512_cmp_ps_mask(q, q, _CMP_UNORD_Q);
    dirty = unord;
    if (epi->protect == Protect::kBounds) {
      const __mmask16 oob =
          _mm512_cmp_ps_mask(q, _mm512_set1_ps(epi->hi), _CMP_GT_OQ) |
          _mm512_cmp_ps_mask(q, _mm512_set1_ps(epi->lo), _CMP_LT_OQ);
      dirty = epi->correct_nan ? static_cast<__mmask16>(oob | unord) : oob;
    }
    dirty &= live;
  }
  if (dirty == 0) {
    _mm512_mask_storeu_ps(y, live, q);
    return;
  }
  float lanes[16];
  _mm512_storeu_ps(lanes, acc);
  detail::epilogue_scalar_span(lanes, n, flat0, *epi, tally);
  _mm512_mask_storeu_ps(y, live, _mm512_loadu_ps(lanes));
}

void kouter_row_avx512(const float* x, const float* wt, std::size_t k,
                       std::size_t ld, const float* bias_padded, float* y,
                       std::size_t width, std::size_t flat0,
                       const KernelEpilogue* epi, EpilogueTally* tally) {
  __m512 a0 = _mm512_loadu_ps(bias_padded);
  __m512 a1 = _mm512_loadu_ps(bias_padded + 16);
  __m512 a2 = _mm512_loadu_ps(bias_padded + 32);
  __m512 a3 = _mm512_loadu_ps(bias_padded + 48);
  for (std::size_t i = 0; i < k; ++i) {
    const __m512 xi = _mm512_set1_ps(x[i]);
    const float* wr = wt + i * ld;
    a0 = _mm512_add_ps(a0, _mm512_mul_ps(xi, _mm512_loadu_ps(wr)));
    a1 = _mm512_add_ps(a1, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 16)));
    a2 = _mm512_add_ps(a2, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 32)));
    a3 = _mm512_add_ps(a3, _mm512_mul_ps(xi, _mm512_loadu_ps(wr + 48)));
  }
  const __m512 a[4] = {a0, a1, a2, a3};
  for (std::size_t c = 0; c * 16 < width; ++c) {
    store16(a[c], y + c * 16, flat0 + c * 16, epi, tally,
            width - c * 16 < 16 ? width - c * 16 : 16);
  }
}

void epilogue_span_avx512(float* v, std::size_t n, std::size_t flat0,
                          const KernelEpilogue& epi, EpilogueTally* tally) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    store16(_mm512_loadu_ps(v + i), v + i, flat0 + i, &epi, tally);
  }
  if (i < n) {
    const __mmask16 live = static_cast<__mmask16>((1u << (n - i)) - 1u);
    store16(_mm512_maskz_loadu_ps(live, v + i), v + i, flat0 + i, &epi,
            tally, n - i);
  }
}

// The attention entries are the AVX2 tier's 8-lane kernels: a 16-lane
// version measured slower on every length at head_dim 16.
constexpr KernelOps kAvx512Ops{KernelTier::kAvx512,
                               "avx512",
                               kTileCols,
                               &kouter_row_avx512,
                               &epilogue_span_avx512,
                               &detail::attn_scores_avx2,
                               &detail::attn_value_sum_avx2};

}  // namespace

namespace detail {
const KernelOps* kernel_ops_avx512() { return &kAvx512Ops; }
}  // namespace detail

}  // namespace ft2

#else  // !__AVX512F__

namespace ft2::detail {
const KernelOps* kernel_ops_avx512() { return nullptr; }
}  // namespace ft2::detail

#endif
