// AVX2 + F16C dispatch tier: 32-column GEMM tiles, an 8-wide fused store
// epilogue and 8-lane attention kernels. Compiled with -mavx2 -mf16c
// -ffp-contract=off (see src/CMakeLists.txt); when those flags are
// unavailable this TU degrades to a stub returning nullptr and the
// dispatcher falls back to the SSE tier.
//
// ODR note: because this TU is built with arch flags the rest of the build
// lacks, it must not instantiate any vague-linkage code (templates,
// header-inline std:: machinery) that another TU also instantiates — the
// linker could pick the AVX2 copy and crash pre-AVX2 hosts. Everything here
// is file-local intrinsic code except the two attention kernels, plain
// extern functions the AVX-512 tier's table also points at; slow paths call
// the extern, baseline-built ft2::detail::epilogue_scalar_span.
//
// Bit-exactness: the accumulator update is mul-then-add per k step in
// ascending-i order (no FMA — -mfma is deliberately absent), identical to
// the SSE reference per element; only the column-tile width differs. The
// F16C round-trip (VCVTPS2PH RNE / VCVTPH2PS) matches the software f16
// conversion bit-for-bit for every non-NaN input — including subnormals,
// the 65504/65520 overflow boundary and round-to-nearest-even ties — and
// NaN lanes are blended to the software path's canonical quiet NaN
// (sign | 0x7FC00000), so vector quantization equals quantize_f16 exactly.
#include "tensor/dispatch.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

namespace ft2 {
namespace {

using Protect = KernelEpilogue::Protect;

constexpr std::size_t kTileCols = 32;

inline __m256 quantize8(__m256 v) {
  __m256 q = _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  const __m256 unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
  if (_mm256_movemask_ps(unord) != 0) {
    // Hardware keeps NaN payload bits; the software path canonicalizes to
    // sign | 0x7FC00000. Blend NaN lanes onto the canonical encoding.
    const __m256 canon = _mm256_or_ps(
        _mm256_and_ps(v, _mm256_set1_ps(-0.0f)),
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FC00000)));
    q = _mm256_blendv_ps(q, canon, unord);
  }
  return q;
}

/// Lane mask for the first `n` of 8 lanes (maskload/maskstore form).
inline __m256i live_mask8(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Stores the first `n` of 8 lanes to y.
inline void store_live8(float* y, __m256 v, std::size_t n) {
  if (n == 8) {
    _mm256_storeu_ps(y, v);
  } else {
    _mm256_maskstore_ps(y, live_mask8(n), v);
  }
}

/// Applies `epi` to 8 raw accumulator lanes and stores the first `n` of
/// them to y. The fast path quantizes and screens in-register; any group
/// whose live lanes contain a NaN or out-of-bound value re-runs the scalar
/// reference epilogue on the raw (pre-quantize) live lanes, so tallies,
/// events and corrected values are bit-identical to the scalar path. Lanes
/// past `n` are neither stored nor screened, so they are never counted,
/// clipped or recorded.
inline void store8(__m256 acc, float* y, std::size_t flat0,
                   const KernelEpilogue* epi, EpilogueTally* tally,
                   std::size_t n = 8) {
  if (epi == nullptr) {
    store_live8(y, acc, n);
    return;
  }
  const __m256 q = epi->quantize ? quantize8(acc) : acc;
  int dirty = 0;
  if (epi->protect != Protect::kNone) {
    const __m256 unord = _mm256_cmp_ps(q, q, _CMP_UNORD_Q);
    __m256 bad = unord;
    if (epi->protect == Protect::kBounds) {
      const __m256 oob = _mm256_or_ps(
          _mm256_cmp_ps(q, _mm256_set1_ps(epi->hi), _CMP_GT_OQ),
          _mm256_cmp_ps(q, _mm256_set1_ps(epi->lo), _CMP_LT_OQ));
      // Without correct_nan, NaN lanes pass through uncounted (the
      // quantized lane already carries the canonical NaN) — not dirty.
      bad = epi->correct_nan ? _mm256_or_ps(oob, unord) : oob;
    }
    dirty = _mm256_movemask_ps(bad) & ((1 << n) - 1);
  }
  if (dirty == 0) {
    store_live8(y, q, n);
    return;
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  detail::epilogue_scalar_span(lanes, n, flat0, *epi, tally);
  store_live8(y, _mm256_loadu_ps(lanes), n);
}

void kouter_row_avx2(const float* x, const float* wt, std::size_t k,
                     std::size_t ld, const float* bias_padded, float* y,
                     std::size_t width, std::size_t flat0,
                     const KernelEpilogue* epi, EpilogueTally* tally) {
  __m256 a0 = _mm256_loadu_ps(bias_padded);
  __m256 a1 = _mm256_loadu_ps(bias_padded + 8);
  __m256 a2 = _mm256_loadu_ps(bias_padded + 16);
  __m256 a3 = _mm256_loadu_ps(bias_padded + 24);
  for (std::size_t i = 0; i < k; ++i) {
    const __m256 xi = _mm256_set1_ps(x[i]);
    const float* wr = wt + i * ld;
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(xi, _mm256_loadu_ps(wr)));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 8)));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 16)));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(xi, _mm256_loadu_ps(wr + 24)));
  }
  const __m256 a[4] = {a0, a1, a2, a3};
  for (std::size_t c = 0; c * 8 < width; ++c) {
    store8(a[c], y + c * 8, flat0 + c * 8, epi, tally,
           width - c * 8 < 8 ? width - c * 8 : 8);
  }
}

void epilogue_span_avx2(float* v, std::size_t n, std::size_t flat0,
                        const KernelEpilogue& epi, EpilogueTally* tally) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(_mm256_loadu_ps(v + i), v + i, flat0 + i, &epi, tally);
  }
  if (i < n) {
    store8(_mm256_maskload_ps(v + i, live_mask8(n - i)), v + i, flat0 + i,
           &epi, tally, n - i);
  }
}

/// In-register 8x8 transpose: afterwards r[c] lane i holds what r[i] lane
/// c held.
inline void transpose8(__m256 r[8]) {
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  // s[4h + c]: rows 4h..4h+3 of column 4L + c in 128-bit lane L.
  __m256 s[8];
  for (int h = 0; h < 8; h += 4) {
    s[h] = _mm256_shuffle_ps(t[h], t[h + 2], 0x44);
    s[h + 1] = _mm256_shuffle_ps(t[h], t[h + 2], 0xEE);
    s[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0x44);
    s[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0xEE);
  }
  for (int c = 0; c < 4; ++c) {
    r[c] = _mm256_permute2f128_ps(s[c], s[4 + c], 0x20);
    r[4 + c] = _mm256_permute2f128_ps(s[c], s[4 + c], 0x31);
  }
}

}  // namespace

namespace detail {

/// Scores of 8 keys per pass, one key's dot-product chain per lane: the
/// q[d] * k_j[d] products of 8 keys are transposed so that each add step
/// extends all 8 chains by the same d. A short last group re-reads the
/// first key's row in its padding lanes, which are never stored.
void attn_scores_avx2(const float* q, const float* const* k_rows,
                      std::size_t off, std::size_t len, std::size_t head_dim,
                      float scale, float* s) {
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::size_t j0 = 0; j0 < len; j0 += 8) {
    const std::size_t keys = len - j0 < 8 ? len - j0 : 8;
    const float* pad[8];
    const float* const* rows = k_rows + j0;
    if (keys < 8) {
      for (std::size_t l = 0; l < 8; ++l) pad[l] = rows[l < keys ? l : 0];
      rows = pad;
    }
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t d0 = 0; d0 < head_dim; d0 += 8) {
      const std::size_t dn = head_dim - d0 < 8 ? head_dim - d0 : 8;
      __m256 t[8];
      if (dn == 8) {
        const __m256 qv = _mm256_loadu_ps(q + d0);
        for (std::size_t l = 0; l < 8; ++l) {
          t[l] = _mm256_mul_ps(qv, _mm256_loadu_ps(rows[l] + off + d0));
        }
      } else {
        const __m256i m = live_mask8(dn);
        const __m256 qv = _mm256_maskload_ps(q + d0, m);
        for (std::size_t l = 0; l < 8; ++l) {
          t[l] = _mm256_mul_ps(qv,
                               _mm256_maskload_ps(rows[l] + off + d0, m));
        }
      }
      transpose8(t);
      for (std::size_t d = 0; d < dn; ++d) acc = _mm256_add_ps(acc, t[d]);
    }
    store_live8(s + j0, _mm256_mul_ps(acc, vscale), keys);
  }
}

/// Value sum over 16 columns per pass (two accumulators, masked to the
/// head's remaining width), one output column's chain per lane over
/// ascending keys, skipping zero weights.
void attn_value_sum_avx2(const float* p, const float* const* v_rows,
                         std::size_t off, std::size_t len,
                         std::size_t head_dim, float* out) {
  for (std::size_t d0 = 0; d0 < head_dim; d0 += 16) {
    const std::size_t cols = head_dim - d0;
    const __m256i m0 = live_mask8(cols < 8 ? cols : 8);
    const __m256i m1 = live_mask8(cols < 8 ? 0 : cols < 16 ? cols - 8 : 8);
    __m256 acc0 = _mm256_maskload_ps(out + d0, m0);
    __m256 acc1 = _mm256_maskload_ps(out + d0 + 8, m1);
    for (std::size_t j = 0; j < len; ++j) {
      if (p[j] == 0.0f) continue;
      const __m256 pj = _mm256_set1_ps(p[j]);
      const float* vh = v_rows[j] + off + d0;
      acc0 = _mm256_add_ps(acc0,
                           _mm256_mul_ps(pj, _mm256_maskload_ps(vh, m0)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(pj, _mm256_maskload_ps(vh + 8, m1)));
    }
    _mm256_maskstore_ps(out + d0, m0, acc0);
    _mm256_maskstore_ps(out + d0 + 8, m1, acc1);
  }
}

constexpr KernelOps kAvx2Ops{KernelTier::kAvx2,    "avx2",
                             kTileCols,           &kouter_row_avx2,
                             &epilogue_span_avx2, &attn_scores_avx2,
                             &attn_value_sum_avx2};

const KernelOps* kernel_ops_avx2() { return &kAvx2Ops; }

}  // namespace detail

}  // namespace ft2

#else  // !(__AVX2__ && __F16C__)

namespace ft2::detail {
const KernelOps* kernel_ops_avx2() { return nullptr; }
}  // namespace ft2::detail

#endif
