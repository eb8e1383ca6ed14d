#include "tensor/libm_avx2.h"

#if TABBIN_LIBM_AVX2

#include <immintrin.h>

#include <cstdint>

#include "tensor/kernels.h"

namespace tabbin {
namespace kernels {
namespace libm_avx2 {

namespace {

#define TABBIN_AVX2 __attribute__((target("avx2,fma")))

TABBIN_AVX2 inline __m256 F(float v) { return _mm256_set1_ps(v); }
TABBIN_AVX2 inline __m256i I(int32_t v) { return _mm256_set1_epi32(v); }
TABBIN_AVX2 inline __m256 AsF(__m256i v) { return _mm256_castsi256_ps(v); }
TABBIN_AVX2 inline __m256i AsI(__m256 v) { return _mm256_castps_si256(v); }

// mask ? a : b, per lane (mask lanes are all-ones or all-zeros).
TABBIN_AVX2 inline __m256 Select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, AsF(mask));
}
TABBIN_AVX2 inline __m256 Select(__m256 mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, mask);
}

// Lane masks for the first n % 8 lanes of a tail.
TABBIN_AVX2 inline __m256i TailMask(size_t rem) {
  static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + 8 - rem));
}

// --- expm1f (fdlibm, as glibc 2.36 builds it) ---------------------------
// Every branch of the scalar function is evaluated and the lane's own
// result is blended in, so the arithmetic of each lane is exactly the
// path the scalar code takes for that input. The domain is what tanhf
// passes: a in [2, 44) or (-2, -2^-54]. That leaves out the |a| >= 27 ln2
// saturation of negative arguments, overflow, and k == 1 (positive
// a <= 1.5 ln2).

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

TABBIN_AVX2 __m256 Expm1ForTanh(__m256 a) {
  const __m256i ha = _mm256_and_si256(AsI(a), I(0x7fffffff));
  const __m256i neg = _mm256_srai_epi32(AsI(a), 31);

  // Argument reduction a = k ln2 + x + c. The scalar code special-cases
  // k = 0 (|a| <= 0.5 ln2) and k = +-1 (|a| < 1.5 ln2) with dedicated
  // expressions, but with t = k those are exactly what the general
  // formula below computes (t * ln2_hi is exact for |t| <= 1, and
  // a - 0 == a); only k itself must come from the right branch.
  const __m256 half = Select(neg, F(-0.5f), F(0.5f));
  __m256i k = _mm256_cvttps_epi32(
      _mm256_add_ps(half, _mm256_mul_ps(F(kInvLn2), a)));
  k = _mm256_blendv_epi8(k, _mm256_or_si256(neg, I(1)),
                         _mm256_cmpgt_epi32(I(0x3f851592), ha));
  k = _mm256_andnot_si256(_mm256_cmpgt_epi32(I(0x3eb17219), ha), k);
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(t, F(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, F(kLn2Lo));
  const __m256 x = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

  // x is now in the primary range.
  const __m256 hfx = _mm256_mul_ps(F(0.5f), x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 p = _mm256_mul_ps(hxs, F(kQ5));
  p = _mm256_mul_ps(_mm256_add_ps(p, F(kQ4)), hxs);
  p = _mm256_mul_ps(_mm256_add_ps(p, F(kQ3)), hxs);
  p = _mm256_mul_ps(_mm256_add_ps(p, F(kQ2)), hxs);
  p = _mm256_mul_ps(_mm256_add_ps(p, F(kQ1)), hxs);
  const __m256 r1 = _mm256_add_ps(p, F(1.0f));
  const __m256 t3 = _mm256_sub_ps(F(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(F(6.0f), _mm256_mul_ps(x, t3))));

  // k == 0: x - (x e - hxs).
  const __m256 r_k0 =
      _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  // Every other k starts from e' = (x (e - c) - c) - hxs.
  const __m256 e2 = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);
  // k == -1: 0.5 (x - e') - 0.5.
  const __m256 r_km1 = _mm256_sub_ps(
      _mm256_mul_ps(_mm256_sub_ps(x, e2), F(0.5f)), F(0.5f));
  const __m256i k23 = _mm256_slli_epi32(k, 23);  // k added to the exponent
  const __m256 e2_minus_x = _mm256_sub_ps(e2, x);
  // k <= -2 or k > 56: (1 - (e' - x)) 2^k - 1.
  const __m256 r_far = _mm256_sub_ps(
      AsF(_mm256_add_epi32(AsI(_mm256_sub_ps(F(1.0f), e2_minus_x)), k23)),
      F(1.0f));
  // 2 <= k <= 22: ((1 - 2^-k) - (e' - x)) 2^k.
  const __m256 one_minus_2mk = AsF(_mm256_sub_epi32(
      I(0x3f800000), _mm256_srav_epi32(I(0x1000000), k)));
  const __m256 r_mid = AsF(_mm256_add_epi32(
      AsI(_mm256_sub_ps(one_minus_2mk, e2_minus_x)), k23));
  // 23 <= k <= 56: ((x - (e' + 2^-k)) + 1) 2^k.
  const __m256 two_mk =
      AsF(_mm256_slli_epi32(_mm256_sub_epi32(I(0x7f), k), 23));
  const __m256 r_high = AsF(_mm256_add_epi32(
      AsI(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e2, two_mk)),
                        F(1.0f))),
      k23));

  __m256 r = Select(_mm256_cmpgt_epi32(k, I(22)), r_high, r_mid);
  r = Select(_mm256_or_si256(_mm256_cmpgt_epi32(k, I(56)),
                             _mm256_cmpgt_epi32(I(-1), k)),
             r_far, r);
  r = Select(_mm256_cmpeq_epi32(k, I(-1)), r_km1, r);
  r = Select(_mm256_cmpeq_epi32(k, I(0)), r_k0, r);
  // |a| < 2^-25: a itself.
  return Select(_mm256_cmpgt_epi32(I(0x33000000), ha), a, r);
}

// --- tanhf (fdlibm) -----------------------------------------------------

TABBIN_AVX2 __m256 Tanh8(__m256 x) {
  const __m256i ix = _mm256_and_si256(AsI(x), I(0x7fffffff));
  const __m256 sign = AsF(_mm256_andnot_si256(I(0x7fffffff), AsI(x)));
  const __m256 ax = AsF(ix);
  const __m256i ge_one = _mm256_cmpgt_epi32(ix, I(0x3f7fffff));
  // |x| >= 1: z = 1 - 2 / (expm1(2|x|) + 2);
  // |x| < 1:  z = -t / (t + 2) with t = expm1(-2|x|).
  const __m256 t = Expm1ForTanh(
      Select(ge_one, _mm256_add_ps(ax, ax), _mm256_mul_ps(ax, F(-2.0f))));
  const __m256 q = _mm256_div_ps(
      Select(ge_one, F(2.0f), _mm256_xor_ps(t, F(-0.0f))),
      _mm256_add_ps(t, F(2.0f)));
  __m256 z = Select(ge_one, _mm256_sub_ps(F(1.0f), q), q);
  z = _mm256_xor_ps(z, sign);
  // |x| < 2^-55 (and +-0): x (1 + x).
  z = Select(_mm256_cmpgt_epi32(I(0x24000000), ix),
             _mm256_mul_ps(_mm256_add_ps(F(1.0f), x), x), z);
  // |x| >= 22 and +-inf: +-1 (the scalar 1 - 1e-30 rounds to 1).
  z = Select(_mm256_cmpgt_epi32(ix, I(0x41afffff)),
             _mm256_or_ps(F(1.0f), sign), z);
  // NaN: the input, quieted.
  return Select(_mm256_cmpgt_epi32(ix, I(0x7f800000)), _mm256_add_ps(x, x),
                z);
}

// --- expf (glibc's table-driven version, FMA variant) ------------------
// exp(x) = 2^(k/32) 2^(r/32) with x 32/ln2 = k + r, evaluated in double.
// The scalar code is compiled with FMA contraction; the fused operations
// below are exactly the ones it fuses.

// tab[i] = bits(2^(i/32)) - (i << 47).
alignas(32) constexpr uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kShift = 0x1.8p+52;
constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;

TABBIN_AVX2 __m128 Exp4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  // k = round(x 32/ln2) in the low mantissa bits, and r = x 32/ln2 - k;
  // both products are fused.
  const __m256d kd_shifted = _mm256_fmadd_pd(inv, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  const __m256d r = _mm256_fmsub_pd(inv, xd, kd);
  // s = 2^(k/32): the table entry with k's integer part in its exponent.
  const __m256i tab = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2fTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r,
                                    _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y =
      _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

TABBIN_AVX2 __m256 Exp8(__m256 x) {
  __m256 y = _mm256_set_m128(Exp4(_mm256_extractf128_ps(x, 1)),
                             Exp4(_mm256_castps256_ps128(x)));
  // The scalar code's special cases for |x| >= 88 and NaN; in between it
  // runs the main path above. Its may-underflow case (x below
  // -0x1.9d1d9ep6, log(0x1p-149)) returns 0x1p-149, which is what the
  // main path rounds to there, so only overflow, underflow to +0 and NaN
  // need a lane blend.
  y = Select(_mm256_cmp_ps(x, F(0x1.62e42ep6f), _CMP_GT_OQ),
             F(__builtin_inff()), y);
  y = Select(_mm256_cmp_ps(x, F(-0x1.9fe368p6f), _CMP_LT_OQ),
             _mm256_setzero_ps(), y);
  return Select(_mm256_cmp_ps(x, x, _CMP_UNORD_Q), _mm256_add_ps(x, x), y);
}

// --- Array forms --------------------------------------------------------

// 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))), in the scalar order.
TABBIN_AVX2 __m256 Gelu8(__m256 v) {
  const __m256 cube = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(F(0.044715f), v), v), v);
  const __m256 inner = _mm256_mul_ps(F(kGeluC), _mm256_add_ps(v, cube));
  return _mm256_mul_ps(_mm256_mul_ps(F(0.5f), v),
                       _mm256_add_ps(F(1.0f), Tanh8(inner)));
}

// out[i] = Op(x[i]); the n % 8 tail runs the same lanes, masked.
template <__m256 (*Op)(__m256)>
TABBIN_AVX2 inline void Map(const float* x, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Op(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i tail = TailMask(n - i);
    _mm256_maskstore_ps(out + i, tail, Op(_mm256_maskload_ps(x + i, tail)));
  }
}

}  // namespace

TABBIN_AVX2 void Tanh(const float* x, float* out, size_t n) {
  Map<Tanh8>(x, out, n);
}

TABBIN_AVX2 void Exp(const float* x, float* out, size_t n) {
  Map<Exp8>(x, out, n);
}

TABBIN_AVX2 void GeluInPlace(float* x, size_t n) { Map<Gelu8>(x, x, n); }

TABBIN_AVX2 void ScaledSoftmaxRow(float* row, const float* bias, size_t n,
                                  float scale) {
  // Pass 1: scale, bias and the running max. Max is order-independent
  // here: max_ps(v, m) keeps m for a NaN v, as `v > maxv` does, and the
  // sign of a zero max cannot change any exp below.
  const __m256 vscale = F(scale);
  __m256 vmax = F(-1e30f);
  size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(row + c), vscale);
    if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + c));
    _mm256_storeu_ps(row + c, v);
    vmax = _mm256_max_ps(v, vmax);
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                         _mm256_extractf128_ps(vmax, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  float maxv = _mm_cvtss_f32(m4);
  for (; c < n; ++c) {
    float v = row[c] * scale;
    if (bias != nullptr) v += bias[c];
    row[c] = v;
    if (v > maxv) maxv = v;
  }
  // Pass 2: exp(v - max). Entries the scalar code skips (v - max below
  // -1000) come out +0 here too.
  const __m256 vm = F(maxv);
  c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm256_storeu_ps(row + c,
                     Exp8(_mm256_sub_ps(_mm256_loadu_ps(row + c), vm)));
  }
  if (c < n) {
    const __m256i tail = TailMask(n - c);
    _mm256_maskstore_ps(
        row + c, tail,
        Exp8(_mm256_sub_ps(_mm256_maskload_ps(row + c, tail), vm)));
  }
  // The sum stays one ascending chain: float addition does not
  // reassociate.
  float sum = 0.0f;
  for (c = 0; c < n; ++c) sum += row[c];
  // Pass 3: normalise.
  const float inv = 1.0f / (sum + 1e-12f);
  const __m256 vinv = F(inv);
  c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm256_storeu_ps(row + c, _mm256_mul_ps(_mm256_loadu_ps(row + c), vinv));
  }
  for (; c < n; ++c) row[c] *= inv;
}

}  // namespace libm_avx2
}  // namespace kernels
}  // namespace tabbin

#endif  // TABBIN_LIBM_AVX2
