#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define TABBIN_KERNELS_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define TABBIN_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace tabbin {
namespace kernels {

namespace {

// --- Portable scalar ----------------------------------------------------
// Single-accumulator loops, no reassociation: the compiler may not
// vectorize a strict-FP reduction, so this is the deterministic
// reference every SIMD level is tested against.

float DotScalar(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void AxpyScalar(float a, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void GemmScalar(const float* A, const float* B, float* C, int n, int k,
                int m) {
  // ikj order: C's row is the accumulator, B is streamed row-wise.
  for (int i = 0; i < n; ++i) {
    const float* arow = A + static_cast<size_t>(i) * k;
    float* crow = C + static_cast<size_t>(i) * m;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = B + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

int32_t QuantizedDotScalar(const int8_t* a, const int8_t* b, size_t n) {
  int32_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

void BatchedQuantizedDotRowsScalar(const int8_t* q, const int8_t* codes,
                                   size_t cols, const int* rows, size_t nrows,
                                   int32_t* out) {
  for (size_t i = 0; i < nrows; ++i) {
    out[i] = QuantizedDotScalar(q, codes + static_cast<size_t>(rows[i]) * cols,
                                cols);
  }
}

#if TABBIN_KERNELS_X86

// --- AVX2 + FMA ---------------------------------------------------------
// Compiled with per-function target attributes so the translation unit
// itself stays buildable for the x86-64 baseline; these bodies only run
// after the cpuid probe in Detect() says the hardware has avx2+fma.

__attribute__((target("avx2,fma"))) float HSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b,
                                                  size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float sum = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float a, const float* x,
                                                  float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// The GEMM micro-kernel: a kRows x (8 * kVecs) block of C lives in
// registers for the whole k loop. Each step broadcasts kRows values of A
// and loads kVecs 8-wide vectors of one B row, so every C element is one
// sequential FMA chain over ascending k, starting from its stored value.
// With a non-null `tail` (kVecs == 1) only the lanes it selects are
// loaded and stored: the last m % 8 columns run the same per-lane FMA as
// every other column, so no element's bits depend on where it falls.
__attribute__((target("avx2,fma"))) inline __m256 LoadLanes(
    const float* p, const __m256i* tail) {
  return tail != nullptr ? _mm256_maskload_ps(p, *tail) : _mm256_loadu_ps(p);
}

template <int kRows, int kVecs>
__attribute__((target("avx2,fma"))) inline void GemmBlockAvx2(
    const float* A, const float* B, float* C, int k, int m, int i, int j,
    const __m256i* tail) {
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = LoadLanes(C + static_cast<size_t>(i + r) * m + j + 8 * v,
                            tail);
    }
  }
  const float* arow = A + static_cast<size_t>(i) * k;
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = B + static_cast<size_t>(kk) * m + j;
    __m256 b[kVecs];
    for (int v = 0; v < kVecs; ++v) b[v] = LoadLanes(brow + 8 * v, tail);
    for (int r = 0; r < kRows; ++r) {
      const __m256 a =
          _mm256_broadcast_ss(arow + static_cast<size_t>(r) * k + kk);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(a, b[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      float* c = C + static_cast<size_t>(i + r) * m + j + 8 * v;
      if (tail != nullptr) {
        _mm256_maskstore_ps(c, *tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(c, acc[r][v]);
      }
    }
  }
}

// Every column block of kRows rows starting at row i: 16 wide, then 8
// wide, then the masked m % 8 tail.
template <int kRows>
__attribute__((target("avx2,fma"))) inline void GemmRowsAvx2(
    const float* A, const float* B, float* C, int k, int m, int i) {
  int j = 0;
  for (; j + 16 <= m; j += 16) {
    GemmBlockAvx2<kRows, 2>(A, B, C, k, m, i, j, nullptr);
  }
  for (; j + 8 <= m; j += 8) {
    GemmBlockAvx2<kRows, 1>(A, B, C, k, m, i, j, nullptr);
  }
  if (j < m) {
    static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                       0,  0,  0,  0,  0,  0,  0,  0};
    const __m256i tail = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLanes + 8 - (m - j)));
    GemmBlockAvx2<kRows, 1>(A, B, C, k, m, i, j, &tail);
  }
}

__attribute__((target("avx2,fma"))) void GemmAvx2(const float* A,
                                                   const float* B, float* C,
                                                   int n, int k, int m) {
  int i = 0;
  for (; i + 4 <= n; i += 4) GemmRowsAvx2<4>(A, B, C, k, m, i);
  switch (n - i) {
    case 3:
      GemmRowsAvx2<3>(A, B, C, k, m, i);
      break;
    case 2:
      GemmRowsAvx2<2>(A, B, C, k, m, i);
      break;
    case 1:
      GemmRowsAvx2<1>(A, B, C, k, m, i);
      break;
    default:
      break;
  }
}

// Int8 dot via the unsigned-signed maddubs path, made exact by a range
// contract instead of hope: query codes stay within [-63, 63] (see
// QuantizeSymmetric), so after shifting row codes to unsigned with one
// XOR (row + 128, giving [1, 255]) every int16 pair sum is bounded by
// 2 * 255 * 63 = 32130 < 32767 — vpmaddubsw cannot saturate. The shift
// is undone with the exact integer correction
//   dot = maddubs_total - 128 * sum(query codes covered by maddubs);
// the sub-8 scalar tail multiplies raw codes, so its query codes are
// excluded from the correction sum. Everything accumulates in int32 and
// integer addition is associative, so the result equals the scalar loop
// bit for bit.
//
// Why not sign-extend both sides to int16 and vpmaddwd? That costs a
// shuffle-port cvt per 16 codes; maddubs eats 32 codes per instruction
// with one cheap XOR, roughly halving the port pressure per byte.

// Query-code prefix sum over the maddubs-covered lanes (multiples of 8).
inline int32_t QuerySumPrefix(const int8_t* q, size_t n8) {
  int32_t s = 0;
  for (size_t i = 0; i < n8; ++i) s += static_cast<int32_t>(q[i]);
  return s;
}

__attribute__((target("avx2"))) int32_t QuantizedDotAvx2(const int8_t* a,
                                                         const int8_t* b,
                                                         size_t n) {
  const __m256i k80 = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i ru = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), k80);
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(ru, qv), ones));
  }
  const __m128i k80s = _mm256_castsi256_si128(k80);
  const __m128i ones_s = _mm256_castsi256_si128(ones);
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  if (i + 16 <= n) {
    const __m128i qv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i ru = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), k80s);
    s = _mm_add_epi32(s, _mm_madd_epi16(_mm_maddubs_epi16(ru, qv), ones_s));
    i += 16;
  }
  if (i + 8 <= n) {
    // 64-bit loads zero the upper bytes: the query side stays 0 there,
    // so the (shifted) garbage lanes of the row side multiply to 0.
    const __m128i qv =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i));
    const __m128i ru = _mm_xor_si128(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)), k80s);
    s = _mm_add_epi32(s, _mm_madd_epi16(_mm_maddubs_epi16(ru, qv), ones_s));
    i += 8;
  }
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t sum = _mm_cvtsi128_si32(s) - 128 * QuerySumPrefix(a, i);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// The scan inner loop. Per-row costs the pairwise entry point pays are
// hoisted or restructured away:
//   - the query loads and its correction sum are shared across the call;
//   - rows run four at a time, amortizing loads and loop control and
//     hiding the maddubs latency behind four accumulators;
//   - the four horizontal sums collapse through one hadd tree into a
//     single 4-lane store (and the shared correction folds in with one
//     vector subtract).
__attribute__((target("avx2"))) void BatchedQuantizedDotRowsAvx2(
    const int8_t* q, const int8_t* codes, size_t cols, const int* rows,
    size_t nrows, int32_t* out) {
  const __m256i k80 = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i ones = _mm256_set1_epi16(1);
  const __m128i k80s = _mm256_castsi256_si128(k80);
  const __m128i ones_s = _mm256_castsi256_si128(ones);
  const size_t simd_cols = cols - cols % 8;
  const __m128i corr = _mm_set1_epi32(128 * QuerySumPrefix(q, simd_cols));

  size_t r = 0;
  for (; r + 4 <= nrows; r += 4) {
    const int8_t* row0 = codes + static_cast<size_t>(rows[r]) * cols;
    const int8_t* row1 = codes + static_cast<size_t>(rows[r + 1]) * cols;
    const int8_t* row2 = codes + static_cast<size_t>(rows[r + 2]) * cols;
    const int8_t* row3 = codes + static_cast<size_t>(rows[r + 3]) * cols;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 32 <= cols; i += 32) {
      const __m256i qv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(
                    _mm256_maddubs_epi16(
                        _mm256_xor_si256(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(row0 + i)),
                            k80),
                        qv),
                    ones));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(
                    _mm256_maddubs_epi16(
                        _mm256_xor_si256(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(row1 + i)),
                            k80),
                        qv),
                    ones));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(
                    _mm256_maddubs_epi16(
                        _mm256_xor_si256(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(row2 + i)),
                            k80),
                        qv),
                    ones));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(
                    _mm256_maddubs_epi16(
                        _mm256_xor_si256(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(row3 + i)),
                            k80),
                        qv),
                    ones));
    }
    if (i + 16 <= cols) {
      const __m128i qv =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              row0 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              row1 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              row2 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              row3 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      i += 16;
    }
    if (i + 8 <= cols) {
      // 64-bit loads zero the upper bytes; the query side stays 0 there,
      // so the shifted garbage lanes of the row side multiply to 0.
      const __m128i qv =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadl_epi64(
                                          reinterpret_cast<const __m128i*>(
                                              row0 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadl_epi64(
                                          reinterpret_cast<const __m128i*>(
                                              row1 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadl_epi64(
                                          reinterpret_cast<const __m128i*>(
                                              row2 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_zextsi128_si256(_mm_madd_epi16(
                    _mm_maddubs_epi16(
                        _mm_xor_si128(_mm_loadl_epi64(
                                          reinterpret_cast<const __m128i*>(
                                              row3 + i)),
                                      k80s),
                        qv),
                    ones_s)));
      i += 8;
    }
    // hadd tree: two in-lane levels then one cross-lane fold leave
    // [sum0, sum1, sum2, sum3] in one vector; the shared unsigned-shift
    // correction comes off all four lanes with one subtract.
    const __m256i h01 = _mm256_hadd_epi32(acc0, acc1);
    const __m256i h23 = _mm256_hadd_epi32(acc2, acc3);
    const __m256i h = _mm256_hadd_epi32(h01, h23);
    __m128i t = _mm_sub_epi32(
        _mm_add_epi32(_mm256_castsi256_si128(h),
                      _mm256_extracti128_si256(h, 1)),
        corr);
    if (i < cols) {
      int32_t tail[4] = {0, 0, 0, 0};
      for (; i < cols; ++i) {
        tail[0] += static_cast<int32_t>(row0[i]) * static_cast<int32_t>(q[i]);
        tail[1] += static_cast<int32_t>(row1[i]) * static_cast<int32_t>(q[i]);
        tail[2] += static_cast<int32_t>(row2[i]) * static_cast<int32_t>(q[i]);
        tail[3] += static_cast<int32_t>(row3[i]) * static_cast<int32_t>(q[i]);
      }
      t = _mm_add_epi32(
          t, _mm_loadu_si128(reinterpret_cast<const __m128i*>(tail)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r), t);
  }
  for (; r < nrows; ++r) {
    out[r] =
        QuantizedDotAvx2(q, codes + static_cast<size_t>(rows[r]) * cols, cols);
  }
}

#endif  // TABBIN_KERNELS_X86

#if TABBIN_KERNELS_NEON

// --- NEON (aarch64) -----------------------------------------------------
// Advanced SIMD is mandatory on aarch64, so no runtime probe is needed.

float DotNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void AxpyNeon(float a, const float* x, float* y, size_t n) {
  const float32x4_t av = vdupq_n_f32(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void GemmNeon(const float* A, const float* B, float* C, int n, int k,
              int m) {
  for (int i = 0; i < n; ++i) {
    const float* arow = A + static_cast<size_t>(i) * k;
    float* crow = C + static_cast<size_t>(i) * m;
    int kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float32x4_t a0 = vdupq_n_f32(arow[kk]);
      const float32x4_t a1 = vdupq_n_f32(arow[kk + 1]);
      const float32x4_t a2 = vdupq_n_f32(arow[kk + 2]);
      const float32x4_t a3 = vdupq_n_f32(arow[kk + 3]);
      const float* b0 = B + static_cast<size_t>(kk) * m;
      const float* b1 = b0 + m;
      const float* b2 = b1 + m;
      const float* b3 = b2 + m;
      int j = 0;
      for (; j + 4 <= m; j += 4) {
        float32x4_t c = vld1q_f32(crow + j);
        c = vfmaq_f32(c, a0, vld1q_f32(b0 + j));
        c = vfmaq_f32(c, a1, vld1q_f32(b1 + j));
        c = vfmaq_f32(c, a2, vld1q_f32(b2 + j));
        c = vfmaq_f32(c, a3, vld1q_f32(b3 + j));
        vst1q_f32(crow + j, c);
      }
      for (; j < m; ++j) {
        float c = crow[j];
        c = std::fma(arow[kk], b0[j], c);
        c = std::fma(arow[kk + 1], b1[j], c);
        c = std::fma(arow[kk + 2], b2[j], c);
        c = std::fma(arow[kk + 3], b3[j], c);
        crow[j] = c;
      }
    }
    for (; kk < k; ++kk) {
      const float32x4_t av = vdupq_n_f32(arow[kk]);
      const float* brow = B + static_cast<size_t>(kk) * m;
      int j = 0;
      for (; j + 4 <= m; j += 4) {
        vst1q_f32(crow + j,
                  vfmaq_f32(vld1q_f32(crow + j), av, vld1q_f32(brow + j)));
      }
      for (; j < m; ++j) crow[j] = std::fma(arow[kk], brow[j], crow[j]);
    }
  }
}

// Int8 dot on NEON: vmull_s8 widens 8 x (s8 * s8) to int16 (max
// magnitude 127 * 127, no overflow), vpadalq_s16 pair-accumulates into
// int32 lanes. Exact integer arithmetic — bit-identical to the scalar
// loop. (sdot would need the optional DotProd extension; the widening
// form is baseline Advanced SIMD and exact everywhere.)
int32_t QuantizedDotNeon(const int8_t* a, const int8_t* b, size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
  }
  for (; i + 8 <= n; i += 8) {
    acc = vpadalq_s16(acc, vmull_s8(vld1_s8(a + i), vld1_s8(b + i)));
  }
  int32_t sum = vaddvq_s32(acc);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// vmull_s8 already widens for free, so the NEON scan needs no query
// pre-widening — only the hoisted dispatch.
void BatchedQuantizedDotRowsNeon(const int8_t* q, const int8_t* codes,
                                 size_t cols, const int* rows, size_t nrows,
                                 int32_t* out) {
  for (size_t i = 0; i < nrows; ++i) {
    out[i] =
        QuantizedDotNeon(q, codes + static_cast<size_t>(rows[i]) * cols, cols);
  }
}

#endif  // TABBIN_KERNELS_NEON

// --- Dispatch table -----------------------------------------------------

struct KernelTable {
  float (*dot)(const float*, const float*, size_t);
  void (*axpy)(float, const float*, float*, size_t);
  void (*gemm)(const float*, const float*, float*, int, int, int);
  int32_t (*qdot)(const int8_t*, const int8_t*, size_t);
  void (*qdot_rows)(const int8_t*, const int8_t*, size_t, const int*, size_t,
                    int32_t*);
};

constexpr KernelTable kScalarTable = {DotScalar, AxpyScalar, GemmScalar,
                                      QuantizedDotScalar,
                                      BatchedQuantizedDotRowsScalar};

const KernelTable& TableFor(Dispatch d) {
#if TABBIN_KERNELS_X86
  static constexpr KernelTable kAvx2Table = {DotAvx2, AxpyAvx2, GemmAvx2,
                                             QuantizedDotAvx2,
                                             BatchedQuantizedDotRowsAvx2};
  if (d == Dispatch::kAvx2) return kAvx2Table;
#endif
#if TABBIN_KERNELS_NEON
  static constexpr KernelTable kNeonTable = {DotNeon, AxpyNeon, GemmNeon,
                                             QuantizedDotNeon,
                                             BatchedQuantizedDotRowsNeon};
  if (d == Dispatch::kNeon) return kNeonTable;
#endif
  (void)d;
  return kScalarTable;
}

const KernelTable& ActiveTable() {
  static const KernelTable* table = &TableFor(Active());
  return *table;
}

}  // namespace

Dispatch Detect(bool force_scalar) {
  if (force_scalar) return Dispatch::kScalar;
#if TABBIN_KERNELS_X86 && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Dispatch::kAvx2;
  }
#endif
#if TABBIN_KERNELS_NEON
  return Dispatch::kNeon;
#endif
  return Dispatch::kScalar;
}

Dispatch Active() {
  // Resolved exactly once: the whole process computes at one level, the
  // precondition for the serving layer's byte-identical equivalences.
  static const Dispatch level = [] {
    const char* env = std::getenv("TABBIN_FORCE_SCALAR");
    return Detect(env != nullptr && env[0] == '1' && env[1] == '\0');
  }();
  return level;
}

const char* DispatchName(Dispatch d) {
  switch (d) {
    case Dispatch::kScalar:
      return "scalar";
    case Dispatch::kAvx2:
      return "avx2";
    case Dispatch::kNeon:
      return "neon";
  }
  return "unknown";
}

float Dot(const float* a, const float* b, size_t n) {
  return ActiveTable().dot(a, b, n);
}

float SquaredNorm(const float* x, size_t n) {
  // Literally Dot(x, x): one inner kernel means a cached norm and a
  // freshly computed one can never disagree.
  return ActiveTable().dot(x, x, n);
}

float InvNorm(const float* x, size_t n) {
  const float sq = SquaredNorm(x, n);
  return sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
}

void Axpy(float a, const float* x, float* y, size_t n) {
  ActiveTable().axpy(a, x, y, n);
}

void MatVec(const float* m, size_t nrows, size_t cols, const float* q,
            float* out) {
  const auto dot = ActiveTable().dot;
  for (size_t r = 0; r < nrows; ++r) out[r] = dot(m + r * cols, q, cols);
}

void BatchedDotRows(const float* q, const float* m, size_t cols,
                    const int* rows, size_t nrows, float* out) {
  const auto dot = ActiveTable().dot;
  for (size_t i = 0; i < nrows; ++i) {
    out[i] = dot(q, m + static_cast<size_t>(rows[i]) * cols, cols);
  }
}

void BatchedCosineRows(const float* q, float inv_q, const float* m,
                       size_t cols, const int* rows, size_t nrows,
                       const float* row_inv_norms, float* out) {
  const auto dot = ActiveTable().dot;
  for (size_t i = 0; i < nrows; ++i) {
    const size_t r = static_cast<size_t>(rows[i]);
    // (dot * inv_q) * inv_row — the exact expression CosineSimilarity
    // evaluates, in the same order, through the same dot kernel.
    out[i] = dot(q, m + r * cols, cols) * inv_q * row_inv_norms[r];
  }
}

void Gemm(const float* A, const float* B, float* C, int n, int k, int m) {
  ActiveTable().gemm(A, B, C, n, k, m);
}

RowQuantParams QuantizeRowAffine(const float* x, size_t n, int8_t* out) {
  RowQuantParams p;
  if (n == 0) return p;
  float lo = x[0], hi = x[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (hi == lo) {
    if (lo == 0.0f) {
      // Zero row: codes 0 decode to exactly 0 with any scale.
      for (size_t i = 0; i < n; ++i) out[i] = 0;
      return p;
    }
    // Constant row: one code value reproduces it exactly.
    p.scale = std::fabs(lo) / 127.0f;
    p.zero = 0;
    const int8_t c = lo > 0 ? 127 : -127;
    for (size_t i = 0; i < n; ++i) out[i] = c;
    return p;
  }
  // Affine map of [lo, hi] onto [-127, 127] (never -128: its negation
  // is not an int8, and keeping the range symmetric means saturating
  // extremes stay exactly representable).
  p.scale = (hi - lo) / 254.0f;
  const double inv_scale = 1.0 / static_cast<double>(p.scale);
  p.zero = static_cast<int32_t>(
      std::lround(-127.0 - static_cast<double>(lo) * inv_scale));
  for (size_t i = 0; i < n; ++i) {
    long c = std::lround(static_cast<double>(x[i]) * inv_scale) +
             static_cast<long>(p.zero);
    if (c < -127) c = -127;
    if (c > 127) c = 127;
    out[i] = static_cast<int8_t>(c);
  }
  return p;
}

QueryQuantParams QuantizeSymmetric(const float* x, size_t n, int8_t* out) {
  QueryQuantParams p;
  float amax = 0.0f;
  for (size_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(x[i]));
  if (amax == 0.0f) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return p;  // scale 0: the zero query scores 0 everywhere, like cosine
  }
  // [-63, 63], not [-127, 127]: the reduced query range is what lets
  // the AVX2 scan use vpmaddubsw with zero saturation (see kernels.h).
  // Rows keep full 8-bit precision; the query loses one bit, which the
  // scan -> shortlist -> rerank contract absorbs (final scores are
  // float-exact regardless).
  p.scale = amax / 63.0f;
  const double inv_scale = 1.0 / static_cast<double>(p.scale);
  for (size_t i = 0; i < n; ++i) {
    long c = std::lround(static_cast<double>(x[i]) * inv_scale);
    if (c < -63) c = -63;
    if (c > 63) c = 63;
    out[i] = static_cast<int8_t>(c);
    p.code_sum += static_cast<int32_t>(out[i]);
  }
  return p;
}

int32_t QuantizedDot(const int8_t* a, const int8_t* b, size_t n) {
  return ActiveTable().qdot(a, b, n);
}

void BatchedQuantizedDotRows(const int8_t* q, const int8_t* codes,
                             size_t cols, const int* rows, size_t nrows,
                             int32_t* out) {
  ActiveTable().qdot_rows(q, codes, cols, rows, nrows, out);
}

float DotAt(Dispatch d, const float* a, const float* b, size_t n) {
  return TableFor(d).dot(a, b, n);
}

float SquaredNormAt(Dispatch d, const float* x, size_t n) {
  return TableFor(d).dot(x, x, n);
}

void AxpyAt(Dispatch d, float a, const float* x, float* y, size_t n) {
  TableFor(d).axpy(a, x, y, n);
}

void GemmAt(Dispatch d, const float* A, const float* B, float* C, int n,
            int k, int m) {
  TableFor(d).gemm(A, B, C, n, k, m);
}

void MatVecAt(Dispatch d, const float* m, size_t nrows, size_t cols,
              const float* q, float* out) {
  const auto dot = TableFor(d).dot;
  for (size_t r = 0; r < nrows; ++r) out[r] = dot(m + r * cols, q, cols);
}

void BatchedCosineRowsAt(Dispatch d, const float* q, float inv_q,
                         const float* m, size_t cols, const int* rows,
                         size_t nrows, const float* row_inv_norms,
                         float* out) {
  const auto dot = TableFor(d).dot;
  for (size_t i = 0; i < nrows; ++i) {
    const size_t r = static_cast<size_t>(rows[i]);
    out[i] = dot(q, m + r * cols, cols) * inv_q * row_inv_norms[r];
  }
}

int32_t QuantizedDotAt(Dispatch d, const int8_t* a, const int8_t* b,
                       size_t n) {
  return TableFor(d).qdot(a, b, n);
}

}  // namespace kernels
}  // namespace tabbin
