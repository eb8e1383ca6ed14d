// SIMD kernel layer: dispatch resolution, SIMD-vs-scalar numerical
// agreement, batched-vs-pairwise bit-identity, the AVX2 tanh/exp ports
// against libm, and the EmbeddingMatrix inverse-norm cache that the
// batched cosine paths depend on.
#include "tensor/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "gtest/gtest.h"
#include "tensor/embedding_matrix.h"
#include "tensor/libm_avx2.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace tabbin {
namespace {

using kernels::Dispatch;

// Lengths that cross every tail-handling boundary of the vector loops:
// below one lane, exactly one AVX lane, one-past, odd primes, and a
// length long enough for multi-accumulator drift to show.
const size_t kLengths[] = {1, 7, 8, 9, 31, 64, 1000};

std::vector<float> RandomVec(Rng* rng, size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

// Ulp-scaled tolerance for a length-n float reduction: each of the ~n
// partial sums can be off by half an ulp of the running magnitude, and
// FMA contraction shifts individual terms by at most one ulp. The
// magnitude is the sum of |a_i * b_i| (cancellation makes the RESULT
// small, not the rounding). A tiny absolute floor covers all-denormal
// inputs whose magnitude itself underflows.
double ReductionTolerance(const std::vector<float>& a,
                          const std::vector<float>& b) {
  double mag = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    mag += std::fabs(static_cast<double>(a[i]) * b[i]);
  }
  return 4.0 * std::numeric_limits<float>::epsilon() * mag *
             std::sqrt(static_cast<double>(a.size())) +
         1e-35;
}

double ReferenceDot(const std::vector<float>& a,
                    const std::vector<float>& b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

// The non-scalar level this hardware supports, if any.
bool SimdLevel(Dispatch* out) {
  const Dispatch d = kernels::Detect(/*force_scalar=*/false);
  if (d == Dispatch::kScalar) return false;
  *out = d;
  return true;
}

TEST(KernelDispatchTest, ForceScalarChangesTheOutcome) {
  // Detect is the pure probe behind Active(): forcing scalar must beat
  // whatever the hardware offers.
  EXPECT_EQ(kernels::Detect(true), Dispatch::kScalar);
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_EQ(kernels::Detect(false), Dispatch::kAvx2);
  }
#elif defined(__aarch64__)
  EXPECT_EQ(kernels::Detect(false), Dispatch::kNeon);
#endif
}

TEST(KernelDispatchTest, ActiveHonorsEnvironment) {
  // The CI matrix runs this suite both ways; in-process we can only
  // observe the level the environment selected at first use.
  const char* env = std::getenv("TABBIN_FORCE_SCALAR");
  const bool forced = env != nullptr && env[0] == '1' && env[1] == '\0';
  EXPECT_EQ(kernels::Active(), kernels::Detect(forced));
  if (forced) {
    EXPECT_EQ(kernels::Active(), Dispatch::kScalar);
  }
}

TEST(KernelDispatchTest, NamesAreStable) {
  EXPECT_STREQ(kernels::DispatchName(Dispatch::kScalar), "scalar");
  EXPECT_STREQ(kernels::DispatchName(Dispatch::kAvx2), "avx2");
  EXPECT_STREQ(kernels::DispatchName(Dispatch::kNeon), "neon");
  EXPECT_NE(kernels::ActiveName(), nullptr);
}

TEST(KernelAgreementTest, DotSimdMatchesScalarAcrossLengths) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  Rng rng(42);
  for (size_t n : kLengths) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    const double ref = ReferenceDot(a, b);
    const double tol = ReductionTolerance(a, b);
    EXPECT_NEAR(kernels::DotAt(simd, a.data(), b.data(), n), ref, tol)
        << "simd, n=" << n;
    EXPECT_NEAR(kernels::DotAt(Dispatch::kScalar, a.data(), b.data(), n),
                ref, tol)
        << "scalar, n=" << n;
  }
}

TEST(KernelAgreementTest, DotZeroVectorsAreExact) {
  Dispatch simd = Dispatch::kScalar;
  const bool has_simd = SimdLevel(&simd);
  for (size_t n : kLengths) {
    std::vector<float> zero(n, 0.0f);
    std::vector<float> other(n, 3.5f);
    EXPECT_EQ(
        kernels::DotAt(Dispatch::kScalar, zero.data(), other.data(), n),
        0.0f);
    if (has_simd) {
      EXPECT_EQ(kernels::DotAt(simd, zero.data(), other.data(), n), 0.0f);
    }
    EXPECT_EQ(kernels::InvNorm(zero.data(), n), 0.0f) << "n=" << n;
  }
}

TEST(KernelAgreementTest, DotDenormalsAgree) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  for (size_t n : kLengths) {
    // Products of denormals underflow identically on paths that do not
    // flush to zero; neither kernel path touches MXCSR/FPCR, so both
    // must agree within the absolute floor of the tolerance.
    std::vector<float> a(n, 1e-40f);
    std::vector<float> b(n, 2e-38f);
    const double ref = ReferenceDot(a, b);
    const double tol = ReductionTolerance(a, b);
    EXPECT_NEAR(kernels::DotAt(simd, a.data(), b.data(), n), ref, tol);
    EXPECT_NEAR(kernels::DotAt(Dispatch::kScalar, a.data(), b.data(), n),
                ref, tol);
  }
}

TEST(KernelAgreementTest, SquaredNormSimdMatchesScalar) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  Rng rng(43);
  for (size_t n : kLengths) {
    const auto x = RandomVec(&rng, n);
    const double ref = ReferenceDot(x, x);
    const double tol = ReductionTolerance(x, x);
    EXPECT_NEAR(kernels::SquaredNormAt(simd, x.data(), n), ref, tol);
    EXPECT_NEAR(kernels::SquaredNormAt(Dispatch::kScalar, x.data(), n), ref,
                tol);
    // SquaredNorm is defined as Dot(x, x) — bit-identical, not merely
    // close.
    EXPECT_EQ(kernels::SquaredNorm(x.data(), n),
              kernels::Dot(x.data(), x.data(), n));
  }
}

TEST(KernelAgreementTest, AxpySimdMatchesScalar) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  Rng rng(44);
  for (size_t n : kLengths) {
    const auto x = RandomVec(&rng, n);
    const auto y0 = RandomVec(&rng, n);
    const float alpha = 0.37f;
    std::vector<float> ys = y0, yv = y0;
    kernels::AxpyAt(Dispatch::kScalar, alpha, x.data(), ys.data(), n);
    kernels::AxpyAt(simd, alpha, x.data(), yv.data(), n);
    for (size_t i = 0; i < n; ++i) {
      // Per element: one fma vs one mul+add — at most an ulp apart.
      const double tol =
          4.0 * std::numeric_limits<float>::epsilon() *
              (std::fabs(static_cast<double>(alpha) * x[i]) +
               std::fabs(y0[i])) +
          1e-35;
      EXPECT_NEAR(ys[i], yv[i], tol) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelAgreementTest, GemmSimdMatchesScalar) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  Rng rng(45);
  // Dimensions straddle the 4-wide k blocking and the 8-wide j lanes.
  const int dims[][3] = {{1, 1, 1}, {3, 5, 7},  {4, 8, 16},
                         {9, 31, 9}, {2, 4, 8}, {5, 17, 23}};
  for (const auto& d : dims) {
    const int n = d[0], k = d[1], m = d[2];
    const auto a = RandomVec(&rng, static_cast<size_t>(n) * k);
    const auto b = RandomVec(&rng, static_cast<size_t>(k) * m);
    std::vector<float> cs(static_cast<size_t>(n) * m, 0.0f);
    std::vector<float> cv(static_cast<size_t>(n) * m, 0.0f);
    kernels::GemmAt(Dispatch::kScalar, a.data(), b.data(), cs.data(), n, k,
                    m);
    kernels::GemmAt(simd, a.data(), b.data(), cv.data(), n, k, m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        double mag = 0;
        for (int kk = 0; kk < k; ++kk) {
          mag += std::fabs(
              static_cast<double>(a[static_cast<size_t>(i) * k + kk]) *
              b[static_cast<size_t>(kk) * m + j]);
        }
        const double tol =
            4.0 * std::numeric_limits<float>::epsilon() * mag *
                std::sqrt(static_cast<double>(k)) +
            1e-35;
        EXPECT_NEAR(cs[static_cast<size_t>(i) * m + j],
                    cv[static_cast<size_t>(i) * m + j], tol)
            << n << "x" << k << "x" << m << " at (" << i << "," << j << ")";
      }
    }
  }
}

// The SIMD GEMM contract is exact, not a tolerance: every element of C
// is the std::fma chain over ascending k, starting from C's old value,
// wherever it falls in the register blocking (4-row blocks and the row
// tail, 16- and 8-wide column blocks and the m % 8 column tail). This is
// what the tape-free encoder path relies on to reproduce the tape's
// embeddings bit for bit.
TEST(KernelAgreementTest, GemmSimdIsBitIdenticalToFmaChain) {
  Dispatch simd;
  if (!SimdLevel(&simd)) GTEST_SKIP() << "no SIMD level on this hardware";
  Rng rng(47);
  for (int trial = 0; trial < 300; ++trial) {
    // Random shapes straddling n % 4, k % 4, m % 8 and m % 16.
    const int n = static_cast<int>(rng.UniformInt(1, 13));
    const int k = static_cast<int>(rng.UniformInt(1, 41));
    const int m = static_cast<int>(rng.UniformInt(1, 53));
    const auto a = RandomVec(&rng, static_cast<size_t>(n) * k);
    const auto b = RandomVec(&rng, static_cast<size_t>(k) * m);
    // C starts non-zero to pin the accumulate semantics.
    const auto c0 = RandomVec(&rng, static_cast<size_t>(n) * m);
    std::vector<float> c = c0;
    kernels::GemmAt(simd, a.data(), b.data(), c.data(), n, k, m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        float want = c0[static_cast<size_t>(i) * m + j];
        for (int kk = 0; kk < k; ++kk) {
          want = std::fma(a[static_cast<size_t>(i) * k + kk],
                          b[static_cast<size_t>(kk) * m + j], want);
        }
        const float got = c[static_cast<size_t>(i) * m + j];
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
            << n << "x" << k << "x" << m << " at (" << i << "," << j
            << "): " << got << " vs fma chain " << want;
      }
    }
  }
}

// --- Encoder transcendentals: the AVX2 ports return libm's bits ------
// The AVX2 level evaluates tanh and exp with lane-wise ports of glibc's
// float code (tensor/libm_avx2.h); the scalar level calls std::tanh and
// std::exp. Every comparison is memcmp, NaN payloads included. A libm
// that rounds differently must fail here, loudly, never pass silently:
// each failure names the running libm. tests/libm_sweep.cc covers every
// input; these sample it cheaply enough for tier 1.

std::string LibmName() {
#if defined(__GLIBC__)
  return std::string("glibc ") + gnu_get_libc_version();
#else
  return "a libm that is not glibc";
#endif
}

bool HaveAvx2() { return kernels::Detect(false) == Dispatch::kAvx2; }

#if TABBIN_LIBM_AVX2

namespace port = kernels::libm_avx2;

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

uint32_t ToBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Runs the AVX2 port over `in` and counts the outputs whose bits differ
// from `reference`; the first few are reported individually.
size_t CountLibmMismatches(const char* name,
                           void (*port)(const float*, float*, size_t),
                           float (*reference)(float),
                           const std::vector<float>& in) {
  std::vector<float> out(in.size());
  port(in.data(), out.data(), in.size());
  size_t bad = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    const float want = reference(in[i]);
    if (std::memcmp(&want, &out[i], sizeof(float)) == 0) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << std::hex << name << "(0x" << ToBits(in[i])
                    << ") = 0x" << ToBits(out[i]) << ", but libm gives 0x"
                    << ToBits(want) << " (" << LibmName() << ")";
    }
  }
  return bad;
}

float StdTanh(float x) { return std::tanh(x); }
float StdExp(float x) { return std::exp(x); }

// Bit patterns center - radius .. center + radius, with and without the
// sign bit.
void AddWindow(std::vector<float>* in, uint32_t center, uint32_t radius) {
  for (uint32_t u = center - radius; u != center + radius + 1; ++u) {
    in->push_back(FromBits(u & 0x7fffffffu));
    in->push_back(FromBits(u | 0x80000000u));
  }
}

// Zeros, infinities and NaNs (quiet, signalling, either sign).
void AddSpecials(std::vector<float>* in) {
  for (uint32_t u : {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
                     0x7fc00000u, 0xffc00000u, 0x7f800001u, 0xff800001u,
                     0x7fa00000u, 0x7fffffffu, 0xffffffffu}) {
    in->push_back(FromBits(u));
  }
}

TEST(LibmPortTest, TanhMatchesLibmOnEvery97thFloat) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  constexpr uint64_t kStride = 97, kChunk = 1 << 16;
  size_t bad = 0;
  std::vector<float> in;
  for (uint64_t u = 0; u <= 0xffffffffull;) {
    in.clear();
    for (; u <= 0xffffffffull && in.size() < kChunk; u += kStride) {
      in.push_back(FromBits(static_cast<uint32_t>(u)));
    }
    bad += CountLibmMismatches("tanh", port::Tanh, StdTanh, in);
  }
  EXPECT_EQ(bad, 0u) << "tanh mismatches against " << LibmName();
}

// Dense windows around every branch of fdlibm tanhf and of the expm1f it
// calls with 2|x|: each cut-off c of expm1f sits at |x| = c / 2, which is
// c's bit pattern with the exponent lowered by one.
TEST(LibmPortTest, TanhMatchesLibmAroundEveryBranch) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  constexpr uint32_t kRadius = 4096, kHalve = 0x00800000;
  std::vector<float> in;
  // tanhf: 2^-55, 1 and 22.
  for (uint32_t c : {0x24000000u, 0x3f800000u, 0x41b00000u}) {
    AddWindow(&in, c, kRadius);
  }
  // expm1f: 2^-25, 0.5 ln2, 1.5 ln2 and 27 ln2.
  for (uint32_t c : {0x33000000u, 0x3eb17219u, 0x3f851592u, 0x4195b844u}) {
    AddWindow(&in, c - kHalve, kRadius);
  }
  // expm1f's reduction k = (int)(2|x| / ln2 + 0.5) steps at
  // 2|x| = (k - 0.5) ln2; k = 23 and k = 57 switch its reconstruction.
  for (int k = 3; k <= 64; ++k) {
    const float x = (static_cast<float>(k) - 0.5f) / 1.4426950216e+00f / 2;
    AddWindow(&in, ToBits(x), kRadius);
  }
  AddSpecials(&in);
  EXPECT_EQ(CountLibmMismatches("tanh", port::Tanh, StdTanh, in), 0u)
      << "tanh mismatches against " << LibmName();
}

TEST(LibmPortTest, ExpMatchesLibmOnEvery7thFloatDownToMinus1000) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  constexpr uint32_t kStride = 7, kChunk = 1 << 16;
  const uint32_t last = ToBits(-1000.0f);  // negative floats ascend
  size_t bad = 0;
  std::vector<float> in = {0.0f};
  for (uint64_t u = ToBits(-0.0f); u <= last;) {
    for (; u <= last && in.size() < kChunk; u += kStride) {
      in.push_back(FromBits(static_cast<uint32_t>(u)));
    }
    bad += CountLibmMismatches("exp", port::Exp, StdExp, in);
    in.clear();
  }
  EXPECT_EQ(bad, 0u) << "exp mismatches against " << LibmName();
}

// Windows at exp's special-case thresholds: log(0x1p-150) (zero below),
// log(0x1p-149) (the smallest subnormal below), the subnormal onset
// log(FLT_MIN), zero, and the overflow threshold. Plus the one input in
// [-1000, 0] where an unfused argument reduction (x 32/ln2 rounded
// before k is subtracted) returns a different float.
TEST(LibmPortTest, ExpMatchesLibmAtItsThresholds) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  constexpr uint32_t kRadius = 4096;
  std::vector<float> in = {-0x1.f8cbb2p+5f};
  for (float c : {-0x1.9fe368p6f, -0x1.9d1d9ep6f,
                  std::log(std::numeric_limits<float>::min()), 0.0f,
                  0x1.62e42ep6f}) {
    AddWindow(&in, ToBits(std::fabs(c)) + kRadius * (c == 0.0f), kRadius);
  }
  AddSpecials(&in);
  EXPECT_EQ(CountLibmMismatches("exp", port::Exp, StdExp, in), 0u)
      << "exp mismatches against " << LibmName();
}

#endif  // TABBIN_LIBM_AVX2

// GELU and the softmax row against the scalar level (std::tanh and
// std::exp inside): every length 0-17 covers the masked 8-lane tails.
TEST(LibmPortTest, GeluMatchesScalarAtEveryTailLength) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  Rng rng(49);
  for (size_t n = 0; n <= 17; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<float> want = RandomVec(&rng, n, 3.0f);
      if (n > 0 && trial == 0) want[n - 1] = -0.0f;
      std::vector<float> got = want;
      kernels::GeluInPlaceAt(Dispatch::kScalar, want.data(), n);
      kernels::GeluInPlaceAt(Dispatch::kAvx2, got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
            << "n=" << n << " i=" << i << ": " << got[i] << " vs scalar "
            << want[i] << " (" << LibmName() << ")";
      }
    }
  }
}

TEST(LibmPortTest, SoftmaxRowMatchesScalar) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2+FMA on this hardware";
  Rng rng(50);
  const float scale = 1.0f / std::sqrt(18.0f);
  for (size_t n = 1; n <= 97; ++n) {
    // No bias; an attention visibility bias (0 visible, -1e9 masked,
    // with the diagonal-like first entry always visible); random biases.
    std::vector<float> visibility(n), random_bias = RandomVec(&rng, n, 2.0f);
    for (size_t c = 0; c < n; ++c) {
      visibility[c] = c == 0 || rng.Bernoulli(0.426) ? 0.0f : -1e9f;
    }
    const char* const kinds[] = {"none", "visibility", "random"};
    const float* const biases[] = {nullptr, visibility.data(),
                                   random_bias.data()};
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<float> want = RandomVec(&rng, n, 4.0f);
      std::vector<float> got = want;
      kernels::ScaledSoftmaxRowAt(Dispatch::kScalar, want.data(),
                                  biases[kind], n, scale);
      kernels::ScaledSoftmaxRowAt(Dispatch::kAvx2, got.data(), biases[kind],
                                  n, scale);
      for (size_t c = 0; c < n; ++c) {
        ASSERT_EQ(std::memcmp(&want[c], &got[c], sizeof(float)), 0)
            << "n=" << n << " c=" << c << " bias " << kinds[kind] << ": "
            << got[c] << " vs scalar " << want[c] << " ("
            << LibmName() << ")";
      }
    }
  }
}

TEST(KernelBatchedTest, BatchedVariantsAreBitIdenticalToDot) {
  Rng rng(46);
  const size_t cols = 31, rows = 12;
  EmbeddingMatrix m;
  for (size_t r = 0; r < rows; ++r) m.AppendRow(RandomVec(&rng, cols));
  const auto q = RandomVec(&rng, cols);

  std::vector<float> matvec(rows);
  kernels::MatVec(m.data(), rows, cols, q.data(), matvec.data());

  std::vector<int> idx = {0, 3, 7, 11, 1};
  std::vector<float> gathered(idx.size());
  kernels::BatchedDotRows(q.data(), m.data(), cols, idx.data(), idx.size(),
                          gathered.data());

  for (size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(matvec[r], kernels::Dot(m.row(r).data(), q.data(), cols));
  }
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(gathered[i],
              kernels::Dot(q.data(),
                           m.row(static_cast<size_t>(idx[i])).data(), cols));
  }
}

TEST(KernelBatchedTest, BatchedCosineBitIdenticalToPairwise) {
  // THE serving-layer invariant: the norm-free batched pass over cached
  // inverse norms must reproduce pairwise CosineSimilarity exactly —
  // the sharded equivalence suite and the exact-cosine property oracle
  // both assert scores with ASSERT_EQ, not NEAR.
  Rng rng(47);
  const size_t cols = 72;
  EmbeddingMatrix m;
  for (int r = 0; r < 40; ++r) m.AppendRow(RandomVec(&rng, cols));
  m.AppendRow(std::vector<float>(cols, 0.0f));  // zero row scores 0
  const auto q = RandomVec(&rng, cols);

  std::vector<int> rows_list;
  for (int r = 0; r < static_cast<int>(m.rows()); ++r) {
    rows_list.push_back(r);
  }
  std::vector<float> batched(rows_list.size());
  kernels::BatchedCosineRows(q.data(),
                             kernels::InvNorm(q.data(), q.size()), m.data(),
                             cols, rows_list.data(), rows_list.size(),
                             m.inv_norms(), batched.data());
  for (size_t i = 0; i < rows_list.size(); ++i) {
    EXPECT_EQ(batched[i], CosineSimilarity(q, m.row(i)))
        << "row " << i;
  }
  EXPECT_EQ(batched.back(), 0.0f);  // zero row
}

TEST(NormCacheTest, AppendSetRowAndAssignKeepTheCacheExact) {
  Rng rng(48);
  EmbeddingMatrix m;
  for (int r = 0; r < 5; ++r) m.AppendRow(RandomVec(&rng, 16));
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(m.inv_norm(r), kernels::InvNorm(m.row(r).data(), m.cols()));
  }
  // set_row refreshes exactly (including zero-padding a short input).
  m.set_row(2, RandomVec(&rng, 16));
  m.set_row(3, std::vector<float>{1.0f, 2.0f});  // padded with zeros
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(m.inv_norm(r), kernels::InvNorm(m.row(r).data(), m.cols()));
  }
  EXPECT_EQ(m.row(3)[2], 0.0f);
  // Assign rebuilds the cache for the new contents.
  const auto block = RandomVec(&rng, 3 * 8);
  m.Assign(3, 8, block.data());
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(m.inv_norm(r), kernels::InvNorm(m.row(r).data(), 8));
  }
  // Ragged append truncates, and the cache reflects the STORED row.
  m.AppendRow(RandomVec(&rng, 20));
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.inv_norm(3), kernels::InvNorm(m.row(3).data(), 8));
  // Raw mutation + explicit recompute.
  m.mutable_row(0)[0] += 10.0f;
  m.RecomputeInvNorms();
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(m.inv_norm(r), kernels::InvNorm(m.row(r).data(), 8));
  }
}

TEST(NormCacheTest, DeserializeRecomputesAndFormatIsUnchanged) {
  Rng rng(49);
  EmbeddingMatrix m;
  for (int r = 0; r < 4; ++r) m.AppendRow(RandomVec(&rng, 5));
  BinaryWriter w;
  m.Serialize(&w);

  // The byte stream is still exactly rows, cols, f32 data — no cache
  // fields; snapshots written before the cache existed parse, and new
  // snapshots are readable by the old geometry-only parser.
  BinaryReader manual(w.buffer());
  auto rows = manual.ReadU64();
  auto cols = manual.ReadU64();
  auto data = manual.ReadF32Vector();
  ASSERT_TRUE(rows.ok() && cols.ok() && data.ok());
  EXPECT_EQ(rows.value(), 4u);
  EXPECT_EQ(cols.value(), 5u);
  EXPECT_EQ(data.value().size(), 20u);
  EXPECT_EQ(manual.remaining(), 0u);

  BinaryReader r(w.buffer());
  auto loaded = EmbeddingMatrix::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < loaded.value().rows(); ++i) {
    EXPECT_EQ(loaded.value().inv_norm(i), m.inv_norm(i)) << "row " << i;
  }
}

}  // namespace
}  // namespace tabbin
