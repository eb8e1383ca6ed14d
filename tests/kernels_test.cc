// SIMD kernel layer: dispatch resolution, SIMD-vs-scalar numerical
// agreement, batched-vs-pairwise bit-identity, and the EmbeddingMatrix
// inverse-norm cache that the batched cosine paths depend on.
#include "tensor/kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/embedding_matrix.h"
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
