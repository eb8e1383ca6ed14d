// Runtime-dispatched SIMD kernel layer.
//
// Every dense distance computation in the codebase — exact cosine
// re-ranking in the serving shards, LSH hashing, clustering, RAG dense
// retrieval, and the encoder's MatMul — bottoms out in the primitives
// below. They are selected ONCE per process (cpuid on x86, compile
// target on aarch64) and then called through resolved function
// pointers, so every caller in the process computes with the same
// floating-point contraction behaviour:
//
//   * AVX2+FMA  on x86-64 hardware that supports it,
//   * NEON      on aarch64,
//   * portable scalar everywhere else, or when the environment variable
//     TABBIN_FORCE_SCALAR=1 is set (CI runs the full suite this way so
//     the fallback path cannot rot).
//
// Determinism contract: within one process the active level never
// changes, every kernel is deterministic for fixed inputs, and the
// batched variants perform bit-identical per-row arithmetic to their
// pairwise counterparts (BatchedCosineRows over row r equals
// CosineSimilarity(query, row_r) exactly). This is what preserves the
// serving layer's N-shard == 1-shard byte-identical equivalence: all
// shards, the single-shard service, and every test oracle score through
// the same kernel table. Across dispatch levels results differ by
// rounding only (FMA contraction, vectorized accumulation order);
// tests/kernels_test.cc bounds the divergence.
#ifndef TABBIN_TENSOR_KERNELS_H_
#define TABBIN_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace tabbin {
namespace kernels {

enum class Dispatch { kScalar, kAvx2, kNeon };

/// \brief Pure capability probe: the level that would be selected given
/// `force_scalar`. No global state — tests use it to assert that
/// TABBIN_FORCE_SCALAR actually changes the outcome.
Dispatch Detect(bool force_scalar);

/// \brief The process-wide level, resolved once on first use from the
/// hardware and the TABBIN_FORCE_SCALAR environment variable.
Dispatch Active();

const char* DispatchName(Dispatch d);
inline const char* ActiveName() { return DispatchName(Active()); }

// --- Primitives (active dispatch level) --------------------------------

/// \brief sum_i a[i] * b[i].
float Dot(const float* a, const float* b, size_t n);

/// \brief sum_i x[i]^2. Bit-identical to Dot(x, x, n).
float SquaredNorm(const float* x, size_t n);

/// \brief 1 / sqrt(SquaredNorm(x)), or 0 for the zero vector. The
/// cached per-row inverse norms in EmbeddingMatrix are produced by this
/// exact function, so a cached value and a freshly computed one are the
/// same bits.
float InvNorm(const float* x, size_t n);

/// \brief y[i] += a * x[i].
void Axpy(float a, const float* x, float* y, size_t n);

/// \brief out[r] = Dot(m + r * cols, q) for r in [0, nrows) — one
/// matrix-vector product over contiguous rows (LSH hashing against the
/// flat hyperplane block).
void MatVec(const float* m, size_t nrows, size_t cols, const float* q,
            float* out);

/// \brief out[i] = Dot(q, m + rows[i] * cols): gathered batched dots
/// over an arbitrary row subset — the norm-independent building block
/// under BatchedCosineRows, for callers that need raw inner products
/// (e.g. maximum-inner-product scoring) rather than cosines.
void BatchedDotRows(const float* q, const float* m, size_t cols,
                    const int* rows, size_t nrows, float* out);

/// \brief out[i] = (Dot(q, row_i) * inv_q) * row_inv_norms[rows[i]]
/// where row_i = m + rows[i] * cols. With inv_q = InvNorm(q) and cached
/// row norms this is bit-identical to CosineSimilarity(q, row_i) — the
/// norm-free batched candidate-scoring pass of the serving layer.
void BatchedCosineRows(const float* q, float inv_q, const float* m,
                       size_t cols, const int* rows, size_t nrows,
                       const float* row_inv_norms, float* out);

/// \brief C += A * B for row-major A [n, k], B [k, m], C [n, m].
/// Accumulates — the caller zeroes C for a plain product. Per output
/// element the k-dimension accumulates in ascending order at every
/// dispatch level, so results are deterministic for a fixed level. At
/// the SIMD levels every element is exactly the chain
/// c = std::fma(A[i][kk], B[kk][j], c) over kk = 0, 1, ..., k - 1,
/// whatever its position in the register blocking (tests/kernels_test.cc
/// pins this bit for bit); the scalar level multiplies and adds
/// separately.
void Gemm(const float* A, const float* B, float* C, int n, int k, int m);

// --- Int8 scalar-quantized tier ----------------------------------------
// The fast first-pass scorer behind the two-stage scan -> rerank query
// path: embedding rows are stored a second time as per-row affine int8
// codes (x_i ~= scale * (code_i - zero)), queries quantize symmetrically
// once per scan, and candidate scoring becomes an integer dot over 1/4
// of the bytes. Unlike the float kernels, the integer dot is EXACT:
// every dispatch level accumulates the same int32, so the quantized
// scan is bit-identical across scalar/AVX2/NEON — only the final float
// combine (a fixed-order expression evaluated once, outside the
// kernels) carries rounding at all.
//
// Range contract (what makes the AVX2 path both fast and exact):
//   - row codes stay in [-127, 127]; -128 is never emitted, so negation
//     and widening tricks cannot overflow, and the int32 accumulator is
//     exact for any n <= 130000 (127 * 127 * n < 2^31);
//   - query codes stay in [-63, 63] (QuantizeSymmetric enforces this).
//     With rows shifted to unsigned ([1, 255]) the vpmaddubsw pair sums
//     are bounded by 2 * 255 * 63 = 32130 < 32767 — the classic
//     maddubs saturation trap is impossible by construction, and one
//     exact integer correction (128 * query code sum) undoes the shift.
//     The query spends one precision bit to let the scan eat 32 codes
//     per instruction; rows (the side that costs memory) keep all 8.

/// \brief Per-row affine quantization parameters: x ~= scale * (code -
/// zero). `zero` is an integer so the dot-product correction term
/// (idot - zero * query_code_sum) stays in exact integer arithmetic.
struct RowQuantParams {
  float scale = 1.0f;
  int32_t zero = 0;
};

/// \brief Encodes one row with per-row min/max affine parameters.
/// Deterministic scalar code (not dispatched): codes are data, and data
/// must not depend on the hardware that produced it. out holds n codes.
RowQuantParams QuantizeRowAffine(const float* x, size_t n, int8_t* out);

/// \brief Symmetric query-side quantization: q_i ~= scale * code_i,
/// plus the code sum the affine correction term needs. scale == 0 for
/// the zero vector (all codes 0). Codes stay in [-63, 63] — the range
/// the AVX2 maddubs scan path requires (see the contract above).
struct QueryQuantParams {
  float scale = 0.0f;
  int32_t code_sum = 0;
};
QueryQuantParams QuantizeSymmetric(const float* x, size_t n, int8_t* out);

/// \brief sum_i a[i] * b[i] in exact int32 arithmetic — the same value
/// at every dispatch level (integer addition is associative). The
/// operands are NOT symmetric: `a` is the query side and must obey the
/// [-63, 63] query range (the AVX2 path shifts `b` to unsigned and
/// uses vpmaddubsw, which only the bounded query keeps saturation-free);
/// `b` may use the full [-127, 127] row range. NEON uses vmull_s8 +
/// pairwise accumulate, which is exact for any int8 inputs.
int32_t QuantizedDot(const int8_t* a, const int8_t* b, size_t n);

/// \brief out[i] = QuantizedDot(q, codes + rows[i] * cols): the
/// gathered batched form of the scan, mirroring BatchedDotRows.
void BatchedQuantizedDotRows(const int8_t* q, const int8_t* codes,
                             size_t cols, const int* rows, size_t nrows,
                             int32_t* out);

// --- Explicit-level variants -------------------------------------------
// For tests (SIMD vs scalar agreement) and the perf report. Calling a
// level the hardware does not support is undefined; guard with
// Detect(false).
float DotAt(Dispatch d, const float* a, const float* b, size_t n);
float SquaredNormAt(Dispatch d, const float* x, size_t n);
void AxpyAt(Dispatch d, float a, const float* x, float* y, size_t n);
void GemmAt(Dispatch d, const float* A, const float* B, float* C, int n,
            int k, int m);
void MatVecAt(Dispatch d, const float* m, size_t nrows, size_t cols,
              const float* q, float* out);
void BatchedCosineRowsAt(Dispatch d, const float* q, float inv_q,
                         const float* m, size_t cols, const int* rows,
                         size_t nrows, const float* row_inv_norms,
                         float* out);
int32_t QuantizedDotAt(Dispatch d, const int8_t* a, const int8_t* b,
                       size_t n);

}  // namespace kernels
}  // namespace tabbin

#endif  // TABBIN_TENSOR_KERNELS_H_
