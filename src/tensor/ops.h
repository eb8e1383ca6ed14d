// Differentiable tensor operations.
//
// Every op computes its output eagerly and, when any input requires grad
// and tape recording is enabled, registers a backward closure that
// accumulates into the inputs' gradient buffers.
//
// Shape conventions: activations are [n, d] matrices (sequence length n,
// hidden d); vectors are rank-1 [d].
#ifndef TABBIN_TENSOR_OPS_H_
#define TABBIN_TENSOR_OPS_H_

#include <vector>

#include "tensor/embedding_matrix.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tabbin {

/// \brief Elementwise a + b; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
/// \brief Elementwise sum of k tensors with identical shape.
Tensor AddN(const std::vector<Tensor>& xs);
/// \brief Elementwise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// \brief Elementwise a * b (Hadamard).
Tensor Mul(const Tensor& a, const Tensor& b);
/// \brief a * scalar.
Tensor Scale(const Tensor& a, float s);
/// \brief Adds a rank-1 bias [d] to every row of a [n, d] matrix.
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// \brief Matrix product [n, k] x [k, m] -> [n, m].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// \brief Matrix transpose [n, m] -> [m, n].
Tensor Transpose(const Tensor& a);

/// \brief Row-wise softmax of a [n, m] matrix.
///
/// \param additive_mask Optional [n, m] matrix added to the logits before
/// the softmax (0 for visible, large-negative for hidden positions). The
/// mask is treated as a constant. This is how the TabBiN visibility matrix
/// enters the attention computation (paper eq. (1)).
Tensor SoftmaxRows(const Tensor& x, const Tensor* additive_mask = nullptr);

/// \brief LayerNorm's variance epsilon (LayerNormOp's default).
inline constexpr float kLayerNormEps = 1e-5f;

/// \brief Layer normalization over the last dimension of [n, d].
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = kLayerNormEps);

/// \brief Gaussian error linear unit (tanh approximation, as in BERT).
Tensor Gelu(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor TanhOp(const Tensor& x);

// The forward arithmetic of LayerNormOp and Gelu on raw row-major
// buffers. The ops call these, and so does the tape-free inference path
// (TransformerEncoderLayer::ForwardInference), so the two compute the
// same floats by construction. `out` may alias `x`.

/// \brief out = LayerNorm(x) over each row of x [n, d]; `mean` and
/// `rstd` (n each, optional) receive the per-row statistics.
void LayerNormForward(const float* x, int n, int d, const float* gamma,
                      const float* beta, float eps, float* out,
                      float* mean = nullptr, float* rstd = nullptr);

/// \brief out[i] = GELU(x[i]) for i in [0, n) (tanh approximation).
void GeluForward(const float* x, size_t n, float* out);

/// \brief Gathers rows of an embedding matrix: weight [V, d], ids (n) ->
/// [n, d]. Backward scatter-adds into the weight gradient.
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids);

/// \brief Concatenates matrices along columns: [n, d1], [n, d2] ->
/// [n, d1 + d2].
Tensor ConcatCols(const std::vector<Tensor>& xs);

/// \brief Selects rows by index: [n, d], (k) -> [k, d].
Tensor GatherRows(const Tensor& x, const std::vector<int>& rows);

/// \brief Contiguous row slice [start, start + len).
Tensor SliceRows(const Tensor& x, int start, int len);

/// \brief Mean over rows: [n, d] -> [d].
Tensor MeanRows(const Tensor& x);

/// \brief Sum of all elements -> scalar [1].
Tensor SumAll(const Tensor& x);
/// \brief Mean of all elements -> scalar [1].
Tensor MeanAll(const Tensor& x);

/// \brief Mean softmax cross-entropy of logits [n, V] against integer
/// targets; rows whose target equals `ignore_index` contribute nothing.
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets,
                              int ignore_index = -1);

/// \brief Inverted dropout; identity when !training or p == 0.
Tensor DropoutOp(const Tensor& x, float p, Rng* rng, bool training);

/// \brief Numerically stable sigmoid, elementwise.
Tensor Sigmoid(const Tensor& x);

/// \brief Mean binary cross-entropy of logits (n) against {0,1} labels.
Tensor BinaryCrossEntropyWithLogits(const Tensor& logits,
                                    const std::vector<float>& labels);

/// \brief Cosine similarity of two float spans (not differentiable).
/// Accepts owned vectors and EmbeddingMatrix rows alike via VecView.
float CosineSimilarity(VecView a, VecView b);
inline float CosineSimilarity(const std::vector<float>& a,
                              const std::vector<float>& b) {
  return CosineSimilarity(VecView(a), VecView(b));
}

}  // namespace tabbin

#endif  // TABBIN_TENSOR_OPS_H_
