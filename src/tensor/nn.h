// Neural-network building blocks on top of the autograd tensor.
//
// Modules own their parameters (tensors with requires_grad = true) and
// register them in a flat named-parameter map so optimizers and
// checkpointing can see the whole model uniformly.
#ifndef TABBIN_TENSOR_NN_H_
#define TABBIN_TENSOR_NN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace tabbin {

/// \brief Flat registry of named parameters (name -> tensor handle).
using ParameterMap = std::map<std::string, Tensor>;

/// \brief Scratch buffers of the tape-free inference forward, one set per
/// thread (ForThisThread). Buffers only grow, and nothing in them
/// outlives a call; weights are re-transposed into `wt` on every use, so
/// there is no cached state to invalidate after training or a Load.
struct InferenceWorkspace {
  std::vector<float> wt;         // transposed weight of the current Linear
  std::vector<float> q, k, v;    // [n, hidden] attention projections
  std::vector<float> qh, kt, vh;  // one head: [n, hd], [hd, n], [n, hd]
  std::vector<float> scores;     // [n, n]
  std::vector<float> head;       // [n, hd] one head's output
  std::vector<float> concat;     // [n, hidden] all heads' outputs
  std::vector<float> attn;       // [n, hidden] attention block output
  std::vector<float> inter;      // [n, intermediate]
  std::vector<float> ffn;        // [n, hidden] feed-forward output, E_fmt
  std::vector<float> features;   // small per-token inputs (format bits)
  std::vector<float> bias;       // [n, n] attention bias

  /// \brief The calling thread's workspace.
  static InferenceWorkspace& ForThisThread();

  /// \brief `buf` grown to at least n floats; its data pointer.
  static float* Get(std::vector<float>* buf, size_t n) {
    if (buf->size() < n) buf->resize(n);
    return buf->data();
  }
};

/// \brief Base class for layers; subclasses register parameters under a
/// caller-provided name prefix.
class Module {
 public:
  virtual ~Module() = default;

  /// \brief Appends this module's parameters into `out` with `prefix`.
  virtual void CollectParameters(const std::string& prefix,
                                 ParameterMap* out) const = 0;

  /// \brief Convenience: all parameters, rooted at an empty prefix.
  ParameterMap Parameters() const {
    ParameterMap out;
    CollectParameters("", &out);
    return out;
  }

  /// \brief Zeroes every parameter gradient.
  void ZeroGrad() {
    for (auto& [name, t] : Parameters()) {
      Tensor tt = t;
      tt.ZeroGrad();
    }
  }
};

/// \brief Affine map y = x W^T + b (W stored [out, in] like torch).
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;

  /// \brief Tape-free Forward: y [n, out] = x [n, in] W^T + b, with the
  /// float operations of Forward in the same order.
  void ForwardInference(const float* x, int n, float* y,
                        InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  Tensor weight;  ///< [out, in]
  Tensor bias;    ///< [out] (undefined when constructed without bias)

 private:
  int in_, out_;
  bool has_bias_;
};

/// \brief Token-id to vector lookup table.
class Embedding : public Module {
 public:
  Embedding(int num_embeddings, int dim, Rng* rng, float stddev = 0.02f);

  Tensor Forward(const std::vector<int>& ids) const {
    return EmbeddingLookup(weight, ids);
  }

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  int num_embeddings() const { return weight.dim(0); }
  int dim() const { return weight.dim(1); }
  Tensor weight;  ///< [V, d]
};

/// \brief Layer normalization with learned scale/shift.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor Forward(const Tensor& x) const {
    return LayerNormOp(x, gamma, beta);
  }

  /// \brief Tape-free Forward over x [n, dim], in place.
  void ForwardInference(float* x, int n) const {
    LayerNormForward(x, n, gamma.dim(0), gamma.data(), beta.data(),
                     kLayerNormEps, x);
  }

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  Tensor gamma;  ///< [d]
  Tensor beta;   ///< [d]
};

/// \brief Multi-head self-attention with an optional additive attention
/// bias (the TabBiN visibility matrix enters here; paper eq. (1)).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int hidden, int num_heads, Rng* rng);

  /// \param x [n, hidden] input activations.
  /// \param attn_bias Optional [n, n] additive bias applied to every
  /// head's pre-softmax scores (0 = visible, -1e9 = masked).
  Tensor Forward(const Tensor& x, const Tensor* attn_bias) const;

  /// \brief Tape-free Forward: out [n, hidden] from x [n, hidden] and an
  /// optional [n, n] bias. Heads are sliced with strided copies; exp is
  /// skipped only where it is exactly 0.
  void ForwardInference(const float* x, int n, const float* attn_bias,
                        float* out, InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  int hidden() const { return hidden_; }
  int num_heads() const { return heads_; }

 private:
  int hidden_, heads_, head_dim_;
  std::unique_ptr<Linear> q_, k_, v_, o_;
};

/// \brief Position-wise feed-forward block: Linear -> GELU -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(int hidden, int intermediate, Rng* rng);

  Tensor Forward(const Tensor& x) const;

  /// \brief Tape-free Forward: out [n, hidden] from x [n, hidden].
  void ForwardInference(const float* x, int n, float* out,
                        InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

 private:
  std::unique_ptr<Linear> fc1_, fc2_;
};

/// \brief Post-norm transformer encoder block (BERT layout):
/// x = LN(x + MHA(x)); x = LN(x + FFN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int hidden, int num_heads, int intermediate,
                          Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor* attn_bias, float dropout,
                 Rng* rng, bool training) const;

  /// \brief Eval-mode Forward without a tape, in place on x [n, hidden]:
  /// the same float operations in the same order, so the result equals
  /// Forward(x, attn_bias, dropout, rng, /*training=*/false) bit for bit.
  void ForwardInference(float* x, int n, const float* attn_bias,
                        InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

 private:
  std::unique_ptr<MultiHeadSelfAttention> attn_;
  std::unique_ptr<FeedForward> ffn_;
  std::unique_ptr<LayerNorm> ln1_, ln2_;
};

/// \brief Stack of encoder layers.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int num_layers, int hidden, int num_heads,
                     int intermediate, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor* attn_bias,
                 float dropout = 0.0f, Rng* rng = nullptr,
                 bool training = false) const;

  /// \brief Every layer's ForwardInference in turn, in place on x.
  void ForwardInference(float* x, int n, const float* attn_bias,
                        InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

/// \brief Writes all parameters (by name) into a byte stream.
void SerializeParameters(const ParameterMap& params, BinaryWriter* w);

/// \brief Inverse of SerializeParameters. Every named parameter must
/// exist in `params` with a matching element count; the tensor storage is
/// overwritten in place.
Status DeserializeParameters(BinaryReader* r, ParameterMap* params);

}  // namespace tabbin

#endif  // TABBIN_TENSOR_NN_H_
