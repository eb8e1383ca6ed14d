#include "tensor/nn.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace tabbin {

namespace {

// Scale -> SoftmaxRows(scores, bias) of the tape, in place over
// s [n, n]: the same float operations in the same order.
void ScaledSoftmaxRowsInPlace(float* s, const float* bias, int n,
                              float scale) {
  for (int r = 0; r < n; ++r) {
    kernels::ScaledSoftmaxRow(
        s + static_cast<size_t>(r) * n,
        bias == nullptr ? nullptr : bias + static_cast<size_t>(r) * n,
        static_cast<size_t>(n), scale);
  }
}

}  // namespace

InferenceWorkspace& InferenceWorkspace::ForThisThread() {
  thread_local InferenceWorkspace ws;
  return ws;
}

Linear::Linear(int in_features, int out_features, Rng* rng, bool with_bias)
    : in_(in_features), out_(out_features), has_bias_(with_bias) {
  // Xavier-uniform initialization.
  float bound = std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight = Tensor::RandUniform({out_features, in_features}, rng, bound,
                               /*requires_grad=*/true);
  if (with_bias) {
    bias = Tensor::Zeros({out_features}, /*requires_grad=*/true);
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor y = MatMul(x, Transpose(weight));
  if (has_bias_) y = AddRowBroadcast(y, bias);
  return y;
}

void Linear::ForwardInference(const float* x, int n, float* y,
                              InferenceWorkspace* ws) const {
  // W^T [in, out], as Transpose(weight) materializes it on the tape.
  float* wt = InferenceWorkspace::Get(&ws->wt,
                                      static_cast<size_t>(in_) * out_);
  const float* w = weight.data();
  for (int o = 0; o < out_; ++o) {
    for (int i = 0; i < in_; ++i) {
      wt[static_cast<size_t>(i) * out_ + o] =
          w[static_cast<size_t>(o) * in_ + i];
    }
  }
  std::fill(y, y + static_cast<size_t>(n) * out_, 0.0f);
  kernels::Gemm(x, wt, y, n, in_, out_);
  if (!has_bias_) return;
  const float* b = bias.data();
  for (int r = 0; r < n; ++r) {
    float* row = y + static_cast<size_t>(r) * out_;
    for (int c = 0; c < out_; ++c) row[c] = row[c] + b[c];
  }
}

void Linear::CollectParameters(const std::string& prefix,
                               ParameterMap* out) const {
  (*out)[prefix + "weight"] = weight;
  if (has_bias_) (*out)[prefix + "bias"] = bias;
}

Embedding::Embedding(int num_embeddings, int dim, Rng* rng, float stddev) {
  weight = Tensor::Randn({num_embeddings, dim}, rng, stddev,
                         /*requires_grad=*/true);
}

void Embedding::CollectParameters(const std::string& prefix,
                                  ParameterMap* out) const {
  (*out)[prefix + "weight"] = weight;
}

LayerNorm::LayerNorm(int dim) {
  gamma = Tensor::Full({dim}, 1.0f, /*requires_grad=*/true);
  beta = Tensor::Zeros({dim}, /*requires_grad=*/true);
}

void LayerNorm::CollectParameters(const std::string& prefix,
                                  ParameterMap* out) const {
  (*out)[prefix + "gamma"] = gamma;
  (*out)[prefix + "beta"] = beta;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int hidden, int num_heads,
                                               Rng* rng)
    : hidden_(hidden), heads_(num_heads), head_dim_(hidden / num_heads) {
  TABBIN_CHECK(hidden % num_heads == 0)
      << "hidden " << hidden << " not divisible by heads " << num_heads;
  q_ = std::make_unique<Linear>(hidden, hidden, rng);
  k_ = std::make_unique<Linear>(hidden, hidden, rng);
  v_ = std::make_unique<Linear>(hidden, hidden, rng);
  o_ = std::make_unique<Linear>(hidden, hidden, rng);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x,
                                       const Tensor* attn_bias) const {
  const int n = x.dim(0);
  Tensor q = q_->Forward(x);  // [n, H]
  Tensor k = k_->Forward(x);
  Tensor v = v_->Forward(x);

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(static_cast<size_t>(heads_));
  for (int h = 0; h < heads_; ++h) {
    // Column slice of head h; implemented via a gather on the transposed
    // view to stay within 2-D ops.
    std::vector<int> cols(static_cast<size_t>(head_dim_));
    for (int i = 0; i < head_dim_; ++i) cols[static_cast<size_t>(i)] = h * head_dim_ + i;
    Tensor qh = Transpose(GatherRows(Transpose(q), cols));  // [n, hd]
    Tensor kh = Transpose(GatherRows(Transpose(k), cols));
    Tensor vh = Transpose(GatherRows(Transpose(v), cols));
    Tensor scores = Scale(MatMul(qh, Transpose(kh)), scale);  // [n, n]
    Tensor attn = SoftmaxRows(scores, attn_bias);
    head_outputs.push_back(MatMul(attn, vh));  // [n, hd]
  }
  Tensor concat = heads_ == 1 ? head_outputs[0] : ConcatCols(head_outputs);
  (void)n;
  return o_->Forward(concat);
}

void MultiHeadSelfAttention::ForwardInference(const float* x, int n,
                                              const float* attn_bias,
                                              float* out,
                                              InferenceWorkspace* ws) const {
  const size_t nh = static_cast<size_t>(n) * hidden_;
  const size_t nd = static_cast<size_t>(n) * head_dim_;
  float* q = InferenceWorkspace::Get(&ws->q, nh);
  float* k = InferenceWorkspace::Get(&ws->k, nh);
  float* v = InferenceWorkspace::Get(&ws->v, nh);
  q_->ForwardInference(x, n, q, ws);
  k_->ForwardInference(x, n, k, ws);
  v_->ForwardInference(x, n, v, ws);

  float* qh = InferenceWorkspace::Get(&ws->qh, nd);
  float* kt = InferenceWorkspace::Get(&ws->kt, nd);
  float* vh = InferenceWorkspace::Get(&ws->vh, nd);
  float* scores =
      InferenceWorkspace::Get(&ws->scores, static_cast<size_t>(n) * n);
  float* head = InferenceWorkspace::Get(&ws->head, nd);
  float* concat = InferenceWorkspace::Get(&ws->concat, nh);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (int h = 0; h < heads_; ++h) {
    // Strided copies of head h's columns: q and v as [n, hd], k already
    // transposed to [hd, n].
    const size_t col0 = static_cast<size_t>(h) * head_dim_;
    for (int r = 0; r < n; ++r) {
      const size_t src = static_cast<size_t>(r) * hidden_ + col0;
      for (int i = 0; i < head_dim_; ++i) {
        qh[static_cast<size_t>(r) * head_dim_ + i] = q[src + i];
        kt[static_cast<size_t>(i) * n + r] = k[src + i];
        vh[static_cast<size_t>(r) * head_dim_ + i] = v[src + i];
      }
    }
    std::fill(scores, scores + static_cast<size_t>(n) * n, 0.0f);
    kernels::Gemm(qh, kt, scores, n, head_dim_, n);
    ScaledSoftmaxRowsInPlace(scores, attn_bias, n, scale);
    std::fill(head, head + nd, 0.0f);
    kernels::Gemm(scores, vh, head, n, n, head_dim_);
    for (int r = 0; r < n; ++r) {
      std::copy(head + static_cast<size_t>(r) * head_dim_,
                head + static_cast<size_t>(r + 1) * head_dim_,
                concat + static_cast<size_t>(r) * hidden_ + col0);
    }
  }
  o_->ForwardInference(concat, n, out, ws);
}

void MultiHeadSelfAttention::CollectParameters(const std::string& prefix,
                                               ParameterMap* out) const {
  q_->CollectParameters(prefix + "q.", out);
  k_->CollectParameters(prefix + "k.", out);
  v_->CollectParameters(prefix + "v.", out);
  o_->CollectParameters(prefix + "o.", out);
}

FeedForward::FeedForward(int hidden, int intermediate, Rng* rng) {
  fc1_ = std::make_unique<Linear>(hidden, intermediate, rng);
  fc2_ = std::make_unique<Linear>(intermediate, hidden, rng);
}

Tensor FeedForward::Forward(const Tensor& x) const {
  return fc2_->Forward(Gelu(fc1_->Forward(x)));
}

void FeedForward::ForwardInference(const float* x, int n, float* out,
                                   InferenceWorkspace* ws) const {
  const size_t size = static_cast<size_t>(n) * fc1_->out_features();
  float* inter = InferenceWorkspace::Get(&ws->inter, size);
  fc1_->ForwardInference(x, n, inter, ws);
  GeluForward(inter, size, inter);
  fc2_->ForwardInference(inter, n, out, ws);
}

void FeedForward::CollectParameters(const std::string& prefix,
                                    ParameterMap* out) const {
  fc1_->CollectParameters(prefix + "fc1.", out);
  fc2_->CollectParameters(prefix + "fc2.", out);
}

TransformerEncoderLayer::TransformerEncoderLayer(int hidden, int num_heads,
                                                 int intermediate, Rng* rng) {
  attn_ = std::make_unique<MultiHeadSelfAttention>(hidden, num_heads, rng);
  ffn_ = std::make_unique<FeedForward>(hidden, intermediate, rng);
  ln1_ = std::make_unique<LayerNorm>(hidden);
  ln2_ = std::make_unique<LayerNorm>(hidden);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x,
                                        const Tensor* attn_bias,
                                        float dropout, Rng* rng,
                                        bool training) const {
  Tensor a = attn_->Forward(x, attn_bias);
  if (training && rng) a = DropoutOp(a, dropout, rng, training);
  Tensor h = ln1_->Forward(Add(x, a));
  Tensor f = ffn_->Forward(h);
  if (training && rng) f = DropoutOp(f, dropout, rng, training);
  return ln2_->Forward(Add(h, f));
}

void TransformerEncoderLayer::ForwardInference(float* x, int n,
                                               const float* attn_bias,
                                               InferenceWorkspace* ws) const {
  const size_t size = static_cast<size_t>(n) * attn_->hidden();
  float* a = InferenceWorkspace::Get(&ws->attn, size);
  attn_->ForwardInference(x, n, attn_bias, a, ws);
  for (size_t i = 0; i < size; ++i) x[i] = x[i] + a[i];
  ln1_->ForwardInference(x, n);
  float* f = InferenceWorkspace::Get(&ws->ffn, size);
  ffn_->ForwardInference(x, n, f, ws);
  for (size_t i = 0; i < size; ++i) x[i] = x[i] + f[i];
  ln2_->ForwardInference(x, n);
}

void TransformerEncoderLayer::CollectParameters(const std::string& prefix,
                                                ParameterMap* out) const {
  attn_->CollectParameters(prefix + "attn.", out);
  ffn_->CollectParameters(prefix + "ffn.", out);
  ln1_->CollectParameters(prefix + "ln1.", out);
  ln2_->CollectParameters(prefix + "ln2.", out);
}

TransformerEncoder::TransformerEncoder(int num_layers, int hidden,
                                       int num_heads, int intermediate,
                                       Rng* rng) {
  layers_.reserve(static_cast<size_t>(num_layers));
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        hidden, num_heads, intermediate, rng));
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x, const Tensor* attn_bias,
                                   float dropout, Rng* rng,
                                   bool training) const {
  Tensor h = x;
  for (const auto& layer : layers_) {
    h = layer->Forward(h, attn_bias, dropout, rng, training);
  }
  return h;
}

void TransformerEncoder::ForwardInference(float* x, int n,
                                          const float* attn_bias,
                                          InferenceWorkspace* ws) const {
  for (const auto& layer : layers_) {
    layer->ForwardInference(x, n, attn_bias, ws);
  }
}

void TransformerEncoder::CollectParameters(const std::string& prefix,
                                           ParameterMap* out) const {
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->CollectParameters(prefix + "layer" + std::to_string(i) + ".",
                                  out);
  }
}

void SerializeParameters(const ParameterMap& params, BinaryWriter* w) {
  w->WriteU64(params.size());
  for (const auto& [name, t] : params) {
    w->WriteString(name);
    w->WriteF32Vector(t.vec());
  }
}

Status DeserializeParameters(BinaryReader* r, ParameterMap* params) {
  TABBIN_ASSIGN_OR_RETURN(uint64_t count, r->ReadU64());
  if (count != params->size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, model has " +
        std::to_string(params->size()));
  }
  for (uint64_t i = 0; i < count; ++i) {
    TABBIN_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    TABBIN_ASSIGN_OR_RETURN(std::vector<float> data, r->ReadF32Vector());
    auto it = params->find(name);
    if (it == params->end()) {
      return Status::NotFound("checkpoint parameter not in model: " + name);
    }
    if (it->second.size() != data.size()) {
      return Status::InvalidArgument("checkpoint size mismatch for " + name);
    }
    std::copy(data.begin(), data.end(), it->second.vec().begin());
  }
  return Status::OK();
}

}  // namespace tabbin
