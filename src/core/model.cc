#include "core/model.h"

namespace tabbin {

TabBiNModel::TabBiNModel(const TabBiNConfig& config, int vocab_size,
                         TabBiNVariant variant, Rng* rng)
    : config_(config), variant_(variant), vocab_size_(vocab_size) {
  embedding_ = std::make_unique<TabBiNEmbeddingLayer>(config, vocab_size, rng);
  encoder_ = std::make_unique<TransformerEncoder>(
      config.num_layers, config.hidden, config.num_heads, config.intermediate,
      rng);
  mlm_head_ = std::make_unique<Linear>(config.hidden, vocab_size, rng);
  num_head_ = std::make_unique<Linear>(config.hidden, config.num_numeric_bins,
                                       rng);
}

Tensor TabBiNModel::Encode(const EncodedSequence& seq, bool training,
                           Rng* rng) const {
  if (!training && !NoGradGuard::GradEnabled()) {
    InferenceWorkspace& ws = InferenceWorkspace::ForThisThread();
    const int n = seq.size();
    std::vector<float> hidden(static_cast<size_t>(n) * config_.hidden);
    embedding_->ForwardInference(seq, hidden.data(), &ws);
    const float* bias = nullptr;
    if (config_.use_visibility_matrix) {
      float* b = InferenceWorkspace::Get(&ws.bias, static_cast<size_t>(n) * n);
      BuildSequenceVisibility(seq).FillAttentionBias(b);
      bias = b;
    }
    encoder_->ForwardInference(hidden.data(), n, bias, &ws);
    return Tensor::FromData({n, config_.hidden}, std::move(hidden));
  }
  Tensor x = embedding_->Forward(seq);
  Tensor bias;
  const Tensor* bias_ptr = nullptr;
  if (config_.use_visibility_matrix) {
    VisibilityMatrix vis = BuildSequenceVisibility(seq);
    bias = Tensor::Zeros({seq.size(), seq.size()});
    vis.FillAttentionBias(bias.data());
    bias_ptr = &bias;
  }
  return encoder_->Forward(x, bias_ptr, config_.dropout, rng, training);
}

Tensor TabBiNModel::MlmLogits(const Tensor& hidden) const {
  return mlm_head_->Forward(hidden);
}

Tensor TabBiNModel::NumericLogits(const Tensor& hidden) const {
  return num_head_->Forward(hidden);
}

void TabBiNModel::CollectParameters(const std::string& prefix,
                                    ParameterMap* out) const {
  embedding_->CollectParameters(prefix + "emb.", out);
  encoder_->CollectParameters(prefix + "enc.", out);
  mlm_head_->CollectParameters(prefix + "mlm.", out);
  num_head_->CollectParameters(prefix + "num.", out);
}

}  // namespace tabbin
