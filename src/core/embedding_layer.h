// The TabBiN composite embedding layer (paper §3.1, Figure 2):
//
//   E = E_tok + E_num + E_cpos + E_tpos + E_type + E_fmt      (eq. 8)
//
// with
//   E_num  = E_mag ⊕ E_pre ⊕ E_fst ⊕ E_lst                    (eq. 3)
//   E_tpos = E_tvpos ⊕ E_thpos ⊕ E_tnpos                      (eq. 5)
//   E_fmt  = W_fmt · x + b                                    (eq. 6)
//
// Ablation switches zero out E_type (TabBiN_2), E_fmt (TabBiN_3) and
// E_tpos (TabBiN_4) by skipping the corresponding component.
#ifndef TABBIN_CORE_EMBEDDING_LAYER_H_
#define TABBIN_CORE_EMBEDDING_LAYER_H_

#include <memory>

#include "core/config.h"
#include "core/input_builder.h"
#include "tensor/nn.h"

namespace tabbin {

/// \brief Trainable embedding tables for all six components.
class TabBiNEmbeddingLayer : public Module {
 public:
  TabBiNEmbeddingLayer(const TabBiNConfig& config, int vocab_size, Rng* rng);

  /// \brief Embeds a sequence into [n, hidden] activations.
  Tensor Forward(const EncodedSequence& seq) const;

  /// \brief Tape-free Forward into out [n, hidden]: the components are
  /// summed per element in Forward's order (AddN's zero start included)
  /// and then layer-normalized, so the bits equal Forward's.
  void ForwardInference(const EncodedSequence& seq, float* out,
                        InferenceWorkspace* ws) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  const TabBiNConfig& config() const { return config_; }

 private:
  TabBiNConfig config_;
  std::unique_ptr<Embedding> tok_;    // [V, H]
  // Numeric property tables, concatenated across the hidden dim (eq. 3).
  std::unique_ptr<Embedding> mag_, pre_, fst_, lst_;  // [10, H/4]
  std::unique_ptr<Embedding> cpos_;   // [I, H]
  // Bi-dimensional + nested coordinate tables (eq. 5): vr vc hr hc nr nc.
  std::unique_ptr<Embedding> vr_, vc_, hr_, hc_, nr_, nc_;  // [G, H/6]
  std::unique_ptr<Embedding> type_;   // [T, H]
  std::unique_ptr<Linear> fmt_;       // 8 -> H with bias (eq. 6)
  std::unique_ptr<LayerNorm> norm_;   // post-sum layer norm (as in BERT)
};

}  // namespace tabbin

#endif  // TABBIN_CORE_EMBEDDING_LAYER_H_
