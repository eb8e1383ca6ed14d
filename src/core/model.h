// The TabBiN transformer: composite embedding layer + encoder stack with
// metadata-aware masked attention (paper eq. (1)) + prediction heads for
// the two pre-training objectives (MLM and Cell-level Cloze).
#ifndef TABBIN_CORE_MODEL_H_
#define TABBIN_CORE_MODEL_H_

#include <memory>
#include <string>

#include "core/embedding_layer.h"
#include "tensor/nn.h"

namespace tabbin {

/// \brief One of the four TabBiN models (data-row / data-column / HMD /
/// VMD). All four share the architecture; they differ in which segment
/// and scan order their training sequences come from.
class TabBiNModel : public Module {
 public:
  TabBiNModel(const TabBiNConfig& config, int vocab_size,
              TabBiNVariant variant, Rng* rng);

  /// \brief Encodes a sequence to hidden states [n, hidden]. Applies the
  /// visibility matrix as the attention bias unless the TabBiN_1 ablation
  /// (use_visibility_matrix = false) is active.
  ///
  /// Without a tape (`training` false under a NoGradGuard) the embedding
  /// layer and every encoder layer run tape-free on raw buffers in a
  /// per-thread workspace (ForwardInference). That path performs the
  /// tape's float operations in the tape's order, so its output equals
  /// the recording path's bit for bit; the tape stays the reference and
  /// the training path.
  Tensor Encode(const EncodedSequence& seq, bool training = false,
                Rng* rng = nullptr) const;

  /// \brief Token-vocabulary logits for MLM / CLC ([n, V]).
  Tensor MlmLogits(const Tensor& hidden) const;

  /// \brief Magnitude-bin logits for masked numeric tokens ([n, bins]);
  /// the numeric counterpart of token recovery.
  Tensor NumericLogits(const Tensor& hidden) const;

  void CollectParameters(const std::string& prefix,
                         ParameterMap* out) const override;

  const TabBiNConfig& config() const { return config_; }
  TabBiNVariant variant() const { return variant_; }
  int vocab_size() const { return vocab_size_; }

 private:
  TabBiNConfig config_;
  TabBiNVariant variant_;
  int vocab_size_;
  std::unique_ptr<TabBiNEmbeddingLayer> embedding_;
  std::unique_ptr<TransformerEncoder> encoder_;
  std::unique_ptr<Linear> mlm_head_;
  std::unique_ptr<Linear> num_head_;
};

}  // namespace tabbin

#endif  // TABBIN_CORE_MODEL_H_
