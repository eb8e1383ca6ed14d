#include "core/embedding_layer.h"

#include <algorithm>
#include <utility>

namespace tabbin {

namespace {

// Splits `hidden` into `parts` chunks whose sizes sum to hidden (remainder
// distributed to the leading chunks).
std::vector<int> SplitHidden(int hidden, int parts) {
  std::vector<int> dims(static_cast<size_t>(parts), hidden / parts);
  for (int i = 0; i < hidden % parts; ++i) ++dims[static_cast<size_t>(i)];
  return dims;
}

}  // namespace

TabBiNEmbeddingLayer::TabBiNEmbeddingLayer(const TabBiNConfig& config,
                                           int vocab_size, Rng* rng)
    : config_(config) {
  const int h = config.hidden;
  tok_ = std::make_unique<Embedding>(vocab_size, h, rng);

  auto num_dims = SplitHidden(h, 4);
  mag_ = std::make_unique<Embedding>(config.num_numeric_bins, num_dims[0], rng);
  pre_ = std::make_unique<Embedding>(config.num_numeric_bins, num_dims[1], rng);
  fst_ = std::make_unique<Embedding>(config.num_numeric_bins, num_dims[2], rng);
  lst_ = std::make_unique<Embedding>(config.num_numeric_bins, num_dims[3], rng);

  cpos_ = std::make_unique<Embedding>(config.max_cell_tokens, h, rng);

  auto pos_dims = SplitHidden(h, 6);
  const int g = config.max_tuples;
  vr_ = std::make_unique<Embedding>(g, pos_dims[0], rng);
  vc_ = std::make_unique<Embedding>(g, pos_dims[1], rng);
  hr_ = std::make_unique<Embedding>(g, pos_dims[2], rng);
  hc_ = std::make_unique<Embedding>(g, pos_dims[3], rng);
  nr_ = std::make_unique<Embedding>(g, pos_dims[4], rng);
  nc_ = std::make_unique<Embedding>(g, pos_dims[5], rng);

  type_ = std::make_unique<Embedding>(config.num_types, h, rng);
  fmt_ = std::make_unique<Linear>(config.num_cell_features, h, rng);
  norm_ = std::make_unique<LayerNorm>(h);
}

Tensor TabBiNEmbeddingLayer::Forward(const EncodedSequence& seq) const {
  const int n = seq.size();
  std::vector<int> tok_ids(static_cast<size_t>(n));
  std::vector<int> mag_ids(static_cast<size_t>(n)), pre_ids(static_cast<size_t>(n)),
      fst_ids(static_cast<size_t>(n)), lst_ids(static_cast<size_t>(n));
  std::vector<int> cpos_ids(static_cast<size_t>(n));
  std::vector<int> vr_ids(static_cast<size_t>(n)), vc_ids(static_cast<size_t>(n)),
      hr_ids(static_cast<size_t>(n)), hc_ids(static_cast<size_t>(n)),
      nr_ids(static_cast<size_t>(n)), nc_ids(static_cast<size_t>(n));
  std::vector<int> type_ids(static_cast<size_t>(n));
  std::vector<float> fmt_bits(static_cast<size_t>(n) * config_.num_cell_features,
                              0.0f);
  bool any_numeric = false;
  for (int i = 0; i < n; ++i) {
    const TokenFeatures& t = seq.tokens[static_cast<size_t>(i)];
    tok_ids[static_cast<size_t>(i)] = t.token_id;
    // Non-numeric tokens index bin 0 of the numeric tables; their E_num is
    // a learned "not a number" offset, constant across such tokens.
    mag_ids[static_cast<size_t>(i)] = std::max(t.magnitude, 0);
    pre_ids[static_cast<size_t>(i)] = std::max(t.precision, 0);
    fst_ids[static_cast<size_t>(i)] = std::max(t.first_digit, 0);
    lst_ids[static_cast<size_t>(i)] = std::max(t.last_digit, 0);
    if (t.magnitude >= 0) any_numeric = true;
    cpos_ids[static_cast<size_t>(i)] = t.cell_pos;
    vr_ids[static_cast<size_t>(i)] = t.vr;
    vc_ids[static_cast<size_t>(i)] = t.vc;
    hr_ids[static_cast<size_t>(i)] = t.hr;
    hc_ids[static_cast<size_t>(i)] = t.hc;
    nr_ids[static_cast<size_t>(i)] = t.nr;
    nc_ids[static_cast<size_t>(i)] = t.nc;
    type_ids[static_cast<size_t>(i)] = t.type_id;
    for (int b = 0; b < config_.num_cell_features; ++b) {
      if (t.fmt_bits & (1u << b)) {
        fmt_bits[static_cast<size_t>(i) * config_.num_cell_features + b] = 1.0f;
      }
    }
  }
  (void)any_numeric;

  std::vector<Tensor> components;
  components.push_back(tok_->Forward(tok_ids));  // E_tok (eq. 2)

  // E_num (eq. 3): concatenation of the four numeric property embeddings.
  components.push_back(ConcatCols({mag_->Forward(mag_ids),
                                   pre_->Forward(pre_ids),
                                   fst_->Forward(fst_ids),
                                   lst_->Forward(lst_ids)}));

  components.push_back(cpos_->Forward(cpos_ids));  // E_cpos (eq. 4)

  if (config_.use_bidimensional_coords) {
    // E_tpos (eq. 5): vertical ⊕ horizontal ⊕ nested coordinate embeddings.
    components.push_back(ConcatCols(
        {vr_->Forward(vr_ids), vc_->Forward(vc_ids), hr_->Forward(hr_ids),
         hc_->Forward(hc_ids), nr_->Forward(nr_ids), nc_->Forward(nc_ids)}));
  }
  if (config_.use_type_inference) {
    components.push_back(type_->Forward(type_ids));  // E_type (eq. 7)
  }
  if (config_.use_units_nesting) {
    // E_fmt (eq. 6): affine map of the 8-bit cell feature vector.
    Tensor x = Tensor::FromData({n, config_.num_cell_features},
                                std::move(fmt_bits));
    components.push_back(fmt_->Forward(x));
  }

  return norm_->Forward(AddN(components));  // eq. 8 (+ stabilizing LN)
}

void TabBiNEmbeddingLayer::ForwardInference(const EncodedSequence& seq,
                                            float* out,
                                            InferenceWorkspace* ws) const {
  const int n = seq.size();
  const int h = config_.hidden;
  std::fill(out, out + static_cast<size_t>(n) * h, 0.0f);
  // Adds row `id` of `table` into token i's columns [offset, offset + dim):
  // a whole component, or one slice of a concatenated one.
  auto add = [&](const Embedding& table, int id, int i, int offset) {
    const int d = table.dim();
    const float* src = table.weight.data() + static_cast<size_t>(id) * d;
    float* dst = out + static_cast<size_t>(i) * h + offset;
    for (int c = 0; c < d; ++c) dst[c] += src[c];
  };
  const int features = config_.num_cell_features;
  float* fmt_bits = nullptr;
  if (config_.use_units_nesting) {
    fmt_bits = InferenceWorkspace::Get(&ws->features,
                                       static_cast<size_t>(n) * features);
    std::fill(fmt_bits, fmt_bits + static_cast<size_t>(n) * features, 0.0f);
  }
  for (int i = 0; i < n; ++i) {
    const TokenFeatures& t = seq.tokens[static_cast<size_t>(i)];
    add(*tok_, t.token_id, i, 0);
    int offset = 0;
    for (const auto& [table, id] :
         {std::make_pair(mag_.get(), t.magnitude),
          std::make_pair(pre_.get(), t.precision),
          std::make_pair(fst_.get(), t.first_digit),
          std::make_pair(lst_.get(), t.last_digit)}) {
      add(*table, std::max(id, 0), i, offset);
      offset += table->dim();
    }
    add(*cpos_, t.cell_pos, i, 0);
    if (config_.use_bidimensional_coords) {
      offset = 0;
      for (const auto& [table, id] : {std::make_pair(vr_.get(), t.vr),
                                      std::make_pair(vc_.get(), t.vc),
                                      std::make_pair(hr_.get(), t.hr),
                                      std::make_pair(hc_.get(), t.hc),
                                      std::make_pair(nr_.get(), t.nr),
                                      std::make_pair(nc_.get(), t.nc)}) {
        add(*table, id, i, offset);
        offset += table->dim();
      }
    }
    if (config_.use_type_inference) add(*type_, t.type_id, i, 0);
    if (fmt_bits != nullptr) {
      for (int b = 0; b < features; ++b) {
        if (t.fmt_bits & (1u << b)) {
          fmt_bits[static_cast<size_t>(i) * features + b] = 1.0f;
        }
      }
    }
  }
  if (fmt_bits != nullptr) {
    // E_fmt is the last addend of every element.
    float* fmt = InferenceWorkspace::Get(&ws->ffn, static_cast<size_t>(n) * h);
    fmt_->ForwardInference(fmt_bits, n, fmt, ws);
    for (size_t e = 0; e < static_cast<size_t>(n) * h; ++e) out[e] += fmt[e];
  }
  norm_->ForwardInference(out, n);
}

void TabBiNEmbeddingLayer::CollectParameters(const std::string& prefix,
                                             ParameterMap* out) const {
  tok_->CollectParameters(prefix + "tok.", out);
  mag_->CollectParameters(prefix + "num.mag.", out);
  pre_->CollectParameters(prefix + "num.pre.", out);
  fst_->CollectParameters(prefix + "num.fst.", out);
  lst_->CollectParameters(prefix + "num.lst.", out);
  cpos_->CollectParameters(prefix + "cpos.", out);
  vr_->CollectParameters(prefix + "tpos.vr.", out);
  vc_->CollectParameters(prefix + "tpos.vc.", out);
  hr_->CollectParameters(prefix + "tpos.hr.", out);
  hc_->CollectParameters(prefix + "tpos.hc.", out);
  nr_->CollectParameters(prefix + "tpos.nr.", out);
  nc_->CollectParameters(prefix + "tpos.nc.", out);
  type_->CollectParameters(prefix + "type.", out);
  fmt_->CollectParameters(prefix + "fmt.", out);
  norm_->CollectParameters(prefix + "norm.", out);
}

}  // namespace tabbin
