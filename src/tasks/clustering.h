// Shared clustering/evaluation harness for the three downstream tasks
// (CC, TC, EC): rank labeled embeddings by cosine similarity, form top-k
// clusters, and score MAP@k / MRR@k against the ground-truth labels.
#ifndef TABBIN_TASKS_CLUSTERING_H_
#define TABBIN_TASKS_CLUSTERING_H_

#include <string>
#include <utility>
#include <vector>

#include "tasks/lsh.h"
#include "tasks/metrics.h"
#include "tensor/embedding_matrix.h"
#include "util/rng.h"

namespace tabbin {

/// \brief A set of embeddings with ground-truth cluster labels, stored as
/// one flat [n, dim] matrix (row i ↔ label i). This is the unit the whole
/// evaluation stack passes around; rows are read as VecView spans.
class LabeledEmbeddingSet {
 public:
  LabeledEmbeddingSet() = default;
  LabeledEmbeddingSet(
      std::initializer_list<std::pair<std::vector<float>, std::string>> items) {
    for (const auto& [v, l] : items) Add(v, l);
  }

  /// \brief Appends one labeled embedding (width fixed by the first row).
  void Add(VecView vec, std::string label) {
    vecs_.AppendRow(vec);
    labels_.push_back(std::move(label));
  }

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  size_t dim() const { return vecs_.cols(); }

  VecView vec(size_t i) const { return vecs_.row(i); }
  const std::string& label(size_t i) const { return labels_[i]; }
  const EmbeddingMatrix& matrix() const { return vecs_; }
  const std::vector<std::string>& labels() const { return labels_; }

  /// \brief Builds the int8 code sidecar so RankBySimilarity /
  /// EvaluateClustering can run the two-stage quantized scan (their
  /// quantized_scan knobs silently fall back to the exact path when the
  /// sidecar is absent). Later Add calls keep it maintained.
  void EnableQuantizedScan() { vecs_.EnableQuantization(); }

 private:
  EmbeddingMatrix vecs_;
  std::vector<std::string> labels_;
};

/// \brief One ranked result.
struct RankedItem {
  int index = 0;
  float score = 0;
};

/// \brief Ranks `items` (excluding `query_index`) by cosine similarity to
/// the query, descending (ties by ascending index); restricted to
/// `candidates` when non-null. Scores come from one batched norm-cached
/// kernel pass over the item matrix. When `top_k >= 0` only the top-k
/// prefix is returned — selected with SelectTopK, byte-identical to
/// truncating the full ranking (the (score, index) order is total).
/// With `quantized_scan` (and top_k >= 0, and the item set's sidecar
/// enabled via EnableQuantizedScan), an int8 approximate pass cuts the
/// pool to (top_k * shortlist_multiplier) before the exact scoring —
/// returned scores are still float-exact; only shortlist membership is
/// approximate.
std::vector<RankedItem> RankBySimilarity(
    const LabeledEmbeddingSet& items, int query_index,
    const std::vector<int>* candidates = nullptr, int top_k = -1,
    bool quantized_scan = false, int shortlist_multiplier = 4);

/// \brief MAP/MRR outcome of a clustering evaluation.
struct ClusterEvalResult {
  double map = 0;
  double mrr = 0;
  int queries = 0;
};

/// \brief Options for EvaluateClustering.
struct ClusterEvalOptions {
  int k = 20;             // cluster size (top-20 as in the paper)
  int max_queries = 200;  // sample size of query items
  bool use_lsh = true;    // LSH blocking before exact ranking
  int lsh_bits = 8;
  int lsh_tables = 12;
  uint64_t seed = 99;
  // When non-empty, only these item indices act as queries; the whole
  // item set remains the retrieval pool. Used for split evaluations
  // (e.g. "nested tables" as queries against the full corpus).
  std::vector<int> query_indices;
  // Two-stage int8 scan before the exact top-k (requires the caller to
  // EnableQuantizedScan() on the item set first; falls back to the
  // exact path otherwise).
  bool quantized_scan = false;
  int quantized_shortlist_multiplier = 4;
};

/// \brief Full evaluation: for each sampled query, rank all other items by
/// cosine, take top-k as the cluster, and score AP/RR against labels
/// (exactly the paper's §4.1-4.3 protocol).
ClusterEvalResult EvaluateClustering(const LabeledEmbeddingSet& items,
                                     const ClusterEvalOptions& options = {});

/// \brief Centroid-based table clustering (paper §4.2): compute the
/// centroid of each label's items, rank all items against it, score the
/// top-k cluster per centroid.
ClusterEvalResult EvaluateCentroidClustering(
    const LabeledEmbeddingSet& items, const ClusterEvalOptions& options = {});

}  // namespace tabbin

#endif  // TABBIN_TASKS_CLUSTERING_H_
