#include "tasks/clustering.h"

#include <algorithm>
#include <map>
#include <memory>

#include "tensor/kernels.h"
#include "util/top_k.h"

namespace tabbin {

namespace {

// (score desc, index asc) — a strict total order over distinct items,
// identical to the old stable_sort on score alone (rows were always
// appended in ascending index order), which is what makes the bounded
// SelectTopK cut equal full-sort-then-truncate byte for byte.
bool RankedOrder(const RankedItem& a, const RankedItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

// Sorts `ranked` by RankedOrder, keeping only the top-k prefix when
// top_k >= 0 (a size-k heap — candidate sets can be 100x k).
void SelectTopRanked(std::vector<RankedItem>* ranked, int top_k) {
  const size_t k = top_k >= 0 ? static_cast<size_t>(top_k) : ranked->size();
  std::vector<RankedItem> top;
  for (size_t i : SelectTopK(ranked->size(), k, [&](size_t a, size_t b) {
         return RankedOrder((*ranked)[a], (*ranked)[b]);
       })) {
    top.push_back((*ranked)[i]);
  }
  *ranked = std::move(top);
}

// One batched norm-cached cosine pass of `query` (with inverse norm
// `inv_q`) against the listed rows of the item matrix.
std::vector<RankedItem> ScoreRows(const LabeledEmbeddingSet& items,
                                  VecView query, float inv_q,
                                  std::vector<int> rows) {
  std::vector<float> scores(rows.size());
  kernels::BatchedCosineRows(query.data(), inv_q, items.matrix().data(),
                             items.matrix().cols(), rows.data(), rows.size(),
                             items.matrix().inv_norms(), scores.data());
  std::vector<RankedItem> ranked(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ranked[i] = {rows[i], scores[i]};
  }
  return ranked;
}

// Cuts `rows` down to the `shortlist` entries with the highest int8
// approximate cosine (ties by ascending index — the same tie order the
// exact ranking uses, so the cut is deterministic). No-op unless the
// pool actually exceeds the shortlist, which keeps small candidate
// blocks byte-identical to the exact path even with the knob on.
void QuantizedShortlist(const LabeledEmbeddingSet& items, VecView query,
                        size_t shortlist, std::vector<int>* rows) {
  if (shortlist == 0 || rows->size() <= shortlist) return;
  const QuantizedQuery qq = MakeQuantizedQuery(query);
  std::vector<float> approx(rows->size());
  QuantizedCosineRows(items.matrix(), qq, rows->data(), rows->size(),
                      approx.data());
  std::vector<int> kept;
  kept.reserve(shortlist);
  for (size_t i : SelectTopK(rows->size(), shortlist, [&](size_t a, size_t b) {
         if (approx[a] != approx[b]) return approx[a] > approx[b];
         return (*rows)[a] < (*rows)[b];
       })) {
    kept.push_back((*rows)[i]);
  }
  *rows = std::move(kept);
}

}  // namespace

std::vector<RankedItem> RankBySimilarity(const LabeledEmbeddingSet& items,
                                         int query_index,
                                         const std::vector<int>* candidates,
                                         int top_k, bool quantized_scan,
                                         int shortlist_multiplier) {
  std::vector<int> rows;
  if (candidates) {
    rows.reserve(candidates->size());
    for (int i : *candidates) {
      if (i != query_index) rows.push_back(i);
    }
  } else {
    rows.reserve(items.size());
    for (int i = 0; i < static_cast<int>(items.size()); ++i) {
      if (i != query_index) rows.push_back(i);
    }
  }
  const VecView query = items.vec(static_cast<size_t>(query_index));
  if (quantized_scan && items.matrix().quantized() && top_k >= 0) {
    QuantizedShortlist(
        items, query,
        static_cast<size_t>(top_k) *
            static_cast<size_t>(std::max(1, shortlist_multiplier)),
        &rows);
  }
  // The query is a row of the same matrix, so its inverse norm is
  // already cached (same bits as a fresh kernels::InvNorm).
  std::vector<RankedItem> ranked =
      ScoreRows(items, query,
                items.matrix().inv_norm(static_cast<size_t>(query_index)),
                std::move(rows));
  SelectTopRanked(&ranked, top_k);
  return ranked;
}

ClusterEvalResult EvaluateClustering(const LabeledEmbeddingSet& items,
                                     const ClusterEvalOptions& options) {
  ClusterEvalResult result;
  if (items.size() < 2) return result;

  // Per-label population, to bound AP normalization.
  std::map<std::string, int> label_count;
  for (size_t i = 0; i < items.size(); ++i) ++label_count[items.label(i)];

  // Optional LSH blocking.
  std::unique_ptr<LshIndex> lsh;
  if (options.use_lsh && items.dim() > 0) {
    lsh = std::make_unique<LshIndex>(static_cast<int>(items.dim()),
                                     options.lsh_bits, options.lsh_tables,
                                     options.seed);
    for (int i = 0; i < static_cast<int>(items.size()); ++i) {
      // Cannot fail: the index was just built with items.dim().
      TABBIN_IGNORE_STATUS(lsh->Insert(i, items.vec(static_cast<size_t>(i))));
    }
  }

  // Query sample: either the caller-provided subset or every item.
  std::vector<int> queries = options.query_indices;
  if (queries.empty()) {
    queries.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) queries[i] = static_cast<int>(i);
  }
  Rng rng(options.seed);
  rng.Shuffle(&queries);
  if (static_cast<int>(queries.size()) > options.max_queries) {
    queries.resize(static_cast<size_t>(options.max_queries));
  }

  std::vector<std::vector<bool>> runs;
  std::vector<int> totals;  // per-query relevant population, for AP
  for (int q : queries) {
    const std::string& label = items.label(static_cast<size_t>(q));
    const int relevant_others = label_count[label] - 1;
    if (relevant_others <= 0) continue;  // nothing to retrieve

    std::vector<int> candidates;
    const std::vector<int>* cand_ptr = nullptr;
    if (lsh) {
      candidates = lsh->Query(items.vec(static_cast<size_t>(q)));
      // LSH blocking may be too aggressive on tiny datasets; fall back to
      // exhaustive ranking when the block is smaller than the cluster.
      if (static_cast<int>(candidates.size()) > options.k) {
        cand_ptr = &candidates;
      }
    }
    // Only the top-k prefix is retrieved: AP@k and RR@k never read past
    // rank k, and a size-k heap cut is far cheaper than sorting a
    // candidate block 100x the cluster size.
    auto ranked =
        RankBySimilarity(items, q, cand_ptr, options.k, options.quantized_scan,
                         options.quantized_shortlist_multiplier);
    std::vector<bool> rel;
    rel.reserve(ranked.size());
    for (const auto& r : ranked) {
      rel.push_back(items.label(static_cast<size_t>(r.index)) == label);
    }
    runs.push_back(std::move(rel));
    totals.push_back(relevant_others);
  }
  result.queries = static_cast<int>(runs.size());
  // AP is normalized by min(relevant_others, k): a query whose cluster
  // members fall outside the top-k scores below 1 even when every
  // retrieved hit ranks early.
  result.map = MeanAveragePrecision(runs, options.k, totals);
  result.mrr = MeanReciprocalRank(runs, options.k);
  return result;
}

ClusterEvalResult EvaluateCentroidClustering(const LabeledEmbeddingSet& items,
                                             const ClusterEvalOptions& options) {
  ClusterEvalResult result;
  if (items.empty()) return result;
  const size_t dim = items.dim();

  // One flat [num_labels, dim] centroid matrix instead of a map of
  // per-label vectors.
  std::map<std::string, int> label_row;
  for (size_t i = 0; i < items.size(); ++i) {
    label_row.emplace(items.label(i), 0);
  }
  int next = 0;
  for (auto& [label, row] : label_row) row = next++;

  EmbeddingMatrix centroids(static_cast<size_t>(next), dim);
  std::vector<int> counts(static_cast<size_t>(next), 0);
  for (size_t i = 0; i < items.size(); ++i) {
    const int row = label_row[items.label(i)];
    // Stale-by-design: the centroid norm is computed fresh at query
    // time below; the matrix's norm cache is never read.
    // tabbin-lint: allow(raw-row-mutation)
    float* c = centroids.mutable_row(static_cast<size_t>(row));
    const VecView v = items.vec(i);
    for (size_t d = 0; d < dim; ++d) c[d] += v[d];
    ++counts[static_cast<size_t>(row)];
  }
  for (int r = 0; r < next; ++r) {
    float* c = centroids.mutable_row(static_cast<size_t>(r));
    const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(r)]);
    for (size_t d = 0; d < dim; ++d) c[d] *= inv;
  }

  std::vector<std::vector<bool>> runs;
  std::vector<int> totals;
  std::vector<int> all_rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) all_rows[i] = static_cast<int>(i);
  for (const auto& [label, row] : label_row) {
    if (counts[static_cast<size_t>(row)] < 2) continue;
    // The centroid was accumulated through mutable_row, so its cached
    // norm is stale — compute the query inverse norm fresh; the item
    // rows were appended normally and their cache is exact.
    const VecView centroid = centroids.row(static_cast<size_t>(row));
    std::vector<RankedItem> ranked = ScoreRows(
        items, centroid, kernels::InvNorm(centroid.data(), centroid.size()),
        all_rows);
    SelectTopRanked(&ranked, options.k);
    std::vector<bool> rel;
    for (const auto& r : ranked) {
      rel.push_back(items.label(static_cast<size_t>(r.index)) == label);
    }
    runs.push_back(std::move(rel));
    // The centroid itself is not in the item set, so every item carrying
    // the label is retrievable.
    totals.push_back(counts[static_cast<size_t>(row)]);
  }
  result.queries = static_cast<int>(runs.size());
  result.map = MeanAveragePrecision(runs, options.k, totals);
  result.mrr = MeanReciprocalRank(runs, options.k);
  return result;
}

}  // namespace tabbin
