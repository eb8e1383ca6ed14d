#include "llm/rag_simulator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/kernels.h"
#include "text/wordpiece.h"
#include "util/logging.h"
#include "util/top_k.h"

namespace tabbin {

Bm25Retriever::Bm25Retriever(double k1, double b) : k1_(k1), b_(b) {}

void Bm25Retriever::Index(const std::vector<RagDocument>& docs) {
  doc_terms_.clear();
  doc_len_.clear();
  postings_.clear();
  idf_.clear();
  total_len_ = 0;
  doc_terms_.reserve(docs.size());
  for (int i = 0; i < static_cast<int>(docs.size()); ++i) {
    std::vector<std::string> terms =
        PreTokenize(docs[static_cast<size_t>(i)].text);
    total_len_ += static_cast<double>(terms.size());
    std::unordered_set<std::string> unique(terms.begin(), terms.end());
    for (const auto& t : unique) postings_[t].push_back(i);
    doc_len_.push_back(static_cast<double>(terms.size()));
    doc_terms_.push_back(std::move(terms));
  }
  avg_len_ =
      docs.empty() ? 0 : total_len_ / static_cast<double>(docs.size());
  RecomputeIdf();
}

void Bm25Retriever::AppendDoc(const RagDocument& doc) {
  const int i = static_cast<int>(doc_terms_.size());
  std::vector<std::string> terms = PreTokenize(doc.text);
  total_len_ += static_cast<double>(terms.size());
  std::unordered_set<std::string> unique(terms.begin(), terms.end());
  // Posting lists stay ascending: i is the largest doc id so far.
  for (const auto& t : unique) postings_[t].push_back(i);
  doc_len_.push_back(static_cast<double>(terms.size()));
  doc_terms_.push_back(std::move(terms));
}

void Bm25Retriever::AddAll(const std::vector<RagDocument>& docs) {
  if (docs.empty()) return;
  for (const RagDocument& doc : docs) AppendDoc(doc);
  avg_len_ = total_len_ / static_cast<double>(doc_terms_.size());
  RecomputeIdf();
}

void Bm25Retriever::RecomputeIdf() {
  const double n = static_cast<double>(doc_terms_.size());
  for (const auto& [term, posting] : postings_) {
    const double df = static_cast<double>(posting.size());
    idf_[term] = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
  }
}

double Bm25Retriever::Score(const std::vector<std::string>& query_terms,
                            int doc) const {
  double score = 0;
  const auto& terms = doc_terms_[static_cast<size_t>(doc)];
  for (const auto& q : query_terms) {
    auto idf_it = idf_.find(q);
    if (idf_it == idf_.end()) continue;
    int tf = 0;
    for (const auto& t : terms) {
      if (t == q) ++tf;
    }
    if (tf == 0) continue;
    const double denom =
        tf + k1_ * (1 - b_ + b_ * doc_len_[static_cast<size_t>(doc)] /
                                 std::max(avg_len_, 1e-9));
    score += idf_it->second * tf * (k1_ + 1) / denom;
  }
  return score;
}

std::vector<int> Bm25Retriever::Retrieve(const std::string& query, int k,
                                         int exclude) const {
  std::vector<std::string> query_terms = PreTokenize(query);
  // Candidate set from postings (documents sharing any term).
  std::unordered_set<int> candidates;
  for (const auto& q : query_terms) {
    auto it = postings_.find(q);
    if (it == postings_.end()) continue;
    for (int d : it->second) candidates.insert(d);
  }
  candidates.erase(exclude);
  std::vector<std::pair<double, int>> scored;
  scored.reserve(candidates.size());
  for (int d : candidates) {
    scored.emplace_back(Score(query_terms, d), d);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<int> out;
  for (const auto& [s, d] : scored) {
    if (static_cast<int>(out.size()) >= k) break;
    out.push_back(d);
  }
  return out;
}

LlmProfile ProfileFor(const std::string& model_name) {
  // Calibrated to the ordering and gaps of the paper's Table 14.
  if (model_name == "gpt2") return {"gpt2", 0.25, 0.15, false};
  if (model_name == "llama2") return {"llama2", 0.35, 0.25, false};
  if (model_name == "gpt2+rag") return {"gpt2+rag", 0.45, 0.35, true};
  if (model_name == "llama2+rag") return {"llama2+rag", 0.60, 0.45, true};
  if (model_name == "gpt3.5+rag") return {"gpt3.5+rag", 0.85, 0.55, true};
  if (model_name == "gpt4+rag") return {"gpt4+rag", 0.99, 0.65, true};
  TABBIN_LOG(WARNING) << "unknown LLM profile: " << model_name;
  return {"unknown", 0.5, 0.5, false};
}

RagLlmSimulator::RagLlmSimulator(const LlmProfile& profile, uint64_t seed)
    : profile_(profile), rng_(seed) {}

void RagLlmSimulator::Index(const std::vector<RagDocument>& docs) {
  docs_ = docs;
  retriever_.Index(docs_);
  dense_.Clear();
}

Status RagLlmSimulator::Index(const std::vector<RagDocument>& docs,
                              EmbeddingMatrix embeddings) {
  Index(docs);
  if (embeddings.rows() != docs.size()) {
    return Status::InvalidArgument(
        "RagLlmSimulator::Index: " + std::to_string(embeddings.rows()) +
        " embedding rows for " + std::to_string(docs.size()) + " documents");
  }
  dense_ = std::move(embeddings);
  // Callers commonly fill the matrix through raw data() (no cache
  // maintenance); the cached inverse norms MUST match the rows before
  // DenseRetrieve's batched cosine pass reads them.
  dense_.RecomputeInvNorms();
  if (quantized_retrieval_) dense_.EnableQuantization();
  return Status::OK();
}

void RagLlmSimulator::EnableQuantizedRetrieval(bool on,
                                               int shortlist_multiplier) {
  quantized_retrieval_ = on;
  quantized_shortlist_multiplier_ = std::max(1, shortlist_multiplier);
  if (on) {
    dense_.EnableQuantization();
  } else {
    dense_.DisableQuantization();
  }
}

void RagLlmSimulator::SerializeIndex(BinaryWriter* w) const {
  w->WriteU64(docs_.size());
  for (const RagDocument& d : docs_) {
    w->WriteString(d.text);
    w->WriteString(d.label);
  }
  dense_.Serialize(w);
}

Status RagLlmSimulator::DeserializeIndex(BinaryReader* r) {
  TABBIN_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  std::vector<RagDocument> docs;
  docs.reserve(static_cast<size_t>(
      std::min<uint64_t>(n, r->remaining() / (2 * sizeof(uint64_t)))));
  for (uint64_t i = 0; i < n; ++i) {
    RagDocument d;
    TABBIN_ASSIGN_OR_RETURN(d.text, r->ReadString());
    TABBIN_ASSIGN_OR_RETURN(d.label, r->ReadString());
    docs.push_back(std::move(d));
  }
  TABBIN_ASSIGN_OR_RETURN(EmbeddingMatrix dense,
                          EmbeddingMatrix::Deserialize(r));
  if (!dense.empty() && dense.rows() != docs.size()) {
    return Status::ParseError("rag index: dense rows do not match docs");
  }
  Index(docs);  // rebuilds BM25 postings and clears the dense index
  dense_ = std::move(dense);
  if (quantized_retrieval_) dense_.EnableQuantization();
  return Status::OK();
}

std::vector<int> RagLlmSimulator::DenseRetrieve(int query_index, int k) const {
  if (dense_.empty() || k <= 0) return {};
  const VecView q = dense_.row(static_cast<size_t>(query_index));
  // One norm-free batched kernel pass over the grounding matrix (cached
  // per-row inverse norms; the query is a row of the same matrix, so its
  // norm is cached too), then a SelectTopK cut — (score desc, doc asc)
  // is a total order, so the selected prefix equals the old
  // full-sort-then-truncate output exactly.
  std::vector<int> rows;
  rows.reserve(dense_.rows());
  for (int d = 0; d < static_cast<int>(dense_.rows()); ++d) {
    if (d != query_index) rows.push_back(d);
  }
  // Two-stage scan: an int8 approximate pass cuts the pool before the
  // exact scoring below. Skipped when the pool already fits in the
  // shortlist, so small corpora stay byte-identical to the exact path.
  const size_t shortlist =
      static_cast<size_t>(k) *
      static_cast<size_t>(quantized_shortlist_multiplier_);
  if (quantized_retrieval_ && dense_.quantized() && rows.size() > shortlist) {
    const QuantizedQuery qq = MakeQuantizedQuery(q);
    std::vector<float> approx(rows.size());
    QuantizedCosineRows(dense_, qq, rows.data(), rows.size(), approx.data());
    std::vector<int> kept;
    kept.reserve(shortlist);
    for (size_t i : SelectTopK(rows.size(), shortlist, [&](size_t a, size_t b) {
           if (approx[a] != approx[b]) return approx[a] > approx[b];
           return rows[a] < rows[b];
         })) {
      kept.push_back(rows[i]);
    }
    std::sort(kept.begin(), kept.end());  // restore ascending-doc order
    rows = std::move(kept);
  }
  std::vector<float> scores(rows.size());
  kernels::BatchedCosineRows(
      q.data(), dense_.inv_norm(static_cast<size_t>(query_index)),
      dense_.data(), dense_.cols(), rows.data(), rows.size(),
      dense_.inv_norms(), scores.data());
  std::vector<int> out;
  for (size_t i : SelectTopK(rows.size(), static_cast<size_t>(k),
                             [&](size_t a, size_t b) {
                               if (scores[a] != scores[b]) {
                                 return scores[a] > scores[b];
                               }
                               return rows[a] < rows[b];
                             })) {
    out.push_back(rows[i]);
  }
  return out;
}

std::vector<int> RagLlmSimulator::RankFor(int query_index, int k) {
  // RAG stage: with RAG the retrieval pool is the BM25 top-3k (unioned
  // with the dense cosine top-k when an embedding index is set); without
  // it the "context" the model sees is a noisy sample of the corpus.
  std::vector<int> pool;
  if (profile_.uses_rag) {
    pool = retriever_.Retrieve(docs_[static_cast<size_t>(query_index)].text,
                               3 * k, query_index);
    std::unordered_set<int> in_pool(pool.begin(), pool.end());
    for (int d : DenseRetrieve(query_index, k)) {
      if (in_pool.insert(d).second) pool.push_back(d);
    }
  } else {
    pool = retriever_.Retrieve(docs_[static_cast<size_t>(query_index)].text,
                               k, query_index);
    // Dilute with random documents (the un-grounded LLM hallucination
    // analog): half the pool is random.
    for (int i = 0; i < 2 * k; ++i) {
      int d = static_cast<int>(rng_.Uniform(docs_.size()));
      if (d != query_index) pool.push_back(d);
    }
  }
  if (pool.empty()) return pool;

  // Tail fidelity: degrade the retriever's ordering by random swaps.
  const int shuffles =
      static_cast<int>((1.0 - profile_.tail_fidelity) * pool.size() * 1.5);
  for (int s = 0; s < shuffles; ++s) {
    size_t i = rng_.Uniform(pool.size());
    size_t j = rng_.Uniform(pool.size());
    std::swap(pool[i], pool[j]);
  }

  // First-hit behaviour: with probability first_hit_accuracy, promote a
  // correct document (if the pool contains one) to rank 1.
  if (rng_.Bernoulli(profile_.first_hit_accuracy)) {
    const std::string& label = docs_[static_cast<size_t>(query_index)].label;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (docs_[static_cast<size_t>(pool[i])].label == label) {
        std::rotate(pool.begin(), pool.begin() + static_cast<long>(i),
                    pool.begin() + static_cast<long>(i) + 1);
        break;
      }
    }
  }
  if (static_cast<int>(pool.size()) > k) pool.resize(static_cast<size_t>(k));
  return pool;
}

RagLlmSimulator::EvalResult RagLlmSimulator::Evaluate(int k,
                                                      int max_queries) {
  std::vector<int> queries(docs_.size());
  for (size_t i = 0; i < docs_.size(); ++i) queries[i] = static_cast<int>(i);
  rng_.Shuffle(&queries);
  if (static_cast<int>(queries.size()) > max_queries) {
    queries.resize(static_cast<size_t>(max_queries));
  }
  std::unordered_map<std::string, int> label_count;
  for (const RagDocument& d : docs_) ++label_count[d.label];
  std::vector<std::vector<bool>> runs;
  std::vector<int> totals;
  for (int q : queries) {
    std::vector<int> ranked = RankFor(q, k);
    std::vector<bool> rel;
    rel.reserve(ranked.size());
    for (int d : ranked) {
      rel.push_back(docs_[static_cast<size_t>(d)].label ==
                    docs_[static_cast<size_t>(q)].label);
    }
    runs.push_back(std::move(rel));
    totals.push_back(label_count[docs_[static_cast<size_t>(q)].label] - 1);
  }
  EvalResult result;
  // Same normalization as EvaluateClustering: AP is bounded by the
  // query's relevant population, so an LLM whose top-k misses cluster
  // members is penalized for them.
  result.map = MeanAveragePrecision(runs, k, totals);
  result.mrr = MeanReciprocalRank(runs, k);
  return result;
}

}  // namespace tabbin
