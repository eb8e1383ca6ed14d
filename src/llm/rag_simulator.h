// LLM + Retrieval-Augmented-Generation behavioural simulator (DESIGN.md
// substitution S6) for the paper's Table 14 comparison.
//
// The paper evaluates GPT-2, Llama2, GPT-3.5 and GPT-4 (the latter two
// with a Sycamore RAG front end) on the CC and TC tasks. Commercial LLM
// APIs are unavailable offline, and Table 14's finding is a *shape*:
//   - RAG markedly improves every LLM;
//   - RAG+GPT-4 achieves near-perfect MRR (its first answer is almost
//     always right) yet loses to TabBiN on MAP (its full top-20 ranking
//     is weaker).
// The simulator reproduces the mechanism behind that shape: a lexical
// BM25 retriever (the RAG stage) plus a re-ranker whose two quality knobs
// — first-hit accuracy and tail fidelity — are calibrated per simulated
// model from the paper's published deltas. It runs through the exact same
// MAP/MRR evaluation harness as every real model in this repository.
#ifndef TABBIN_LLM_RAG_SIMULATOR_H_
#define TABBIN_LLM_RAG_SIMULATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "tasks/metrics.h"
#include "tensor/embedding_matrix.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace tabbin {

/// \brief A retrievable document (serialized table or column) with its
/// ground-truth cluster label.
struct RagDocument {
  std::string text;
  std::string label;
};

/// \brief BM25 lexical retriever over RagDocuments — the "RAG" stage.
class Bm25Retriever {
 public:
  explicit Bm25Retriever(double k1 = 1.2, double b = 0.75);

  void Index(const std::vector<RagDocument>& docs);

  /// \brief Appends documents incrementally: postings and length stats
  /// are extended and the idf table recomputed once per batch. The
  /// resulting state is identical to re-Indexing the full document list.
  void AddAll(const std::vector<RagDocument>& docs);
  void Add(const RagDocument& doc) { AddAll({doc}); }

  size_t size() const { return doc_terms_.size(); }

  /// \brief Indices of the top-k documents for a text query, best first.
  /// `exclude` removes the query document itself.
  std::vector<int> Retrieve(const std::string& query, int k,
                            int exclude = -1) const;

 private:
  double Score(const std::vector<std::string>& query_terms, int doc) const;

  // Tokenizes one document into postings/length stats (no idf update).
  void AppendDoc(const RagDocument& doc);
  // Recomputes idf for every term (document count changed).
  void RecomputeIdf();

  double k1_, b_;
  std::vector<std::vector<std::string>> doc_terms_;
  std::vector<double> doc_len_;
  double total_len_ = 0;
  double avg_len_ = 0;
  std::unordered_map<std::string, std::vector<int>> postings_;
  std::unordered_map<std::string, double> idf_;
};

/// \brief Quality profile of a simulated LLM ranker.
struct LlmProfile {
  std::string name;
  // Probability that the model places a correct item at rank 1 when the
  // retrieval pool contains one.
  double first_hit_accuracy = 0.5;
  // Fidelity of the rest of the ranking: 1 keeps the retriever's order,
  // 0 shuffles it completely.
  double tail_fidelity = 0.5;
  bool uses_rag = false;  // without RAG the pool itself is noisy
};

/// \brief Calibrated profiles reproducing Table 14's ordering:
/// gpt2 < llama2 < llama2+rag < gpt3.5+rag < gpt4+rag.
LlmProfile ProfileFor(const std::string& model_name);

/// \brief Simulated LLM ranking pipeline.
class RagLlmSimulator {
 public:
  RagLlmSimulator(const LlmProfile& profile, uint64_t seed = 4242);

  void Index(const std::vector<RagDocument>& docs);

  /// \brief Like Index, but additionally grounds the RAG stage in dense
  /// embeddings: row i of `embeddings` embeds docs[i] (flat [n, dim]
  /// storage). The retrieval pool becomes the union of the BM25 top-k and
  /// the cosine top-k over the embedding matrix, so lexically disjoint
  /// but semantically close documents stay retrievable.
  ///
  /// InvalidArgument when the embedding row count does not match the
  /// document count; the simulator is left indexed lexical-only.
  Status Index(const std::vector<RagDocument>& docs,
               EmbeddingMatrix embeddings);

  /// \brief Ranked document indices for a query document (top-k cluster),
  /// mimicking "prompt the LLM with the retrieved candidates".
  std::vector<int> RankFor(int query_index, int k);

  /// \brief Full MAP/MRR evaluation over all documents as queries.
  struct EvalResult {
    double map = 0;
    double mrr = 0;
  };
  EvalResult Evaluate(int k = 20, int max_queries = 200);

  /// \brief Writes the grounding index — documents, then the dense
  /// embedding matrix — into a byte stream. The BM25 postings are
  /// derived state and are rebuilt by DeserializeIndex.
  void SerializeIndex(BinaryWriter* w) const;

  /// \brief Restores an index written by SerializeIndex; afterwards
  /// RankFor / Evaluate behave identically to the simulator that wrote
  /// it (given equal RNG state). A dense matrix whose row count differs
  /// from the document count is ParseError. Quantized retrieval is
  /// in-memory state, never persisted: a simulator that has it enabled
  /// keeps it across DeserializeIndex (the sidecar is rebuilt for the
  /// loaded matrix), but a fresh simulator starts on the exact path.
  Status DeserializeIndex(BinaryReader* r);

  /// \brief Switches DenseRetrieve to the two-stage int8 scan: an
  /// approximate quantized pass over all documents cuts the pool to
  /// (k * shortlist_multiplier) before the exact float cosine top-k.
  /// Builds the code sidecar for the current dense matrix (and Index /
  /// DeserializeIndex rebuild it for new matrices). Pass on=false to restore
  /// the exact full scan.
  void EnableQuantizedRetrieval(bool on = true, int shortlist_multiplier = 4);

 private:
  /// \brief Indices of the top-k documents by cosine similarity to the
  /// query row of the dense matrix (empty when no dense index is set).
  std::vector<int> DenseRetrieve(int query_index, int k) const;

  LlmProfile profile_;
  Rng rng_;
  std::vector<RagDocument> docs_;
  Bm25Retriever retriever_;
  EmbeddingMatrix dense_;  // [docs, dim]; empty when lexical-only
  bool quantized_retrieval_ = false;
  int quantized_shortlist_multiplier_ = 4;
};

}  // namespace tabbin

#endif  // TABBIN_LLM_RAG_SIMULATOR_H_
