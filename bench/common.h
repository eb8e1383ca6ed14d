// Shared benchmark harness: generates a dataset, trains TabBiN and the
// baselines at CPU scale, caches table encodings, and provides the
// embedder closures + report formatting used by every tableXX binary.
//
// Scale note: the paper pre-trains BERT-BASE geometry for 50k steps on
// GPUs; these benchmarks run the identical pipeline at reduced geometry
// (see BenchTabBiNConfig) so every table regenerates in minutes on a
// laptop. EXPERIMENTS.md records the paper-vs-measured comparison.
#ifndef TABBIN_BENCH_COMMON_H_
#define TABBIN_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bertlike.h"
#include "baselines/tuta.h"
#include "baselines/word2vec.h"
#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "tasks/clustering.h"
#include "tasks/pipelines.h"

namespace tabbin {
namespace bench {

/// \brief The pre-kernel per-pair scoring path, kept verbatim as the
/// "before" baseline of the PR-5 candidate-scoring comparison:
/// double-accumulated scalar cosine that recomputes BOTH row norms on
/// every call. micro_bench and perf_report share this one copy so their
/// published speedups measure against the same baseline.
inline float PerPairCosineBaseline(VecView a, VecView b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

/// \brief Which models to train for a benchmark (training dominates cost).
struct ModelSet {
  bool tabbin = true;
  bool tuta = false;
  bool bertlike = false;
  bool word2vec = false;
};

/// \brief Parses harness flags shared by every paper-table binary:
///   `--snapshot_dir=DIR` (falling back to the TABBIN_SNAPSHOT_DIR
///   environment variable) — when set, BenchEnv loads
///   `<dir>/<dataset>_s<seed>.tbsn` instead of pretraining TabBiN, and
///   writes that snapshot (models + cached table encodings) after the
///   first cold run, so re-running any paper table skips pretraining.
///   `--shards=N` — BenchEnv serves TabBiN through a TabBinService
///   with N hash-partitioned shards instead of one (answers are
///   byte-identical; the knob exists so the paper tables can exercise
///   the parallel scatter-gather path).
void InitFromArgs(int argc, char** argv);

/// \brief Snapshot directory from InitFromArgs; empty when disabled.
const std::string& SnapshotDir();

/// \brief Shard count from InitFromArgs (default 1 = single shard).
int NumShards();

/// \brief The CPU-scale TabBiN configuration used by all benchmarks.
TabBiNConfig BenchTabBiNConfig();

/// \brief Matching BertLike configuration.
BertLikeConfig BenchBertConfig();

/// \brief Default corpus size per dataset.
constexpr int kBenchTables = 90;

/// \brief Evaluation options shared by all benchmarks (top-20 clusters,
/// as in the paper).
ClusterEvalOptions BenchEvalOptions();

/// \brief A dataset with trained models and cached TabBiN encodings.
///
/// The TabBiN side is served through a TabBinService facade so the
/// paper-table numbers exercise exactly the code a production caller
/// uses (engine-cached encode → composite embedding).
class BenchEnv {
 public:
  BenchEnv(const std::string& dataset, const ModelSet& models,
           int num_tables = kBenchTables, uint64_t seed = 7);

  const LabeledCorpus& data() const { return data_; }
  const Corpus& corpus() const { return data_.corpus; }
  TabBiNSystem& tabbin() { return *tabbin_; }
  /// \brief The serving facade over this dataset — a TabBinService with
  /// one shard, or N under `--shards=N`. The corpus is indexed
  /// (AddTables) lazily on first use, so benchmarks that only need the
  /// embedding accessors don't pay for LSH/entity index construction.
  TabBinServing& service();
  EncoderEngine& engine() { return service_->engine(); }
  TutaModel& tuta() { return *tuta_; }
  BertLikeModel& bertlike() { return *bert_; }
  Word2Vec& word2vec() { return *w2v_; }

  /// \brief Cached EncodeAll for a table. Corpus tables resolve to the
  /// constructor-prewarmed encodings in O(1); any other table goes
  /// through the engine's fingerprint cache.
  std::shared_ptr<const TableEncodings> Encodings(const Table& table);

  /// \brief Encodes every corpus table in parallel via the engine (called
  /// by the constructor when TabBiN is trained) and keeps the results
  /// indexed by table position for O(1) embedder-callback access.
  void PrewarmEncodings();

  // Embedder closures for the pipelines (capture `this`).
  ColumnEmbedder TabbinColumnComposite();
  ColumnEmbedder TabbinColumnSingle();
  TableEmbedder TabbinTableComposite1();
  TableEmbedder TabbinTableComposite2();  // with BertLike caption emb
  TableEmbedder TabbinTableSingle();
  CellEmbedder TabbinEntity();

  ColumnEmbedder TutaColumn();
  TableEmbedder TutaTable();
  CellEmbedder TutaEntity();

  ColumnEmbedder BertColumn();
  TableEmbedder BertTable();
  CellEmbedder BertEntity();

  ColumnEmbedder W2vColumn();
  TableEmbedder W2vTable();
  CellEmbedder W2vEntity();

  /// \brief Table index lookup for a Table pointer-identity in corpus.
  int IndexOf(const Table& table) const;

 private:
  LabeledCorpus data_;
  std::shared_ptr<TabBiNSystem> tabbin_;  // shared with service_
  std::unique_ptr<TabBinServing> service_;
  bool service_indexed_ = false;
  std::vector<std::shared_ptr<const TableEncodings>> prewarmed_;
  std::unique_ptr<TutaModel> tuta_;
  std::unique_ptr<BertLikeModel> bert_;
  std::unique_ptr<Word2Vec> w2v_;
};

// ---------------------------------------------------------------------------
// Query filtering helpers (the paper's table/column splits)
// ---------------------------------------------------------------------------

std::vector<ColumnQuery> FilterColumns(
    const LabeledCorpus& data,
    const std::function<bool(const Table&, const ColumnQuery&)>& pred);

std::vector<TableQuery> FilterTables(
    const LabeledCorpus& data,
    const std::function<bool(const Table&)>& pred);

// ---------------------------------------------------------------------------
// Report formatting
// ---------------------------------------------------------------------------

/// \brief Prints "== Table N: title ==" header with the paper reference.
void PrintHeader(const std::string& table_id, const std::string& title);

/// \brief Prints one "model | split | MAP | MRR" row.
void PrintRow(const std::string& model, const std::string& split, double map,
              double mrr, int queries = -1);

/// \brief Prints the expected qualitative shape from the paper.
void PrintExpectation(const std::string& text);

}  // namespace bench
}  // namespace tabbin

#endif  // TABBIN_BENCH_COMMON_H_
