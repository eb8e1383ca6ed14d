// End-to-end integration tests: generator -> pretraining -> encoding ->
// clustering; corpus persistence; model checkpointing; failure injection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "baselines/word2vec.h"
#include "core/tabbin.h"
#include "datagen/corpus_gen.h"
#include "io/table_io.h"
#include "tasks/clustering.h"
#include "tasks/pipelines.h"

namespace tabbin {
namespace {

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 64;
  cfg.pretrain_steps = 25;
  cfg.batch_size = 2;
  cfg.learning_rate = 2e-3f;
  return cfg;
}

LabeledCorpus TinyCorpus(const std::string& name = "cancerkg") {
  GeneratorOptions opts;
  opts.num_tables = 24;
  opts.seed = 55;
  return GenerateDataset(name, opts);
}

TEST(IntegrationTest, EndToEndColumnClustering) {
  LabeledCorpus data = TinyCorpus();
  TabBiNSystem sys = TabBiNSystem::Create(data.corpus.tables, TinyConfig());
  sys.Pretrain(data.corpus.tables);

  std::map<int, TableEncodings> cache;
  auto embed = [&](const Table& t, int col) {
    int idx = -1;
    for (size_t i = 0; i < data.corpus.tables.size(); ++i) {
      if (&data.corpus.tables[i] == &t) idx = static_cast<int>(i);
    }
    auto it = cache.find(idx);
    if (it == cache.end()) it = cache.emplace(idx, sys.EncodeAll(t)).first;
    return sys.ColumnComposite(it->second, col);
  };
  ClusterEvalOptions opts;
  opts.max_queries = 40;
  opts.use_lsh = false;
  auto result = EvaluateClustering(
      EmbedColumns(data.corpus, data.columns, embed), opts);
  EXPECT_GT(result.queries, 10);
  // Even a tiny model beats random assignment by a wide margin. (The
  // threshold is calibrated to population-normalized MAP@k, which is
  // strictly below the old hits-normalized score.)
  EXPECT_GT(result.map, 0.25);
  EXPECT_LE(result.map, 1.0);
  EXPECT_GE(result.mrr, result.map - 1e-9);  // MRR >= MAP always
}

TEST(IntegrationTest, CorpusPersistenceKeepsEvaluationIdentical) {
  LabeledCorpus data = TinyCorpus("webtables");
  const std::string path = "/tmp/tabbin_integration_corpus.json";
  ASSERT_TRUE(SaveCorpus(data.corpus, path).ok());
  auto loaded = LoadCorpus(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().tables.size(), data.corpus.tables.size());
  // Spot-check structural equality of a non-trivial table.
  for (size_t i = 0; i < data.corpus.tables.size(); ++i) {
    const Table& a = data.corpus.tables[i];
    const Table& b = loaded.value().tables[i];
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.hmd_rows(), b.hmd_rows());
    ASSERT_EQ(a.vmd_cols(), b.vmd_cols());
    ASSERT_EQ(a.caption(), b.caption());
    for (int r = 0; r < a.rows(); ++r) {
      for (int c = 0; c < a.cols(); ++c) {
        ASSERT_TRUE(a.cell(r, c).value == b.cell(r, c).value)
            << "table " << i << " cell " << r << "," << c;
        ASSERT_EQ(a.cell(r, c).has_nested(), b.cell(r, c).has_nested());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, CheckpointRestoresIdenticalEmbeddings) {
  LabeledCorpus data = TinyCorpus();
  TabBiNConfig cfg = TinyConfig();
  cfg.pretrain_steps = 8;
  TabBiNSystem sys = TabBiNSystem::Create(data.corpus.tables, cfg);
  sys.Pretrain(data.corpus.tables);

  const std::string model_path = "/tmp/tabbin_int_model.tbsn";
  ASSERT_TRUE(sys.Save(model_path).ok());
  auto restored = TabBiNSystem::Load(model_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const Table& t = data.corpus.tables[0];
  auto e1 = sys.EncodeSegment(t, TabBiNVariant::kDataRow);
  auto e2 = restored.value().EncodeSegment(t, TabBiNVariant::kDataRow);
  ASSERT_EQ(e1.hidden.rows(), e2.hidden.rows());
  ASSERT_EQ(e1.hidden.cols(), e2.hidden.cols());
  for (size_t i = 0; i < e1.hidden.size(); ++i) {
    ASSERT_FLOAT_EQ(e1.hidden.data()[i], e2.hidden.data()[i]);
  }
  std::remove(model_path.c_str());
}

TEST(IntegrationTest, CorruptCheckpointRejected) {
  LabeledCorpus data = TinyCorpus();
  TabBiNConfig cfg = TinyConfig();
  TabBiNSystem sys = TabBiNSystem::Create(data.corpus.tables, cfg);
  const std::string path = "/tmp/tabbin_int_corrupt.tbsn";
  ASSERT_TRUE(sys.Save(path).ok());
  // Truncate the file (simulated partial write / disk failure).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(std::fflush(f), 0);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    std::fclose(f);
  }
  auto loaded = TabBiNSystem::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(IntegrationTest, StructureAwareBeatsBagOfWordsOnConfusableColumns) {
  // The generator plants confusable columns (same value catalog,
  // different attribute). A trained TabBiN composite (which sees the
  // header through the HMD model) should not do worse than the pure
  // value-bag Word2Vec baseline on string columns.
  GeneratorOptions opts;
  opts.num_tables = 40;
  opts.seed = 77;
  LabeledCorpus data = GenerateDataset("cancerkg", opts);

  TabBiNConfig cfg = TinyConfig();
  cfg.pretrain_steps = 40;
  TabBiNSystem sys = TabBiNSystem::Create(data.corpus.tables, cfg);
  sys.Pretrain(data.corpus.tables);

  Word2VecConfig wcfg;
  wcfg.dim = 32;
  Word2Vec w2v(wcfg);
  std::vector<std::string> sentences;
  for (const auto& t : data.corpus.tables) {
    for (auto& s : SerializeTuples(t)) sentences.push_back(std::move(s));
  }
  w2v.Train(sentences);

  auto string_cols =
      [&]() {
        std::vector<ColumnQuery> out;
        for (const auto& q : data.columns) {
          const Table& t =
              data.corpus.tables[static_cast<size_t>(q.table_index)];
          if (!IsNumericColumn(t, q.col)) out.push_back(q);
        }
        return out;
      }();

  std::map<int, TableEncodings> cache;
  auto tabbin_embed = [&](const Table& t, int col) {
    int idx = -1;
    for (size_t i = 0; i < data.corpus.tables.size(); ++i) {
      if (&data.corpus.tables[i] == &t) idx = static_cast<int>(i);
    }
    auto it = cache.find(idx);
    if (it == cache.end()) it = cache.emplace(idx, sys.EncodeAll(t)).first;
    return sys.ColumnComposite(it->second, col);
  };
  auto w2v_embed = [&](const Table& t, int col) {
    std::string text;
    for (int r = 0; r < t.rows(); ++r) {
      if (!t.cell(r, col).is_empty()) {
        text += t.cell(r, col).value.ToString() + " ";
      }
    }
    return w2v.Embed(text);
  };

  ClusterEvalOptions eopts;
  eopts.max_queries = 50;
  eopts.use_lsh = false;
  auto tabbin_result = EvaluateClustering(
      EmbedColumns(data.corpus, string_cols, tabbin_embed), eopts);
  auto w2v_result = EvaluateClustering(
      EmbedColumns(data.corpus, string_cols, w2v_embed), eopts);
  // At this deliberately tiny training scale (24 tables, 40 steps) we only
  // require TabBiN to stay in the same quality band as the value-bag
  // baseline; the full-scale comparison is bench/table04_cc. The band is
  // calibrated to population-normalized MAP@k, which penalizes the
  // undertrained encoder (low recall in the top-k) harder than the
  // value-bag baseline.
  EXPECT_GT(tabbin_result.map, w2v_result.map - 0.3);
  EXPECT_GT(tabbin_result.map, 0.35);
}

}  // namespace
}  // namespace tabbin
