// Domain scenario: table search over a medical corpus (the application
// the paper's introduction motivates — finding tables similar to a given
// table to aid search and data fusion).
//
//   $ ./build/examples/medical_table_search
//
// Builds a CancerKG-like corpus, pre-trains TabBiN, serves the
// "find tables like this one" query through the TabBinService facade
// (LSH-blocked, engine-cached), and compares the structure-aware
// composite embedding against a plain text baseline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/word2vec.h"
#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "tensor/ops.h"

using namespace tabbin;

int main() {
  GeneratorOptions gen;
  gen.num_tables = 60;
  gen.seed = 19;
  LabeledCorpus data = GenerateDataset("cancerkg", gen);

  TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.pretrain_steps = 50;
  auto sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(data.corpus.tables, cfg));
  sys->Pretrain(data.corpus.tables);

  // The serving facade owns the encode → index → query lifecycle; the
  // whole corpus is batch-encoded across the thread pool on insert.
  TabBinService service(sys);
  auto added = service.AddTables(data.corpus.tables);
  if (!added.ok()) {
    std::fprintf(stderr, "error: %s\n", added.status().ToString().c_str());
    return 1;
  }

  // Text baseline for comparison.
  Word2VecConfig wcfg;
  wcfg.dim = 64;
  Word2Vec w2v(wcfg);
  std::vector<std::string> sentences;
  for (const auto& t : data.corpus.tables) {
    for (auto& s : SerializeTuples(t)) sentences.push_back(std::move(s));
  }
  w2v.Train(sentences);

  // Query: the first nested table in the corpus (the hard case).
  int query = -1;
  for (size_t i = 0; i < data.corpus.tables.size(); ++i) {
    if (data.corpus.tables[i].HasNesting()) {
      query = static_cast<int>(i);
      break;
    }
  }
  if (query < 0) query = 0;
  const Table& qt = data.corpus.tables[static_cast<size_t>(query)];
  std::printf("query table: '%s'\n  topic=%s  %dx%d  nested=%s\n\n",
              qt.caption().c_str(), qt.topic().c_str(), qt.rows(), qt.cols(),
              qt.HasNesting() ? "yes" : "no");

  // TabBiN answers through the service: LSH candidates, exact cosine,
  // self excluded — the exact code path a production caller uses.
  auto response = service.SimilarTables({qt.id(), nullptr, 5});
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("TabBiN (service) top-5 similar tables:\n");
  int correct = 0;
  for (const auto& m : response.value().matches) {
    // Recover the topic through the corpus (the service response carries
    // id + caption + score).
    std::string topic;
    for (const auto& t : data.corpus.tables) {
      if (t.id() == m.table_id) topic = t.topic();
    }
    const bool match = topic == qt.topic();
    correct += match;
    std::printf("  %.3f  [%s] %-22s %s\n", m.score, match ? "ok " : "x  ",
                topic.c_str(), m.caption.c_str());
  }
  std::printf("  topic precision@5: %d/5\n\n", correct);

  // Word2Vec baseline: manual embed + rank (no structure awareness).
  // Documents serialize the same way the service's Ask index does.
  EmbeddingMatrix w2v_emb;
  for (const auto& t : data.corpus.tables) {
    w2v_emb.AppendRow(w2v.Embed(ServiceDocumentText(t)));
  }
  std::vector<std::pair<float, int>> scored;
  for (int i = 0; i < static_cast<int>(w2v_emb.rows()); ++i) {
    if (i == query) continue;
    scored.emplace_back(
        CosineSimilarity(w2v_emb.row(static_cast<size_t>(query)),
                         w2v_emb.row(static_cast<size_t>(i))),
        i);
  }
  std::sort(scored.rbegin(), scored.rend());
  std::printf("Word2Vec top-5 similar tables:\n");
  correct = 0;
  for (int k = 0; k < 5 && k < static_cast<int>(scored.size()); ++k) {
    const Table& t = data.corpus.tables[static_cast<size_t>(
        scored[static_cast<size_t>(k)].second)];
    const bool match = t.topic() == qt.topic();
    correct += match;
    std::printf("  %.3f  [%s] %-22s %s\n", scored[static_cast<size_t>(k)].first,
                match ? "ok " : "x  ", t.topic().c_str(), t.caption().c_str());
  }
  std::printf("  topic precision@5: %d/5\n", correct);
  return 0;
}
