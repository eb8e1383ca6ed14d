// Quickstart: generate a small corpus, pre-train TabBiN, and serve
// column/table similarity queries through the TabBinService facade.
//
//   $ ./build/examples/quickstart
//
// Walks through the library's main API surface: dataset generation,
// TabBiNSystem::Create / Pretrain, then the serving facade — AddTables
// (incremental indexing), SimilarTables / SimilarColumns, free-text Ask
// (RAG grounding) — and the CC evaluation harness running over the same
// service embedding path.
#include <cstdio>
#include <memory>

#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "tasks/clustering.h"
#include "tasks/pipelines.h"

using namespace tabbin;

int main() {
  // 1. A small CancerKG-like corpus with ground-truth labels.
  GeneratorOptions gen;
  gen.num_tables = 40;
  LabeledCorpus data = GenerateDataset("cancerkg", gen);
  std::printf("corpus: %zu tables, %.0f%% non-relational, %.0f%% nested\n",
              data.corpus.tables.size(),
              100 * data.NonRelationalFraction(),
              100 * data.NestedFraction());

  // 2. Create and pre-train a TabBiN system (vocabulary is trained from
  //    the corpus; four models: data-row, data-column, HMD, VMD).
  TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.pretrain_steps = 40;
  auto sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(data.corpus.tables, cfg));
  std::printf("vocabulary: %d wordpieces\n", sys->vocab().size());
  auto stats = sys->Pretrain(data.corpus.tables);
  for (int v = 0; v < 4; ++v) {
    std::printf("pretrain %-12s loss %.3f -> %.3f\n",
                TabBiNVariantName(static_cast<TabBiNVariant>(v)),
                stats[static_cast<size_t>(v)].initial_loss,
                stats[static_cast<size_t>(v)].final_loss);
  }

  // 3. Stand up the serving facade and index the corpus incrementally —
  //    new tables are encoded in parallel and inserted into the live
  //    column/table/entity LSH indexes, no rebuild.
  TabBinService service(sys);
  auto report = service.AddTables(data.corpus.tables);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nservice: %d tables, %d columns, %d entities indexed\n",
              report.value().tables_added, report.value().columns_indexed,
              report.value().entities_indexed);

  // 4. "Find tables like this one" — the paper's motivating query.
  const Table& probe = data.corpus.tables[0];
  auto similar = service.SimilarTables({probe.id(), nullptr, 3});
  if (!similar.ok()) {
    std::fprintf(stderr, "error: %s\n", similar.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntables similar to '%s' (topic %s):\n", probe.caption().c_str(),
              probe.topic().c_str());
  for (const auto& m : similar.value().matches) {
    std::printf("  %.3f  %s\n", m.score, m.caption.c_str());
  }

  // 5. Column similarity from the same facade.
  auto cols = service.SimilarColumns({probe.id(), nullptr, probe.vmd_cols(), 3});
  if (cols.ok()) {
    std::printf("\ncolumns similar to col %d of '%s':\n", probe.vmd_cols(),
                probe.caption().c_str());
    for (const auto& m : cols.value().matches) {
      std::printf("  %.3f  col %d of %s\n", m.score, m.col,
                  m.caption.c_str());
    }
  }

  // 6. Free-text grounding (the RAG front end of Table 14).
  auto ask = service.Ask({"overall survival months", 3});
  if (ask.ok()) {
    std::printf("\nask: %s\n", ask.value().answer.c_str());
  }

  // 7. Full CC evaluation with the shared harness, embedding through the
  //    very same service path the queries above used. The TableProvider
  //    seam lets the pipelines run over any table store — here a Corpus,
  //    but a service corpus or test fixture works identically.
  ClusterEvalOptions opts;
  opts.max_queries = 60;
  auto result = EvaluateClustering(
      EmbedColumns(CorpusProvider(data.corpus), data.columns,
                   [&](const Table& t, int col) {
                     return service.ColumnEmbedding(t, col);
                   }),
      opts);
  std::printf("\ncolumn clustering: MAP@20 %.3f MRR@20 %.3f over %d queries\n",
              result.map, result.mrr, result.queries);
  return 0;
}
