#include "bench/common.h"

#include <algorithm>
#include <cstdlib>

#include "store/paged_snapshot.h"
#include "util/logging.h"

namespace tabbin {
namespace bench {

namespace {
std::string g_snapshot_dir;
int g_shards = 1;
}  // namespace

void InitFromArgs(int argc, char** argv) {
  const std::string prefix = "--snapshot_dir=";
  const std::string shards_prefix = "--shards=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) g_snapshot_dir = arg.substr(prefix.size());
    if (arg.rfind(shards_prefix, 0) == 0) {
      g_shards = std::max(1, std::atoi(arg.c_str() + shards_prefix.size()));
    }
  }
  if (g_snapshot_dir.empty()) {
    if (const char* env = std::getenv("TABBIN_SNAPSHOT_DIR")) {
      g_snapshot_dir = env;
    }
  }
}

const std::string& SnapshotDir() { return g_snapshot_dir; }

int NumShards() { return g_shards; }

TabBiNConfig BenchTabBiNConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.max_seq_len = 96;
  cfg.pretrain_steps = 80;
  cfg.batch_size = 4;
  cfg.learning_rate = 1.5e-3f;
  return cfg;
}

BertLikeConfig BenchBertConfig() {
  BertLikeConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.max_seq_len = 96;
  cfg.pretrain_steps = 80;
  cfg.batch_size = 4;
  cfg.learning_rate = 1.5e-3f;
  return cfg;
}

ClusterEvalOptions BenchEvalOptions() {
  ClusterEvalOptions opts;
  opts.k = 20;
  opts.max_queries = 120;
  opts.use_lsh = true;
  return opts;
}

BenchEnv::BenchEnv(const std::string& dataset, const ModelSet& models,
                   int num_tables, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_tables = num_tables;
  gen.seed = seed;
  data_ = GenerateDataset(dataset, gen);

  TabBiNConfig cfg = BenchTabBiNConfig();
  // Capacity covers the whole corpus so no bench eval ever thrashes.
  ServiceOptions service_opts;
  service_opts.encoder_cache_capacity =
      std::max<size_t>(256, data_.corpus.tables.size());
  const std::string snap_path =
      SnapshotDir().empty()
          ? ""
          : SnapshotDir() + "/" + dataset + "_s" + std::to_string(seed) +
                ".tbsn";

  // Warm start: a prior run of any paper table persisted the trained
  // models (and their table encodings) for this dataset/seed; loading
  // them replaces pretraining entirely.
  bool warm = false;
  if (models.tabbin && !snap_path.empty()) {
    auto snapshot = PagedSnapshotReader::Open(snap_path);
    if (snapshot.ok()) {
      auto sys = TabBiNSystem::FromSnapshot(snapshot.value());
      if (sys.ok() && sys.value().config() != cfg) {
        // A stale snapshot from an older BenchTabBiNConfig() would
        // silently pin every "regenerated" number to the old geometry.
        TABBIN_LOG(WARNING)
            << dataset << ": snapshot " << snap_path
            << " was written under a different bench config; re-pretraining";
      } else if (sys.ok()) {
        tabbin_ = std::make_shared<TabBiNSystem>(std::move(sys).value());
        service_ = MakeServing(tabbin_, NumShards(), service_opts);
        auto warmed = service_->engine().WarmStart(snapshot.value());
        if (warmed.ok()) {
          TABBIN_LOG(INFO) << dataset << ": warm start from " << snap_path
                           << " (" << warmed.value()
                           << " cached table encodings)";
          warm = true;
        } else {
          service_.reset();
          TABBIN_LOG(WARNING)
              << dataset << ": snapshot cache rejected ("
              << warmed.status().ToString() << "); re-pretraining";
        }
      } else {
        TABBIN_LOG(WARNING) << dataset << ": snapshot rejected ("
                            << sys.status().ToString()
                            << "); re-pretraining";
      }
    } else if (snapshot.status().code() != StatusCode::kIoError) {
      // Missing file (IoError) is the normal first run; anything else
      // means the snapshot exists but is corrupt — say so before the
      // silent re-pretrain overwrites the evidence.
      TABBIN_LOG(WARNING) << dataset << ": snapshot unreadable ("
                          << snapshot.status().ToString()
                          << "); re-pretraining";
    }
  }

  if (!warm) {
    tabbin_ = std::make_shared<TabBiNSystem>(
        TabBiNSystem::Create(data_.corpus.tables, cfg));
    // Register the dataset's catalogs so type inference covers them (the
    // paper's "custom list of named-entities" step). A warm-started
    // system skips this: the snapshot persists the full lexicon.
    for (const auto& cat : data_.catalogs) {
      SemType type = SemType::kText;
      if (cat.name == "drug") type = SemType::kDrug;
      else if (cat.name == "vaccine") type = SemType::kVaccine;
      else if (cat.name == "disease") type = SemType::kDisease;
      else if (cat.name == "symptom") type = SemType::kSymptom;
      else if (cat.name == "treatment") type = SemType::kTreatment;
      else if (cat.name == "organization") type = SemType::kOrganization;
      else if (cat.name == "city" || cat.name == "state" ||
               cat.name == "region") {
        type = SemType::kPlace;
      } else {
        continue;
      }
      for (const auto& e : cat.entities) tabbin_->typer()->AddTerm(e, type);
    }
    if (models.tabbin) {
      TABBIN_LOG(INFO) << dataset << ": pre-training TabBiN (4 models)";
      tabbin_->Pretrain(data_.corpus.tables);
    }
    service_ = MakeServing(tabbin_, NumShards(), service_opts);
  }
  if (models.tabbin) PrewarmEncodings();
  if (models.tabbin && !warm && !snap_path.empty()) {
    PagedSnapshotWriter snapshot;
    tabbin_->AppendTo(&snapshot);
    service_->engine().AppendCacheTo(&snapshot);
    Status st = snapshot.ToFile(snap_path);
    if (st.ok()) {
      TABBIN_LOG(INFO) << dataset << ": wrote snapshot " << snap_path;
    } else {
      TABBIN_LOG(WARNING) << dataset << ": snapshot write failed: "
                          << st.ToString();
    }
  }
  if (models.tuta) {
    TABBIN_LOG(INFO) << dataset << ": pre-training TUTA-like";
    tuta_ = std::make_unique<TutaModel>(cfg, &tabbin_->vocab(),
                                        tabbin_->typer());
    tuta_->Pretrain(data_.corpus.tables);
  }
  if (models.bertlike) {
    TABBIN_LOG(INFO) << dataset << ": pre-training BertLike";
    bert_ = std::make_unique<BertLikeModel>(BenchBertConfig(),
                                            &tabbin_->vocab());
    std::vector<std::string> texts;
    for (const auto& t : data_.corpus.tables) {
      texts.push_back(t.caption());
      for (auto& tuple : SerializeTuples(t)) texts.push_back(std::move(tuple));
    }
    bert_->Pretrain(texts);
  }
  if (models.word2vec) {
    TABBIN_LOG(INFO) << dataset << ": training Word2Vec";
    Word2VecConfig wcfg;
    wcfg.dim = 64;  // scaled with the transformer hidden sizes
    w2v_ = std::make_unique<Word2Vec>(wcfg);
    std::vector<std::string> sentences;
    for (const auto& t : data_.corpus.tables) {
      for (auto& tuple : SerializeTuples(t)) {
        sentences.push_back(std::move(tuple));
      }
    }
    w2v_->Train(sentences);
  }
}

TabBinServing& BenchEnv::service() {
  if (!service_indexed_) {
    // Encodings are already prewarmed, so indexing costs composites +
    // LSH inserts only.
    auto report = service_->AddTables(data_.corpus.tables);
    if (!report.ok()) {
      TABBIN_LOG(WARNING) << "BenchEnv: corpus indexing failed: "
                          << report.status().ToString();
    }
    service_indexed_ = true;
  }
  return *service_;
}

std::shared_ptr<const TableEncodings> BenchEnv::Encodings(const Table& table) {
  const int index = IndexOf(table);
  if (index >= 0 && index < static_cast<int>(prewarmed_.size())) {
    return prewarmed_[static_cast<size_t>(index)];
  }
  // Not a corpus table (or prewarm skipped): the engine's content
  // fingerprint still deduplicates repeated encodes.
  return service_->engine().Encode(table);
}

void BenchEnv::PrewarmEncodings() {
  prewarmed_ = service_->engine().EncodeBatch(data_.corpus.tables);
}

int BenchEnv::IndexOf(const Table& table) const {
  for (size_t i = 0; i < data_.corpus.tables.size(); ++i) {
    if (&data_.corpus.tables[i] == &table) return static_cast<int>(i);
  }
  return -1;
}

ColumnEmbedder BenchEnv::TabbinColumnComposite() {
  // The service accessor is the production embedding path (engine-cached
  // encode → CC composite); paper tables measure the code users call.
  return [this](const Table& t, int col) {
    return service_->ColumnEmbedding(t, col);
  };
}

ColumnEmbedder BenchEnv::TabbinColumnSingle() {
  return [this](const Table& t, int col) {
    return tabbin_->ColumnSingle(*Encodings(t), col);
  };
}

TableEmbedder BenchEnv::TabbinTableComposite1() {
  return [this](const Table& t) { return service_->TableEmbedding(t); };
}

TableEmbedder BenchEnv::TabbinTableComposite2() {
  return [this](const Table& t) {
    std::vector<float> caption =
        bert_ ? bert_->EncodeText(t.caption()) : std::vector<float>{};
    return tabbin_->TableComposite2(*Encodings(t), caption);
  };
}

TableEmbedder BenchEnv::TabbinTableSingle() {
  return [this](const Table& t) {
    return tabbin_->TableSingle(*Encodings(t));
  };
}

CellEmbedder BenchEnv::TabbinEntity() {
  return [this](const Table& t, int row, int col) {
    return service_->EntityEmbedding(t, row, col);
  };
}

ColumnEmbedder BenchEnv::TutaColumn() {
  return [this](const Table& t, int col) { return tuta_->EncodeColumn(t, col); };
}
TableEmbedder BenchEnv::TutaTable() {
  return [this](const Table& t) { return tuta_->EncodeTable(t); };
}
CellEmbedder BenchEnv::TutaEntity() {
  return [this](const Table& t, int row, int col) {
    return tuta_->EncodeCell(t, row, col);
  };
}

ColumnEmbedder BenchEnv::BertColumn() {
  return [this](const Table& t, int col) { return bert_->EncodeColumn(t, col); };
}
TableEmbedder BenchEnv::BertTable() {
  return [this](const Table& t) { return bert_->EncodeTable(t); };
}
CellEmbedder BenchEnv::BertEntity() {
  return [this](const Table& t, int row, int col) {
    return bert_->EncodeCell(t, row, col);
  };
}

ColumnEmbedder BenchEnv::W2vColumn() {
  return [this](const Table& t, int col) {
    std::string text;
    for (int r = 0; r < t.rows(); ++r) {
      if (!t.cell(r, col).is_empty()) {
        text += t.cell(r, col).value.ToString() + " ";
      }
    }
    return w2v_->Embed(text);
  };
}

TableEmbedder BenchEnv::W2vTable() {
  return [this](const Table& t) {
    std::string text = t.caption();
    for (const auto& tuple : SerializeTuples(t)) text += " " + tuple;
    return w2v_->Embed(text);
  };
}

CellEmbedder BenchEnv::W2vEntity() {
  return [this](const Table& t, int row, int col) {
    return w2v_->Embed(t.cell(row, col).value.ToString());
  };
}

std::vector<ColumnQuery> FilterColumns(
    const LabeledCorpus& data,
    const std::function<bool(const Table&, const ColumnQuery&)>& pred) {
  std::vector<ColumnQuery> out;
  for (const auto& q : data.columns) {
    const Table& t = data.corpus.tables[static_cast<size_t>(q.table_index)];
    if (pred(t, q)) out.push_back(q);
  }
  return out;
}

std::vector<TableQuery> FilterTables(
    const LabeledCorpus& data,
    const std::function<bool(const Table&)>& pred) {
  std::vector<TableQuery> out;
  for (const auto& q : data.tables) {
    const Table& t = data.corpus.tables[static_cast<size_t>(q.table_index)];
    if (pred(t)) out.push_back(q);
  }
  return out;
}

void PrintHeader(const std::string& table_id, const std::string& title) {
  std::printf("\n==========================================================\n");
  std::printf("%s — %s\n", table_id.c_str(), title.c_str());
  std::printf("==========================================================\n");
  std::printf("%-22s %-28s %7s %7s %5s\n", "model", "split", "MAP@20",
              "MRR@20", "n");
  std::printf("----------------------------------------------------------\n");
}

void PrintRow(const std::string& model, const std::string& split, double map,
              double mrr, int queries) {
  if (queries >= 0) {
    std::printf("%-22s %-28s %7.3f %7.3f %5d\n", model.c_str(), split.c_str(),
                map, mrr, queries);
  } else {
    std::printf("%-22s %-28s %7.3f %7.3f\n", model.c_str(), split.c_str(),
                map, mrr);
  }
}

void PrintExpectation(const std::string& text) {
  std::printf("----------------------------------------------------------\n");
  std::printf("paper shape: %s\n", text.c_str());
}

}  // namespace bench
}  // namespace tabbin
