// Tests for the TabBinService serving facade: request/response
// semantics, Status error edges, incremental AddTables vs from-scratch
// equivalence, tombstoned removal, snapshot round-trips, and the
// N-reader / 1-writer concurrency contract (run under ASan/UBSan and
// TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/corpus_gen.h"
#include "exec/executor.h"
#include "service/sharded_service.h"
#include "store/paged_snapshot.h"

namespace tabbin {
namespace {

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 96;
  return cfg;
}

// A small labeled corpus; the system is untrained (deterministically
// initialized), which is all the serving mechanics need.
const LabeledCorpus& SharedCorpus() {
  static const LabeledCorpus* corpus = [] {
    GeneratorOptions gen;
    gen.num_tables = 18;
    gen.seed = 11;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
}

std::unique_ptr<TabBinService> MakeService() {
  return std::make_unique<TabBinService>(SharedSystem());
}

void ExpectSameResponse(const QueryResponse& a, const QueryResponse& b) {
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].table_id, b.matches[i].table_id);
    EXPECT_EQ(a.matches[i].col, b.matches[i].col);
    EXPECT_EQ(a.matches[i].row, b.matches[i].row);
    EXPECT_EQ(a.matches[i].score, b.matches[i].score);  // bitwise
  }
}

TEST(TabBinServiceTest, AddTablesReportsAndIndexes) {
  auto svc = MakeService();
  auto report = svc->AddTables(SharedCorpus().corpus.tables);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().tables_added,
            static_cast<int>(SharedCorpus().corpus.tables.size()));
  EXPECT_EQ(report.value().tables_replaced, 0);
  EXPECT_GT(report.value().columns_indexed, 0);
  EXPECT_GT(report.value().entities_indexed, 0);
  EXPECT_EQ(svc->NumLiveTables(), SharedCorpus().corpus.tables.size());
}

// The auto-sized encoder cache (encoder_cache_capacity = 0) grows with
// the corpus. AddTables never fills it: the 300 encodings it needs die
// once their tables are prepared. The first re-embedding pass encodes
// every table once and must keep every encoding although the batch is
// larger than the starting capacity of 256, so a second pass runs no
// forward pass.
TEST(TabBinServiceTest, AutoEncoderCacheKeepsAFirstBatchBeyond256) {
  GeneratorOptions gen;
  gen.num_tables = 300;
  gen.seed = 12;
  const std::vector<Table> tables =
      GenerateDataset("cancerkg", gen).corpus.tables;
  ASSERT_EQ(tables.size(), 300u);
  ServiceOptions options;
  options.encoder_cache_capacity = 0;
  auto svc = std::make_unique<TabBinService>(SharedSystem(), options);
  ASSERT_TRUE(svc->AddTables(tables).ok());
  EXPECT_EQ(svc->engine().size(), 0u);
  const size_t misses = svc->engine().misses();
  for (const Table& t : tables) (void)svc->TableEmbedding(t);
  EXPECT_EQ(svc->engine().misses(), misses + 300);
  EXPECT_EQ(svc->engine().size(), 300u);
  for (const Table& t : tables) (void)svc->TableEmbedding(t);
  EXPECT_EQ(svc->engine().misses(), misses + 300);
}

// AddTables reads the encoder cache but never fills it: on a cold
// engine it encodes every table itself and leaves nothing behind.
TEST(TabBinServiceTest, AddTablesLeavesTheEncoderCacheEmpty) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  EXPECT_EQ(svc->engine().size(), 0u);
  EXPECT_EQ(svc->engine().hits(), 0u);
  EXPECT_EQ(svc->engine().misses(), 0u);
}

// A prewarmed engine still saves AddTables every forward pass: each
// table is one cache hit and no miss.
TEST(TabBinServiceTest, AddTablesUsesAPrewarmedEncoderCache) {
  const auto& tables = SharedCorpus().corpus.tables;
  auto svc = MakeService();
  svc->engine().EncodeBatch(tables);
  const size_t hits = svc->engine().hits();
  const size_t misses = svc->engine().misses();
  ASSERT_EQ(misses, tables.size());
  ASSERT_TRUE(svc->AddTables(tables).ok());
  EXPECT_EQ(svc->engine().misses(), misses);
  EXPECT_EQ(svc->engine().hits(), hits + tables.size());
  EXPECT_EQ(svc->engine().size(), tables.size());
}

// Cached and fresh encodings are the same bits, so a service indexed
// from a prewarmed cache stores exactly what a cold one stores.
TEST(TabBinServiceTest, PrewarmedAndColdServicesSaveIdenticalStores) {
  const auto& tables = SharedCorpus().corpus.tables;
  auto cold = std::make_unique<TabBinService>(SharedSystem(),
                                              ServiceOptions{}, 3);
  auto warm = std::make_unique<TabBinService>(SharedSystem(),
                                              ServiceOptions{}, 3);
  warm->engine().EncodeBatch(tables);
  ASSERT_TRUE(cold->AddTables(tables).ok());
  ASSERT_TRUE(warm->AddTables(tables).ok());
  ASSERT_EQ(warm->engine().misses(), tables.size());
  PagedSnapshotWriter cold_store;
  PagedSnapshotWriter warm_store;
  cold->AppendStore(&cold_store);
  warm->AppendStore(&warm_store);
  EXPECT_EQ(cold_store.Assemble(), warm_store.Assemble());
}

TEST(TabBinServiceTest, SimilarTablesExcludesSelfAndDeadEntries) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  const Table& probe = SharedCorpus().corpus.tables[0];
  auto r = svc->SimilarTables({probe.id(), nullptr, 5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().matches.empty());
  for (const auto& m : r.value().matches) {
    EXPECT_NE(m.table_id, probe.id());
  }
  // Remove the best match: it must disappear from the next response
  // without any index rebuild.
  const std::string removed = r.value().matches[0].table_id;
  ASSERT_TRUE(svc->RemoveTable(removed).ok());
  auto r2 = svc->SimilarTables({probe.id(), nullptr, 5});
  ASSERT_TRUE(r2.ok());
  for (const auto& m : r2.value().matches) {
    EXPECT_NE(m.table_id, removed);
  }
  EXPECT_EQ(svc->NumLiveTables(), SharedCorpus().corpus.tables.size() - 1);
  // Removing twice is NotFound.
  EXPECT_EQ(svc->RemoveTable(removed).code(), StatusCode::kNotFound);
}

TEST(TabBinServiceTest, ReAddingAnIdReplaces) {
  auto svc = MakeService();
  std::vector<Table> first(SharedCorpus().corpus.tables.begin(),
                           SharedCorpus().corpus.tables.begin() + 3);
  ASSERT_TRUE(svc->AddTables(first).ok());
  Table updated = first[0];
  updated.set_caption("updated caption");
  auto report = svc->AddTables({updated});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().tables_added, 0);
  EXPECT_EQ(report.value().tables_replaced, 1);
  EXPECT_EQ(svc->NumLiveTables(), 3u);
  // The replacement's caption is the one responses now carry.
  auto r = svc->SimilarTables({first[1].id(), nullptr, 5});
  ASSERT_TRUE(r.ok());
  for (const auto& m : r.value().matches) {
    if (m.table_id == updated.id()) {
      EXPECT_EQ(m.caption, "updated caption");
    }
  }
}

TEST(TabBinServiceTest, CompactReclaimsTombstonesWithoutChangingAnswers) {
  auto svc = MakeService();
  const auto& tables = SharedCorpus().corpus.tables;
  ASSERT_TRUE(svc->AddTables(tables).ok());
  // Churn: replace one table three times, remove another.
  for (int round = 0; round < 3; ++round) {
    Table updated = tables[2];
    updated.set_caption("rev " + std::to_string(round));
    ASSERT_TRUE(svc->AddTables({updated}).ok());
  }
  ASSERT_TRUE(svc->RemoveTable(tables[5].id()).ok());

  const size_t live = svc->NumLiveTables();
  const size_t cols_before = svc->NumIndexedColumns();
  std::vector<QueryResponse> before;
  for (const Table& t : tables) {
    if (t.id() == tables[5].id()) continue;
    auto r = svc->SimilarColumns({t.id(), nullptr, t.vmd_cols(), 8});
    ASSERT_TRUE(r.ok());
    before.push_back(std::move(r).value());
  }

  ASSERT_TRUE(svc->Compact().ok());
  EXPECT_EQ(svc->NumLiveTables(), live);
  EXPECT_LT(svc->NumIndexedColumns(), cols_before);  // dead rows gone

  size_t i = 0;
  for (const Table& t : tables) {
    if (t.id() == tables[5].id()) continue;
    auto r = svc->SimilarColumns({t.id(), nullptr, t.vmd_cols(), 8});
    ASSERT_TRUE(r.ok());
    ExpectSameResponse(before[i++], r.value());
  }
  // Compacting a compact service is a no-op.
  ASSERT_TRUE(svc->Compact().ok());
}

TEST(TabBinServiceTest, StatusErrorEdges) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables({SharedCorpus().corpus.tables[0]}).ok());
  EXPECT_EQ(svc->SimilarTables({"no-such-id", nullptr, 5}).status().code(),
            StatusCode::kNotFound);
  const std::string id = SharedCorpus().corpus.tables[0].id();
  EXPECT_EQ(svc->SimilarColumns({id, nullptr, -1, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc->SimilarColumns({id, nullptr, 999, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc->SimilarColumns({id, nullptr, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc->SimilarEntities({id, nullptr, 999, 0, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc->Ask({"", 5}).status().code(), StatusCode::kInvalidArgument);
  // An invalid inline table is InvalidArgument, not UB.
  Table broken;
  EXPECT_EQ(
      svc->SimilarTables({"", &broken, 5}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(TabBinServiceTest, InlineQueryTableNeedNotBeIndexed) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  Table probe = SharedCorpus().corpus.tables[2];
  probe.set_id("");  // never inserted under this identity
  auto r = svc->SimilarTables({"", &probe, 5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().matches.empty());
}

// Acceptance: incremental AddTables produces the same SimilarColumns
// results as a from-scratch build over the union corpus.
TEST(TabBinServiceTest, IncrementalMatchesFromScratchBuild) {
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t half = tables.size() / 2;

  auto incremental = MakeService();
  ASSERT_TRUE(incremental
                  ->AddTables(std::vector<Table>(tables.begin(),
                                                 tables.begin() + half))
                  .ok());
  ASSERT_TRUE(incremental
                  ->AddTables(std::vector<Table>(tables.begin() + half,
                                                 tables.end()))
                  .ok());

  auto scratch = MakeService();
  ASSERT_TRUE(scratch->AddTables(tables).ok());

  for (const Table& t : tables) {
    for (int c = t.vmd_cols(); c < t.cols(); ++c) {
      auto a = incremental->SimilarColumns({t.id(), nullptr, c, 10});
      auto b = scratch->SimilarColumns({t.id(), nullptr, c, 10});
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameResponse(a.value(), b.value());
    }
    auto a = incremental->SimilarTables({t.id(), nullptr, 10});
    auto b = scratch->SimilarTables({t.id(), nullptr, 10});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameResponse(a.value(), b.value());
  }
  // The incrementally appended BM25 grounding index must answer Ask
  // exactly like the one built in a single batch.
  auto aska = incremental->Ask({"overall survival months", 5});
  auto askb = scratch->Ask({"overall survival months", 5});
  ASSERT_TRUE(aska.ok() && askb.ok());
  EXPECT_EQ(aska.value().answer, askb.value().answer);
  ASSERT_EQ(aska.value().tables.size(), askb.value().tables.size());
  for (size_t i = 0; i < aska.value().tables.size(); ++i) {
    EXPECT_EQ(aska.value().tables[i].table_id,
              askb.value().tables[i].table_id);
    EXPECT_EQ(aska.value().tables[i].score, askb.value().tables[i].score);
  }
}

// Acceptance: the service round-trips through Save/Load — the restored
// service answers every query identically.
TEST(TabBinServiceTest, SaveLoadRoundTripAnswersIdentically) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  ASSERT_TRUE(svc->RemoveTable(SharedCorpus().corpus.tables[3].id()).ok());

  const std::string path = "/tmp/tabbin_service_roundtrip.tbsn";
  ASSERT_TRUE(svc->Save(path).ok());
  auto loaded = TabBinService::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value()->NumLiveTables(), svc->NumLiveTables());
  EXPECT_EQ(loaded.value()->LiveTableIds(), svc->LiveTableIds());

  for (const Table& t : SharedCorpus().corpus.tables) {
    if (t.id() == SharedCorpus().corpus.tables[3].id()) continue;
    auto a = svc->SimilarTables({t.id(), nullptr, 8});
    auto b = loaded.value()->SimilarTables({t.id(), nullptr, 8});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameResponse(a.value(), b.value());
    auto ca = svc->SimilarColumns({t.id(), nullptr, t.vmd_cols(), 8});
    auto cb = loaded.value()->SimilarColumns({t.id(), nullptr, t.vmd_cols(), 8});
    ASSERT_TRUE(ca.ok() && cb.ok());
    ExpectSameResponse(ca.value(), cb.value());
  }
  auto aska = svc->Ask({"overall survival months", 4});
  auto askb = loaded.value()->Ask({"overall survival months", 4});
  ASSERT_TRUE(aska.ok() && askb.ok());
  EXPECT_EQ(aska.value().answer, askb.value().answer);
  ASSERT_EQ(aska.value().tables.size(), askb.value().tables.size());
  for (size_t i = 0; i < aska.value().tables.size(); ++i) {
    EXPECT_EQ(aska.value().tables[i].table_id,
              askb.value().tables[i].table_id);
    EXPECT_EQ(aska.value().tables[i].score, askb.value().tables[i].score);
  }
}

TEST(TabBinServiceTest, AskGroundsInTheCorpus) {
  auto svc = MakeService();
  auto empty = svc->Ask({"anything", 3});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().tables.empty());

  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  // Ask with a live table's own caption: BM25 must surface it.
  const Table& t = SharedCorpus().corpus.tables[1];
  auto r = svc->Ask({t.caption(), 5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().tables.empty());
  bool found = false;
  for (const auto& m : r.value().tables) found |= (m.table_id == t.id());
  EXPECT_TRUE(found) << "caption query did not retrieve its own table";
  EXPECT_NE(r.value().answer.find("grounded in table"), std::string::npos);
}

TEST(TabBinServiceTest, SimilarEntitiesReturnsSurfaceForms) {
  auto svc = MakeService();
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  // Find an indexed entity cell to use as the probe.
  const auto& queries = SharedCorpus().entities;
  ASSERT_FALSE(queries.empty());
  const auto& q = queries[0];
  const Table& t =
      SharedCorpus().corpus.tables[static_cast<size_t>(q.table_index)];
  auto r = svc->SimilarEntities({t.id(), nullptr, q.row, q.col, 5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& m : r.value().matches) {
    EXPECT_FALSE(m.entity.empty());
    EXPECT_GE(m.row, 0);
    EXPECT_GE(m.col, 0);
  }
}

// Satellite: N reader threads issuing SimilarColumns while one writer
// streams AddTables batches. Every response must be internally
// consistent — no torn reads, no half-applied batches. CI runs this
// under ASan/UBSan and TSan.
//
// Both sides route through the AsyncExecutor, and the readers run at
// 100% duty — no sleeps. This test used to throttle each reader with a
// 200us sleep because full-duty readers on glibc's reader-preferring
// rwlock could starve the writer forever; the executor retires that
// workaround architecturally (serialized read batches let the reader
// count reach zero between batches, and writes ride a dedicated lane —
// see src/exec/executor.h).
TEST(TabBinServiceConcurrencyTest, ReadersSeeConsistentStateUnderWrites) {
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t base = 4;  // writer streams the rest
  auto svc = MakeService();
  ASSERT_TRUE(svc
                  ->AddTables(std::vector<Table>(tables.begin(),
                                                 tables.begin() + base))
                  .ok());
  AsyncExecutor exec(svc.get());

  constexpr int kReaders = 8;
  constexpr int kK = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<long> responses{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Each reader cycles over the always-live base tables at full
      // duty: the next query is submitted the moment the previous
      // response lands.
      size_t i = static_cast<size_t>(r) % base;
      for (int iter = 0; iter < 20000; ++iter) {
        if (stop.load(std::memory_order_relaxed)) break;
        const Table& t = tables[i];
        i = (i + 1) % base;
        auto resp =
            exec.SubmitSimilarColumns({t.id(), nullptr, t.vmd_cols(), kK})
                .get();
        if (!resp.ok()) {
          // Admission shedding under full-duty load is by design;
          // anything else is a failure.
          if (resp.status().code() != StatusCode::kResourceExhausted) {
            ++failures;
          }
          continue;
        }
        ++responses;
        const auto& matches = resp.value().matches;
        if (static_cast<int>(matches.size()) > kK) ++failures;
        for (size_t m = 0; m < matches.size(); ++m) {
          if (matches[m].table_id.empty() || matches[m].col < 0) ++failures;
          if (m > 0 && matches[m].score > matches[m - 1].score) ++failures;
        }
      }
    });
  }

  // Writer: stream the remaining tables in small batches through the
  // dedicated write lane, then remove and re-add one of them
  // (exercising tombstones under read load).
  for (size_t i = base; i < tables.size(); i += 2) {
    const size_t end = std::min(i + 2, tables.size());
    auto report = exec.SubmitAddTables(std::vector<Table>(
                                           tables.begin() + i,
                                           tables.begin() + end))
                      .get();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  ASSERT_TRUE(exec.SubmitRemoveTable(tables[base].id()).get().ok());
  ASSERT_TRUE(exec.SubmitAddTables({tables[base]}).get().ok());

  // Let readers run against the final state briefly, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0);
  EXPECT_EQ(svc->NumLiveTables(), tables.size());
}

}  // namespace
}  // namespace tabbin
