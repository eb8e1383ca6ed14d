// Cross-shard equivalence and stress suite for TabBinService.
//
// The load-bearing claim of the sharded serving core is that hash
// partitioning is *invisible* to callers: for any shard count, every
// endpoint returns byte-identical ranked results to a 1-shard
// TabBinService over the same corpus — including after interleaved
// Add/Remove/replace/Compact churn, through snapshot save/load, and
// across re-partitioning (loading an 8-shard store into 3 shards, or a
// 1-shard store into 8). These tests are the contract every future
// scaling change must keep; CI runs them under ASan/UBSan and TSan,
// plus a dedicated `ctest -R sharded` smoke step. The store-level
// corruption cases (shard-count / section-group mismatches, duplicate
// ids across shards) live in store_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"

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

void ExpectSameMatches(const std::vector<ServiceMatch>& a,
                       const std::vector<ServiceMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    EXPECT_EQ(a[i].caption, b[i].caption) << "rank " << i;
    EXPECT_EQ(a[i].col, b[i].col) << "rank " << i;
    EXPECT_EQ(a[i].row, b[i].row) << "rank " << i;
    EXPECT_EQ(a[i].entity, b[i].entity) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bitwise
  }
}

// Compares every endpoint of two services over the given live tables:
// id-addressed tables/columns/entities, inline queries, and Ask.
void ExpectEquivalent(const TabBinServing& ref, const TabBinServing& svc,
                      const std::vector<Table>& probes) {
  ASSERT_EQ(ref.NumLiveTables(), svc.NumLiveTables());
  EXPECT_EQ(ref.LiveTableIds(), svc.LiveTableIds());
  for (const Table& t : probes) {
    SCOPED_TRACE("probe table " + t.id());
    auto rt = ref.SimilarTables({t.id(), nullptr, 10});
    auto st = svc.SimilarTables({t.id(), nullptr, 10});
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ExpectSameMatches(rt.value().matches, st.value().matches);
    // Every column, including unindexed metadata (VMD) columns, which
    // exercise the resolve-then-encode path.
    for (int c = 0; c < t.cols(); ++c) {
      SCOPED_TRACE("col " + std::to_string(c));
      auto rc = ref.SimilarColumns({t.id(), nullptr, c, 10});
      auto sc = svc.SimilarColumns({t.id(), nullptr, c, 10});
      ASSERT_TRUE(rc.ok() && sc.ok());
      ExpectSameMatches(rc.value().matches, sc.value().matches);
    }
    // Inline (never-inserted) probe under a fresh identity.
    Table inline_probe = t;
    inline_probe.set_id("");
    auto ri = ref.SimilarTables({"", &inline_probe, 10});
    auto si = svc.SimilarTables({"", &inline_probe, 10});
    ASSERT_TRUE(ri.ok() && si.ok());
    ExpectSameMatches(ri.value().matches, si.value().matches);
  }
  // Entity probes from the labeled corpus.
  int entity_probes = 0;
  for (const auto& q : SharedCorpus().entities) {
    if (entity_probes >= 4) break;
    const Table& t =
        SharedCorpus().corpus.tables[static_cast<size_t>(q.table_index)];
    bool live = false;
    for (const Table& p : probes) live |= (p.id() == t.id());
    if (!live) continue;
    ++entity_probes;
    SCOPED_TRACE("entity probe " + t.id());
    auto re = ref.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    auto se = svc.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    ASSERT_TRUE(re.ok() && se.ok());
    ExpectSameMatches(re.value().matches, se.value().matches);
  }
  // Free-text grounding.
  for (const std::string& q :
       {std::string("overall survival months"),
        probes.empty() ? std::string("tumor") : probes.front().caption()}) {
    SCOPED_TRACE("ask: " + q);
    auto ra = ref.Ask({q, 5});
    auto sa = svc.Ask({q, 5});
    ASSERT_TRUE(ra.ok() && sa.ok());
    EXPECT_EQ(ra.value().answer, sa.value().answer);
    ExpectSameMatches(ra.value().tables, sa.value().tables);
  }
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

// Acceptance: shards ∈ {1, 3, 8} answer byte-identically to a 1-shard
// TabBinService on the same corpus — all query types.
TEST_P(ShardedEquivalenceTest, AllEndpointsMatchSingleShardService) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService ref(SharedSystem());
  TabBinService svc(SharedSystem(), {}, GetParam());
  EXPECT_EQ(svc.num_shards(), GetParam());

  // Incremental adds in two batches on the sharded side, one batch on
  // the reference — partitioning AND batching must both be invisible.
  const size_t half = tables.size() / 2;
  auto r1 = ref.AddTables(tables);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(svc.AddTables(std::vector<Table>(tables.begin(),
                                               tables.begin() + half))
                  .ok());
  ASSERT_TRUE(svc.AddTables(std::vector<Table>(tables.begin() + half,
                                               tables.end()))
                  .ok());
  ExpectEquivalent(ref, svc, tables);
}

// Acceptance: equivalence survives interleaved Add/Remove/replace/
// Compact churn.
TEST_P(ShardedEquivalenceTest, EquivalentAfterChurnAndCompact) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService ref(SharedSystem());
  TabBinService svc(SharedSystem(), {}, GetParam());
  ASSERT_TRUE(ref.AddTables(tables).ok());
  ASSERT_TRUE(svc.AddTables(tables).ok());

  // Remove two, replace one twice, re-add a removed one.
  for (const std::string& id : {tables[2].id(), tables[9].id()}) {
    ASSERT_TRUE(ref.RemoveTable(id).ok());
    ASSERT_TRUE(svc.RemoveTable(id).ok());
  }
  for (int round = 0; round < 2; ++round) {
    Table updated = tables[5];
    updated.set_caption("rev " + std::to_string(round));
    auto rr = ref.AddTables({updated});
    auto sr = svc.AddTables({updated});
    ASSERT_TRUE(rr.ok() && sr.ok());
    EXPECT_EQ(sr.value().tables_replaced, 1);
    EXPECT_EQ(sr.value().tables_added, 0);
  }
  ASSERT_TRUE(ref.AddTables({tables[2]}).ok());
  ASSERT_TRUE(svc.AddTables({tables[2]}).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() == tables[9].id()) continue;
    if (t.id() == tables[5].id()) {
      Table updated = t;
      updated.set_caption("rev 1");
      live.push_back(updated);
      continue;
    }
    live.push_back(t);
  }
  ExpectEquivalent(ref, svc, live);

  // Compaction reclaims tombstones on both sides without changing any
  // answer.
  ASSERT_TRUE(ref.Compact().ok());
  ASSERT_TRUE(svc.Compact().ok());
  EXPECT_EQ(svc.NumIndexedColumns(), ref.NumIndexedColumns());
  ExpectEquivalent(ref, svc, live);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedEquivalenceTest,
                         ::testing::Values(1, 3, 8));

TEST(ShardedServiceTest, HashPartitioningActuallySpreadsTables) {
  TabBinService svc(SharedSystem(), {}, 8);
  ASSERT_TRUE(svc.AddTables(SharedCorpus().corpus.tables).ok());
  int populated = 0;
  for (int s = 0; s < svc.num_shards(); ++s) {
    populated += svc.ShardLiveCount(s) > 0 ? 1 : 0;
  }
  // 18 tables over 8 shards: a degenerate hash would put them all in
  // one shard.
  EXPECT_GT(populated, 1);
  // Routing is stable: RemoveTable by id finds every table.
  for (const Table& t : SharedCorpus().corpus.tables) {
    EXPECT_TRUE(svc.RemoveTable(t.id()).ok()) << t.id();
  }
  EXPECT_EQ(svc.NumLiveTables(), 0u);
}

TEST(ShardedServiceTest, StatusErrorEdgesMatchSingleService) {
  TabBinService svc(SharedSystem(), {}, 3);
  ASSERT_TRUE(svc.AddTables({SharedCorpus().corpus.tables[0]}).ok());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  EXPECT_EQ(svc.SimilarTables({"no-such-id", nullptr, 5}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, -1, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, 999, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.SimilarEntities({id, nullptr, 999, 0, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.Ask({"", 5}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.RemoveTable("no-such-id").code(), StatusCode::kNotFound);
  Table broken;
  EXPECT_EQ(svc.SimilarTables({"", &broken, 5}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Snapshots: round-trip, re-partitioning, shard-count bounds
// ---------------------------------------------------------------------------

TEST(ShardedSnapshotTest, RoundTripAnswersIdenticallyAtAnyShardCount) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem(), {}, 8);
  ASSERT_TRUE(svc.AddTables(tables).ok());
  ASSERT_TRUE(svc.RemoveTable(tables[3].id()).ok());

  const std::string path = "/tmp/tabbin_sharded_roundtrip.tbsn";
  ASSERT_TRUE(svc.Save(path).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() != tables[3].id()) live.push_back(t);
  }
  // Same shard count, fewer shards, and down to one: the stored rows
  // re-partition by hash and answers never change.
  for (int target : {8, 3, 1}) {
    SCOPED_TRACE("target shards " + std::to_string(target));
    auto loaded = TabBinService::Load(path, target);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->num_shards(), target);
    ExpectEquivalent(svc, *loaded.value(), live);
  }
  // Default target = the saved shard count.
  auto loaded = TabBinService::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->num_shards(), 8);
  std::remove(path.c_str());
}

TEST(ShardedSnapshotTest, OneShardStoreLoadsIntoEightShards) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService single(SharedSystem());
  ASSERT_TRUE(single.AddTables(tables).ok());
  ASSERT_TRUE(single.RemoveTable(tables[7].id()).ok());

  const std::string path = "/tmp/tabbin_single_to_sharded.tbsn";
  ASSERT_TRUE(single.Save(path).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() != tables[7].id()) live.push_back(t);
  }
  auto sharded = TabBinService::Load(path, 8);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value()->num_shards(), 8);
  ExpectEquivalent(single, *sharded.value(), live);
  std::remove(path.c_str());
}

TEST(ShardedSnapshotTest, LoadServingKeepsSavedLayoutOrRepartitions) {
  const auto& tables = SharedCorpus().corpus.tables;
  const std::string sharded_path = "/tmp/tabbin_serving_sharded.tbsn";
  const std::string single_path = "/tmp/tabbin_serving_single.tbsn";
  {
    TabBinService svc(SharedSystem(), {}, 3);
    ASSERT_TRUE(svc.AddTables(tables).ok());
    ASSERT_TRUE(svc.Save(sharded_path).ok());
    TabBinService single(SharedSystem());
    ASSERT_TRUE(single.AddTables(tables).ok());
    ASSERT_TRUE(single.Save(single_path).ok());
  }
  auto a = LoadServing(sharded_path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value()->NumLiveTables(), tables.size());
  auto b = LoadServing(single_path);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value()->NumLiveTables(), tables.size());
  // Override re-partitions a 1-shard store too.
  auto c = LoadServing(single_path, 4);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto ct = c.value()->SimilarTables({tables[0].id(), nullptr, 5});
  auto bt = b.value()->SimilarTables({tables[0].id(), nullptr, 5});
  ASSERT_TRUE(ct.ok() && bt.ok());
  ExpectSameMatches(bt.value().matches, ct.value().matches);
  std::remove(sharded_path.c_str());
  std::remove(single_path.c_str());
}

// Shards that never held a table save their matrices with no width;
// the store must still open (and accept inserts) at any shard count —
// including an entirely empty service.
TEST(ShardedSnapshotTest, EmptyShardsRoundTrip) {
  const auto& tables = SharedCorpus().corpus.tables;
  const std::string path = "/tmp/tabbin_sharded_empty.tbsn";
  TabBinService svc(SharedSystem(), {}, 8);
  ASSERT_TRUE(svc.AddTables({tables[0], tables[1]}).ok());
  int empty = 0;
  for (int s = 0; s < svc.num_shards(); ++s) {
    empty += svc.ShardLiveCount(s) == 0 ? 1 : 0;
  }
  ASSERT_GT(empty, 0);
  ASSERT_TRUE(svc.Save(path).ok());
  for (int target : {0, 3}) {
    SCOPED_TRACE("target shards " + std::to_string(target));
    auto loaded = TabBinService::Load(path, target);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectEquivalent(svc, *loaded.value(), {tables[0], tables[1]});
  }

  TabBinService none(SharedSystem());
  ASSERT_TRUE(none.Save(path).ok());
  auto reopened = TabBinService::Load(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->NumLiveTables(), 0u);
  ASSERT_TRUE(none.AddTables({tables[2]}).ok());
  ASSERT_TRUE(reopened.value()->AddTables({tables[2]}).ok());
  ExpectEquivalent(none, *reopened.value(), {tables[2]});
  std::remove(path.c_str());
}

// The shard count is outside input (a CLI flag, a caller's argument):
// an override above kMaxShards must fail before any shard is built, in
// both load entry points; a constructor count below 1 clamps to 1.
TEST(ShardedSnapshotTest, ShardCountOverrideIsBounded) {
  const std::string path = "/tmp/tabbin_sharded_bound.tbsn";
  {
    TabBinService svc(SharedSystem(), {}, 2);
    ASSERT_TRUE(svc.AddTables({SharedCorpus().corpus.tables[0]}).ok());
    ASSERT_TRUE(svc.Save(path).ok());
  }
  for (int bad : {kMaxShards + 1, 100000000, -1}) {
    SCOPED_TRACE("override " + std::to_string(bad));
    auto loaded = TabBinService::Load(path, bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    auto serving = LoadServing(path, bad);
    ASSERT_FALSE(serving.ok());
    EXPECT_EQ(serving.status().code(), StatusCode::kInvalidArgument);
  }
  auto at_bound = TabBinService::Load(path, 4);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(at_bound.value()->num_shards(), 4);
  for (int low : {0, -7}) {
    TabBinService clamped(SharedSystem(), {}, low);
    EXPECT_EQ(clamped.num_shards(), 1);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Writer-starvation regression
// ---------------------------------------------------------------------------

// PR 3's stress test documented that a single reader-preferring rwlock
// starves the writer once readers keep it held at a 100% duty cycle.
// With per-shard locks, readers addressing tables on *other* shards
// still take a brief shared lock on the writer's shard during the
// scatter stage (every query probes every shard), but the hold is one
// bucket probe + a tiny rank — a sliver of each query — instead of the
// full query duration. The writer's lock therefore sees short, diluted
// reader holds with gaps, not the continuous overlap that reader
// preference turns into starvation. This test pins that property:
// writer updates complete within a generous wall-clock bound (absorbing
// sanitizer and single-core CI slowdowns) under 100%-duty foreign-shard
// read traffic — a regression to any global, full-query-duration read
// lock overshoots it by orders of magnitude (PR 3's starvation was
// unbounded).
TEST(ShardedServiceStressTest, WriterCompletesWhileReadersHammerOtherShards) {
  constexpr int kShards = 8;
  constexpr int kWriterOps = 6;
  constexpr int kReaders = 3;
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem(), {}, kShards);
  ASSERT_TRUE(svc.AddTables(tables).ok());

  // Writer ids that all hash to one shard; readers address only tables
  // owned by the other shards (their queries still scatter a brief
  // probe across every shard — see the suite comment).
  const size_t writer_shard = ShardIndexFor("w-0", kShards);
  std::vector<std::string> writer_ids;
  for (int j = 0; static_cast<int>(writer_ids.size()) < kWriterOps / 2;
       ++j) {
    const std::string id = "w-" + std::to_string(j);
    if (ShardIndexFor(id, kShards) == writer_shard) writer_ids.push_back(id);
  }
  std::vector<const Table*> reader_tables;
  for (const Table& t : tables) {
    if (ShardIndexFor(t.id(), kShards) != writer_shard) {
      reader_tables.push_back(&t);
    }
  }
  ASSERT_FALSE(reader_tables.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<long> responses{0};
  // A latch: each reader counts itself in after its first response.
  std::atomic<int> readers_in{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // 100% duty cycle: no sleeps between queries — exactly the load
      // shape that starved the single-lock writer in PR 3.
      size_t i = static_cast<size_t>(r) % reader_tables.size();
      bool counted_in = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const Table& t = *reader_tables[i];
        i = (i + 1) % reader_tables.size();
        auto resp = svc.SimilarColumns({t.id(), nullptr, t.vmd_cols(), 6});
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        ++responses;
        if (!counted_in) {
          counted_in = true;
          ++readers_in;
        }
        const auto& matches = resp.value().matches;
        for (size_t m = 1; m < matches.size(); ++m) {
          if (matches[m].score > matches[m - 1].score) ++failures;
        }
      }
    });
  }

  // The writer starts only once every reader is hammering: its adds and
  // removes take milliseconds and could otherwise finish before any
  // reader completes a query, which would prove nothing.
  const auto latch_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (readers_in.load() < kReaders &&
         std::chrono::steady_clock::now() < latch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (readers_in.load() < kReaders) {
    stop = true;
    for (auto& t : readers) t.join();
    FAIL() << "only " << readers_in.load() << " of " << kReaders
           << " readers answered a query within 60 s";
  }

  // The writer streams adds and removes against its own shard.
  const auto start = std::chrono::steady_clock::now();
  int ops = 0;
  for (const std::string& id : writer_ids) {
    Table t = tables[0];
    t.set_id(id);
    t.set_caption("writer table " + id);
    ASSERT_TRUE(svc.AddTables({t}).ok());
    ++ops;
    ASSERT_TRUE(svc.RemoveTable(id).ok());
    ++ops;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_GE(ops, kWriterOps);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0);
  EXPECT_EQ(svc.NumLiveTables(), tables.size());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60)
      << "writer starved: per-shard locks must keep foreign-read traffic "
         "off the writer's critical path";
}

}  // namespace
}  // namespace tabbin
