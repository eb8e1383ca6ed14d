// Tests for metrics, LSH blocking, and the clustering harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "tasks/clustering.h"
#include "tasks/lsh.h"
#include "tasks/metrics.h"
#include "tasks/pipelines.h"
#include "test_tables.h"

namespace tabbin {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, PerfectRankingApIsOne) {
  std::vector<bool> rel = {true, true, true};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 3), 1.0);
}

TEST(MetricsTest, ApKnownValue) {
  // Relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6.
  std::vector<bool> rel = {true, false, true};
  EXPECT_NEAR(AveragePrecisionAtK(rel, 3), 5.0 / 6.0, 1e-12);
}

TEST(MetricsTest, ApZeroWhenNothingRelevant) {
  std::vector<bool> rel = {false, false};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2), 0.0);
}

TEST(MetricsTest, ApRespectsCutoff) {
  // Relevant only beyond k: contributes nothing.
  std::vector<bool> rel = {false, false, true};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2), 0.0);
}

TEST(MetricsTest, ApWithTotalRelevantNormalization) {
  // One hit at rank 1, but two relevant items exist in the universe.
  std::vector<bool> rel = {true, false};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2, /*total_relevant=*/2), 0.5);
}

TEST(MetricsTest, MapWithPerQueryTotalsNormalizesByPopulation) {
  // Run 1: hits at ranks 1 and 3, but 3 relevant items exist.
  //   AP = (1/1 + 2/3) / min(3, 4) = (5/3) / 3 = 5/9.
  // Run 2: hit at rank 2 of 2 relevant items.
  //   AP = (1/2) / min(2, 4) = 1/4.
  std::vector<std::vector<bool>> runs = {{true, false, true, false},
                                         {false, true}};
  std::vector<int> totals = {3, 2};
  EXPECT_NEAR(MeanAveragePrecision(runs, 4, totals),
              (5.0 / 9.0 + 1.0 / 4.0) / 2, 1e-12);
}

TEST(MetricsTest, MapWithoutTotalsStillNormalizesByHits) {
  // The legacy overload (callers that genuinely cannot know the
  // population) divides by hits: {true, false, true} -> (1 + 2/3)/2.
  std::vector<std::vector<bool>> runs = {{true, false, true}};
  EXPECT_NEAR(MeanAveragePrecision(runs, 3), 5.0 / 6.0, 1e-12);
}

TEST(ClusteringTest, MapPenalizesRelevantItemsOutsideTopK) {
  // Query A1 has two cluster mates (A2, A3) but only A2 makes the top-2:
  // the old hits-based normalization scored AP = 1.0; the population-
  // bounded AP is (1/1) / min(2, 2) = 0.5.
  LabeledEmbeddingSet items;
  items.Add(std::vector<float>{1.0f, 0.0f}, "A");     // query
  items.Add(std::vector<float>{0.99f, 0.14f}, "A");   // cos ~ 0.990
  items.Add(std::vector<float>{0.9f, 0.43f}, "B");    // cos ~ 0.902
  items.Add(std::vector<float>{0.0f, 1.0f}, "A");     // cos = 0
  ClusterEvalOptions opts;
  opts.k = 2;
  opts.use_lsh = false;
  opts.query_indices = {0};
  ClusterEvalResult result = EvaluateClustering(items, opts);
  ASSERT_EQ(result.queries, 1);
  EXPECT_NEAR(result.map, 0.5, 1e-12);
  EXPECT_NEAR(result.mrr, 1.0, 1e-12);
}

TEST(MetricsTest, MrrFirstHitPosition) {
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({false, true, false}, 3), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({true}, 1), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({false, false}, 2), 0.0);
}

TEST(MetricsTest, MeanOverRuns) {
  std::vector<std::vector<bool>> runs = {{true}, {false, true}};
  EXPECT_DOUBLE_EQ(MeanReciprocalRank(runs, 2), (1.0 + 0.5) / 2);
}

TEST(MetricsTest, F1KnownValues) {
  BinaryScore s = ComputeF1(8, 2, 2);
  EXPECT_DOUBLE_EQ(s.precision, 0.8);
  EXPECT_DOUBLE_EQ(s.recall, 0.8);
  EXPECT_NEAR(s.f1, 0.8, 1e-12);
  BinaryScore zero = ComputeF1(0, 0, 0);
  EXPECT_DOUBLE_EQ(zero.f1, 0.0);
}

// ---------------------------------------------------------------------------
// LSH
// ---------------------------------------------------------------------------

std::vector<float> RandomUnit(Rng* rng, int dim) {
  std::vector<float> v(static_cast<size_t>(dim));
  double norm = 0;
  for (auto& x : v) {
    x = static_cast<float>(rng->Gaussian());
    norm += static_cast<double>(x) * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x = static_cast<float>(x / norm);
  return v;
}

TEST(LshTest, FindsNearDuplicates) {
  Rng rng(3);
  const int dim = 16;
  LshIndex index(dim, 6, 10);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 50; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  // A tiny perturbation of vector 7 must collide with id 7.
  std::vector<float> probe = vecs[7];
  for (auto& x : probe) x += 0.01f * static_cast<float>(rng.Gaussian());
  auto candidates = index.Query(probe);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7),
            candidates.end());
}

TEST(LshTest, RejectsMismatchedVectorSizes) {
  // Regression: Insert/Query used to silently accept vectors whose size
  // differs from dim_ — a shorter vector hashed against truncated
  // hyperplane dot products and poisoned the buckets it landed in.
  LshIndex index(/*dim=*/8, 4, 2);
  std::vector<float> ok(8, 1.0f);
  std::vector<float> shorter(5, 1.0f);
  std::vector<float> longer(11, 1.0f);

  ASSERT_TRUE(index.Insert(0, ok).ok());
  Status st = index.Insert(1, shorter);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("does not match index dim"), std::string::npos);
  EXPECT_EQ(index.Insert(2, longer).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 1);  // rejected inserts left no trace

  // Mis-sized probes match nothing; a correctly sized probe still works.
  EXPECT_TRUE(index.Query(shorter).empty());
  EXPECT_TRUE(index.Query(longer).empty());
  EXPECT_EQ(index.Query(ok), std::vector<int>{0});
}

TEST(LshTest, CandidateSetSmallerThanCorpusForRandomVectors) {
  Rng rng(4);
  const int dim = 32;
  LshIndex index(dim, 10, 4);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(index.Insert(i, RandomUnit(&rng, dim)).ok());
  }
  auto candidates = index.Query(RandomUnit(&rng, dim));
  EXPECT_LT(candidates.size(), 400u);
}

TEST(LshTest, QueryReturnsSortedUniqueCandidates) {
  // Regression: Query used to return unordered_set iteration order, which
  // varies across standard libraries and made blocking (and therefore
  // clustering output) platform-dependent.
  Rng rng(5);
  const int dim = 16;
  LshIndex index(dim, 4, 8);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 200; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  for (int probe = 0; probe < 20; ++probe) {
    auto candidates = index.Query(vecs[static_cast<size_t>(probe)]);
    ASSERT_FALSE(candidates.empty());
    for (size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LT(candidates[i - 1], candidates[i]);  // strictly ascending
    }
    // Stable across repeated queries.
    EXPECT_EQ(candidates, index.Query(vecs[static_cast<size_t>(probe)]));
  }
}

TEST(LshTest, QueryByKeysMatchesPerTableLookupMerge) {
  // QueryByKeys merges the per-table buckets through one bitmap over
  // the ids. The result must be identical to the reference per-table
  // lookup loop at any collision rate — few bits forces heavy bucket
  // collisions, so the duplicate-merging path is actually exercised.
  Rng rng(6);
  const int dim = 16;
  LshIndex index(dim, /*num_bits=*/2, /*num_tables=*/8);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 300; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  for (int probe = 0; probe < 25; ++probe) {
    const auto keys = index.QueryKeys(vecs[static_cast<size_t>(probe)]);
    const auto got = index.QueryByKeys(keys);
    // Independent oracle for the old path's answer: id i collides with
    // the probe iff they share a bucket key in at least one table
    // (hashing is deterministic, so re-hashing every vector recovers
    // exactly the bucket each insert landed in), sorted and unique.
    std::vector<int> expected;
    for (int i = 0; i < static_cast<int>(vecs.size()); ++i) {
      const auto other = index.QueryKeys(vecs[static_cast<size_t>(i)]);
      for (size_t t = 0; t < keys.size(); ++t) {
        if (other[t] == keys[t]) {
          expected.push_back(i);
          break;
        }
      }
    }
    EXPECT_EQ(got, expected) << "probe " << probe;
    // High collision rate: the merged set must still be sorted, unique,
    // and contain the probe itself.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    EXPECT_NE(std::find(got.begin(), got.end(), probe), got.end());
  }
}

// The buckets exactly as Serialize writes them, parsed back here
// independently of LshIndex::Deserialize.
std::vector<std::map<uint64_t, std::vector<int>>> SerializedBuckets(
    const LshIndex& index) {
  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.buffer());
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(r.ReadI32().ok());  // dim, bits
  const int32_t num_tables = r.ReadI32().value();
  EXPECT_TRUE(r.ReadI32().ok());  // count
  EXPECT_TRUE(EmbeddingMatrix::Deserialize(&r).ok());
  std::vector<std::map<uint64_t, std::vector<int>>> tables(
      static_cast<size_t>(num_tables));
  for (auto& table : tables) {
    const uint64_t buckets = r.ReadU64().value();
    for (uint64_t b = 0; b < buckets; ++b) {
      const uint64_t key = r.ReadU64().value();
      const uint64_t n = r.ReadU64().value();
      for (uint64_t i = 0; i < n; ++i) {
        table[key].push_back(r.ReadI32().value());
      }
    }
  }
  return tables;
}

// Reference probe: concatenate the buckets the keys select, then sort
// and deduplicate.
std::vector<int> ReferenceQuery(
    const std::vector<std::map<uint64_t, std::vector<int>>>& tables,
    const std::vector<uint64_t>& keys) {
  std::vector<int> out;
  if (keys.size() != tables.size()) return out;
  for (size_t t = 0; t < tables.size(); ++t) {
    auto it = tables[t].find(keys[t]);
    if (it != tables[t].end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Probes every corpus vector (and perturbed copies) through QueryByKeys
// and the reference; returns the mean pool size as a fraction of the
// index so callers can assert which regime they covered.
double ExpectQueryByKeysMatchesReference(
    const LshIndex& index, const std::vector<std::vector<float>>& vecs,
    Rng* rng) {
  const auto tables = SerializedBuckets(index);
  double pool = 0;
  for (size_t i = 0; i < vecs.size(); ++i) {
    std::vector<float> probe = vecs[i];
    if (i % 2 == 1) {
      for (auto& x : probe) x += 0.1f * static_cast<float>(rng->Gaussian());
    }
    const auto keys = index.QueryKeys(probe);
    const auto got = index.QueryByKeys(keys);
    EXPECT_EQ(got, ReferenceQuery(tables, keys)) << "probe " << i;
    pool += static_cast<double>(got.size());
  }
  return pool / static_cast<double>(vecs.size()) /
         static_cast<double>(index.size());
}

TEST(LshTest, QueryByKeysEqualsSortUniqueOverIsotropicBuckets) {
  // Isotropic Gaussian rows: small pools, a sparse bitmap.
  Rng rng(21);
  const int dim = 24;
  LshIndex index(dim, /*num_bits=*/8, /*num_tables=*/12);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 700; ++i) {  // not a multiple of 64
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  const double frac = ExpectQueryByKeysMatchesReference(index, vecs, &rng);
  EXPECT_LT(frac, 0.2);
}

TEST(LshTest, QueryByKeysEqualsSortUniqueOverClusteredBuckets) {
  // Three tight clusters: most of the index collides with every probe,
  // the pool regime the serving corpora sit in.
  Rng rng(22);
  const int dim = 24;
  LshIndex index(dim, /*num_bits=*/4, /*num_tables=*/12);
  std::vector<std::vector<float>> centers;
  for (int c = 0; c < 3; ++c) centers.push_back(RandomUnit(&rng, dim));
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 1000; ++i) {
    std::vector<float> v = centers[static_cast<size_t>(i % 3)];
    for (auto& x : v) x += 0.05f * static_cast<float>(rng.Gaussian());
    vecs.push_back(v);
    ASSERT_TRUE(index.Insert(i, v).ok());
  }
  const double frac = ExpectQueryByKeysMatchesReference(index, vecs, &rng);
  EXPECT_GT(frac, 0.5);
}

TEST(LshTest, QueryByKeysOnEmptyIndexAndMissingKeys) {
  LshIndex empty(/*dim=*/8, /*num_bits=*/6, /*num_tables=*/4);
  EXPECT_TRUE(empty.QueryByKeys(empty.QueryKeys(std::vector<float>(8, 1.0f)))
                  .empty());

  Rng rng(23);
  LshIndex index(/*dim=*/8, /*num_bits=*/6, /*num_tables=*/4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Insert(i, RandomUnit(&rng, 8)).ok());
  }
  // A 6-bit hash is below 64, so key 64 is in no bucket of any table.
  const std::vector<uint64_t> missing(4, 64);
  EXPECT_TRUE(index.QueryByKeys(missing).empty());
  EXPECT_EQ(index.QueryByKeys(missing),
            ReferenceQuery(SerializedBuckets(index), missing));
  // One table hit: exactly that bucket, sorted.
  const auto tables = SerializedBuckets(index);
  std::vector<uint64_t> one = missing;
  one[2] = tables[2].begin()->first;
  EXPECT_EQ(index.QueryByKeys(one), ReferenceQuery(tables, one));
  EXPECT_EQ(index.QueryByKeys(one), tables[2].begin()->second);
  // A key count that does not match the table count matches nothing.
  EXPECT_TRUE(index.QueryByKeys({0, 0, 0}).empty());
}

TEST(LshTest, InsertRequiresDenseIds) {
  LshIndex index(/*dim=*/4, 4, 2);
  const std::vector<float> v(4, 1.0f);
  EXPECT_EQ(index.Insert(1, v).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert(-1, v).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(index.Insert(0, v).ok());
  EXPECT_EQ(index.Insert(0, v).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert(5, v).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(index.Insert(1, v).ok());
  EXPECT_EQ(index.size(), 2);
  EXPECT_EQ(index.Query(v), (std::vector<int>{0, 1}));
}

// Inserting by keys hashed elsewhere (the serving layer hashes outside
// its writer lock) builds the same buckets as inserting the vectors.
TEST(LshTest, InsertKeysEqualsInsert) {
  Rng rng(9);
  const int dim = 16;
  LshIndex by_vec(dim, /*num_bits=*/3, /*num_tables=*/6);
  LshIndex by_keys(dim, /*num_bits=*/3, /*num_tables=*/6);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 200; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(by_vec.Insert(i, vecs.back()).ok());
    ASSERT_TRUE(by_keys.InsertKeys(i, by_vec.QueryKeys(vecs.back())).ok());
  }
  for (const auto& v : vecs) EXPECT_EQ(by_keys.Query(v), by_vec.Query(v));
  const std::vector<uint64_t> short_keys(5, 0);
  EXPECT_EQ(by_keys.InsertKeys(200, short_keys).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(by_keys.InsertKeys(7, by_vec.QueryKeys(vecs[0])).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(by_keys.size(), 200);
}

// ---------------------------------------------------------------------------
// Clustering harness
// ---------------------------------------------------------------------------

// Builds well-separated labeled clusters in embedding space.
LabeledEmbeddingSet MakeSeparatedClusters(int per_cluster, int clusters,
                                          int dim, double noise,
                                          uint64_t seed) {
  Rng rng(seed);
  EmbeddingMatrix centers;
  for (int c = 0; c < clusters; ++c) centers.AppendRow(RandomUnit(&rng, dim));
  LabeledEmbeddingSet out;
  for (int c = 0; c < clusters; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      std::vector<float> v = centers.row(static_cast<size_t>(c)).ToVector();
      for (auto& x : v) x += static_cast<float>(noise * rng.Gaussian());
      out.Add(v, "cluster-" + std::to_string(c));
    }
  }
  return out;
}

TEST(ClusteringTest, SeparatedClustersScoreHigh) {
  auto items = MakeSeparatedClusters(10, 4, 16, 0.05, 11);
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_GT(result.map, 0.95);
  EXPECT_GT(result.mrr, 0.95);
  EXPECT_GT(result.queries, 0);
}

TEST(ClusteringTest, RandomEmbeddingsScoreLow) {
  Rng rng(12);
  LabeledEmbeddingSet items;
  for (int i = 0; i < 60; ++i) {
    items.Add(RandomUnit(&rng, 16), "cluster-" + std::to_string(i % 6));
  }
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_LT(result.map, 0.6);
}

TEST(ClusteringTest, LshBlockingPreservesQualityOnSeparatedData) {
  auto items = MakeSeparatedClusters(12, 4, 24, 0.05, 13);
  ClusterEvalOptions with_lsh;
  with_lsh.use_lsh = true;
  ClusterEvalOptions without;
  without.use_lsh = false;
  auto a = EvaluateClustering(items, with_lsh);
  auto b = EvaluateClustering(items, without);
  EXPECT_NEAR(a.map, b.map, 0.1);
}

TEST(ClusteringTest, CentroidVariantScoresSeparatedClusters) {
  auto items = MakeSeparatedClusters(10, 3, 16, 0.05, 14);
  ClusterEvalOptions opts;
  auto result = EvaluateCentroidClustering(items, opts);
  EXPECT_GT(result.map, 0.9);
  EXPECT_EQ(result.queries, 3);
}

TEST(ClusteringTest, RankBySimilarityOrdersByCosine) {
  LabeledEmbeddingSet items = {
      {{1, 0}, "a"}, {{0.9f, 0.1f}, "a"}, {{0, 1}, "b"}};
  auto ranked = RankBySimilarity(items, 0);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].index, 1);
  EXPECT_EQ(ranked[1].index, 2);
}

TEST(ClusteringTest, SingletonLabelsSkipped) {
  LabeledEmbeddingSet items = {
      {{1, 0}, "only"}, {{0, 1}, "pair"}, {{0.1f, 1}, "pair"}};
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_EQ(result.queries, 2);  // the singleton is not a query
}

// ---------------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------------

TEST(PipelinesTest, NumericColumnPredicate) {
  Table t = MakeRelationalTable();
  EXPECT_FALSE(IsNumericColumn(t, 0));  // names
  EXPECT_TRUE(IsNumericColumn(t, 1));   // ages
  EXPECT_FALSE(IsNumericColumn(t, 2));  // jobs
}

TEST(PipelinesTest, NumericTablePredicate) {
  EXPECT_FALSE(IsNumericTable(MakeRelationalTable()));
  EXPECT_TRUE(IsNumericTable(MakeOncologyTable()));
}

TEST(PipelinesTest, EmbeddersReceiveRightCells) {
  Corpus corpus;
  corpus.tables.push_back(MakeRelationalTable());
  std::vector<ColumnQuery> queries = {{0, 1, "age"}};
  auto items = EmbedColumns(corpus, queries, [](const Table& t, int col) {
    return std::vector<float>{static_cast<float>(col),
                              static_cast<float>(t.rows())};
  });
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items.label(0), "age");
  EXPECT_FLOAT_EQ(items.vec(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(items.vec(0)[1], 4.0f);
}

}  // namespace
}  // namespace tabbin
