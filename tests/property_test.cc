// Property-based tests: invariants that must hold for *randomized*
// inputs, swept with TEST_P across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "core/input_builder.h"
#include "core/pretrainer.h"
#include "datagen/corpus_gen.h"
#include "io/table_io.h"
#include "meta/value_parser.h"
#include "service/sharded_service.h"
#include "table/bicoord.h"
#include "tasks/metrics.h"
#include "tensor/ops.h"
#include "text/wordpiece.h"
#include "util/top_k.h"

namespace tabbin {
namespace {

// ---------------------------------------------------------------------------
// Random table factory
// ---------------------------------------------------------------------------

Table RandomTable(Rng* rng) {
  const int hmd = 1 + static_cast<int>(rng->Uniform(2));
  const int vmd = static_cast<int>(rng->Uniform(3));
  const int rows = hmd + 2 + static_cast<int>(rng->Uniform(8));
  const int cols = vmd + 1 + static_cast<int>(rng->Uniform(6));
  Table t(rows, cols, hmd, vmd);
  static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "omega",
                                 "sigma", "kappa", "lambda"};
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      switch (rng->Uniform(5)) {
        case 0:
          t.SetValue(r, c, Value::String(kWords[rng->Uniform(8)]));
          break;
        case 1:
          t.SetValue(r, c, Value::Number(rng->UniformFloat(0, 1000)));
          break;
        case 2:
          t.SetValue(r, c, Value::Range(rng->UniformFloat(0, 50),
                                        rng->UniformFloat(50, 100),
                                        UnitCategory::kTime, "year"));
          break;
        case 3:
          t.SetValue(r, c,
                     Value::Gaussian(rng->UniformFloat(0, 10),
                                     rng->UniformFloat(0.1f, 2),
                                     UnitCategory::kStats, "%"));
          break;
        default:
          break;  // leave empty
      }
    }
  }
  // Guarantee a non-empty header cell so sequences are non-trivial.
  t.SetValue(0, vmd, Value::String("header"));
  if (rng->Bernoulli(0.3)) {
    Table nested(2, 2, 1, 0);
    nested.SetValue(0, 0, Value::String("k"));
    nested.SetValue(1, 0, Value::Number(1));
    t.SetNested(hmd, vmd, std::move(nested));
  }
  return t;
}

class RandomTableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTableProperty, JsonRoundTripIsIdentity) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    Table t = RandomTable(&rng);
    auto round = TableFromJson(TableToJson(t));
    ASSERT_TRUE(round.ok());
    const Table& u = round.value();
    ASSERT_EQ(u.rows(), t.rows());
    ASSERT_EQ(u.cols(), t.cols());
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) {
        ASSERT_TRUE(t.cell(r, c).value == u.cell(r, c).value);
        ASSERT_EQ(t.cell(r, c).has_nested(), u.cell(r, c).has_nested());
      }
    }
  }
}

TEST_P(RandomTableProperty, CoordinateMapInvariants) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int iter = 0; iter < 5; ++iter) {
    Table t = RandomTable(&rng);
    CoordinateMap cm(t);
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) {
        const CellCoordinate& cc = cm.at(r, c);
        // 1-based coordinates inside grid bounds.
        EXPECT_EQ(cc.row, r + 1);
        EXPECT_EQ(cc.column, c + 1);
        // Levels never exceed the metadata band sizes.
        if (cc.segment == Segment::kData) {
          EXPECT_LE(cc.h_level, t.hmd_rows());
          EXPECT_LE(cc.v_level, t.vmd_cols());
          EXPECT_EQ(static_cast<int>(cc.h_labels.size()), cc.h_level);
          EXPECT_EQ(static_cast<int>(cc.v_labels.size()), cc.v_level);
        }
      }
    }
  }
}

TEST_P(RandomTableProperty, SequenceTokensWithinBounds) {
  Rng rng(GetParam() ^ 0x1234);
  Vocab vocab = TrainWordPieceVocab(
      {"alpha beta gamma delta omega sigma kappa lambda header k year"},
      500, 1);
  TypeInferencer typer;
  TabBiNConfig cfg;
  cfg.max_seq_len = 80;
  for (int iter = 0; iter < 5; ++iter) {
    Table t = RandomTable(&rng);
    for (auto variant :
         {TabBiNVariant::kDataRow, TabBiNVariant::kDataColumn,
          TabBiNVariant::kHmd, TabBiNVariant::kVmd}) {
      EncodedSequence seq = BuildSequence(t, variant, vocab, typer, cfg);
      EXPECT_LE(seq.size(), cfg.max_seq_len);
      for (const auto& tok : seq.tokens) {
        EXPECT_GE(tok.token_id, 0);
        EXPECT_LT(tok.token_id, vocab.size());
        EXPECT_GE(tok.cell_pos, 0);
        EXPECT_LT(tok.cell_pos, cfg.max_cell_tokens);
        for (int coord : {tok.vr, tok.vc, tok.hr, tok.hc, tok.nr, tok.nc}) {
          EXPECT_GE(coord, 0);
          EXPECT_LT(coord, cfg.max_tuples);
        }
        EXPECT_GE(tok.type_id, 0);
        EXPECT_LT(tok.type_id, cfg.num_types);
        if (tok.magnitude >= 0) {
          EXPECT_LT(tok.magnitude, cfg.num_numeric_bins);
          EXPECT_LT(tok.precision, cfg.num_numeric_bins);
        }
      }
      // Cell spans tile within the sequence and never overlap.
      int prev_end = -1;
      for (const auto& span : seq.cell_spans) {
        EXPECT_LE(span.begin, span.end);
        EXPECT_GE(span.begin, prev_end < 0 ? 0 : prev_end);
        EXPECT_LE(span.end, seq.size());
        prev_end = span.end;
      }
    }
  }
}

TEST_P(RandomTableProperty, VisibilitySymmetricReflexive) {
  Rng rng(GetParam() ^ 0x9999);
  Vocab vocab = TrainWordPieceVocab({"alpha beta gamma header"}, 200, 1);
  TypeInferencer typer;
  TabBiNConfig cfg;
  cfg.max_seq_len = 60;
  Table t = RandomTable(&rng);
  EncodedSequence seq =
      BuildWholeTableSequence(t, vocab, typer, cfg);
  VisibilityMatrix vis = BuildSequenceVisibility(seq);
  for (int i = 0; i < vis.size(); ++i) {
    EXPECT_TRUE(vis.visible(i, i));
    for (int j = 0; j < vis.size(); ++j) {
      EXPECT_EQ(vis.visible(i, j), vis.visible(j, i));
    }
  }
}

TEST_P(RandomTableProperty, MaskingTargetsMatchOriginalTokens) {
  Rng rng(GetParam() ^ 0x4444);
  Vocab vocab = TrainWordPieceVocab(
      {"alpha beta gamma delta omega sigma kappa lambda header"}, 500, 1);
  TypeInferencer typer;
  TabBiNConfig cfg;
  cfg.max_seq_len = 80;
  Table t = RandomTable(&rng);
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  if (seq.size() < 4) return;
  MaskedExample ex = ApplyMasking(seq, cfg, vocab.size(), &rng);
  ASSERT_EQ(ex.token_targets.size(), static_cast<size_t>(seq.size()));
  for (size_t i = 0; i < ex.token_targets.size(); ++i) {
    if (ex.token_targets[i] >= 0) {
      // Target always equals the pre-masking token.
      EXPECT_EQ(ex.token_targets[i], seq.tokens[i].token_id);
    } else {
      // Unmasked positions are unchanged.
      EXPECT_EQ(ex.seq.tokens[i].token_id, seq.tokens[i].token_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTableProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Value parser fuzz / round-trip
// ---------------------------------------------------------------------------

class ValueRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueRoundTrip, ToStringParsesBackToSameKind) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    Value v;
    switch (rng.Uniform(4)) {
      case 0:
        v = Value::Number(std::round(rng.UniformFloat(0, 500) * 10) / 10.0,
                          UnitCategory::kTime, "month");
        break;
      case 1:
        v = Value::Number(std::round(rng.UniformFloat(-100, 100)));
        break;
      case 2: {
        double lo = std::round(rng.UniformFloat(0, 50));
        v = Value::Range(lo, lo + 1 + std::round(rng.UniformFloat(0, 50)),
                         UnitCategory::kWeight, "kg");
        break;
      }
      default:
        v = Value::Gaussian(std::round(rng.UniformFloat(0, 20) * 10) / 10.0,
                            std::round(rng.UniformFloat(0.1f, 5) * 10) / 10.0,
                            UnitCategory::kStats, "%");
        break;
    }
    Value round = ParseValue(v.ToString());
    EXPECT_EQ(round.kind(), v.kind()) << v.ToString();
    EXPECT_EQ(round.unit(), v.unit()) << v.ToString();
  }
}

TEST_P(ValueRoundTrip, ParserNeverCrashesOnNoise) {
  Rng rng(GetParam() ^ 0x7777);
  const char charset[] = "0123456789.-+ ±%abcxyz()/,";
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    const int len = static_cast<int>(rng.Uniform(18));
    for (int i = 0; i < len; ++i) {
      s += charset[rng.Uniform(sizeof(charset) - 1)];
    }
    Value v = ParseValue(s);  // must not crash; any kind is acceptable
    (void)v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTrip,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Metric identities
// ---------------------------------------------------------------------------

class MetricProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricProperty, BoundsAndOrderInvariance) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<bool> rel;
    const int n = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < n; ++i) rel.push_back(rng.Bernoulli(0.3));
    const int k = 1 + static_cast<int>(rng.Uniform(25));
    const double ap = AveragePrecisionAtK(rel, k);
    const double rr = ReciprocalRankAtK(rel, k);
    EXPECT_GE(ap, 0.0);
    EXPECT_LE(ap, 1.0);
    EXPECT_GE(rr, 0.0);
    EXPECT_LE(rr, 1.0);
    // RR >= AP contribution of the first hit: AP <= 1 and RR is 1/rank of
    // the first hit, so AP <= RR never fails when only one item relevant.
    int relevant = 0;
    for (int i = 0; i < std::min(k, n); ++i) relevant += rel[static_cast<size_t>(i)];
    if (relevant == 1) {
      EXPECT_LE(ap, rr + 1e-12);
    }
    // Moving a relevant item earlier never decreases AP — provided the
    // move happens inside the top-k window (with hits-normalized AP@k, a
    // relevant item newly *entering* the window ranked last can lower the
    // normalized score; that is a property of the metric, not a bug).
    for (int i = 1; i < std::min(k, n); ++i) {
      if (rel[static_cast<size_t>(i)] && !rel[static_cast<size_t>(i - 1)]) {
        auto better = rel;
        better[static_cast<size_t>(i)] = false;
        better[static_cast<size_t>(i - 1)] = true;
        EXPECT_GE(AveragePrecisionAtK(better, k) + 1e-12, ap);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty,
                         ::testing::Values(3, 7, 31, 127));

// ---------------------------------------------------------------------------
// Bounded top-k selection
// ---------------------------------------------------------------------------

// SelectTopK must equal std::sort + truncate under the caller's strict
// total order. Scores take only a few values, so most comparisons fall
// through to the tie key and the tie-break decides the cut.
class TopKProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKProperty, EqualsFullSortThenTruncate) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    const size_t n = rng.Uniform(120);
    std::vector<float> score(n);
    std::vector<std::string> tie(n);
    for (size_t i = 0; i < n; ++i) {
      score[i] = 0.25f * static_cast<float>(rng.Uniform(4));
      tie[i] = "t" + std::to_string(rng.Uniform(1000)) + "." +
               std::to_string(i);  // distinct, not in index order
    }
    const auto better = [&](size_t a, size_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return tie[a] < tie[b];
    };
    std::vector<size_t> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = i;
    std::sort(sorted.begin(), sorted.end(), better);
    for (size_t k : {size_t{1}, size_t{10}, n - std::min<size_t>(n, 1), n,
                     n + 5}) {
      std::vector<size_t> expected(
          sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(k, n)));
      EXPECT_EQ(SelectTopK(n, k, better), expected)
          << "n " << n << " k " << k;
    }
  }
  EXPECT_TRUE(SelectTopK(0, 10, [](size_t, size_t) { return false; })
                  .empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty,
                         ::testing::Values(2, 19, 101, 4096));

// ---------------------------------------------------------------------------
// Generator-level properties
// ---------------------------------------------------------------------------

class GeneratorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorProperty, AllGeneratedTablesEncodeEverySegment) {
  GeneratorOptions opts;
  opts.num_tables = 12;
  opts.seed = GetParam();
  Vocab vocab;
  TypeInferencer typer;
  TabBiNConfig cfg;
  cfg.max_seq_len = 64;
  for (const auto& name : DatasetNames()) {
    LabeledCorpus data = GenerateDataset(name, opts);
    for (const auto& t : data.corpus.tables) {
      // Building sequences must never crash and data must be non-empty.
      EncodedSequence seq =
          BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
      EXPECT_GT(seq.size(), 0) << name;
      BuildSequence(t, TabBiNVariant::kDataColumn, vocab, typer, cfg);
      BuildSequence(t, TabBiNVariant::kHmd, vocab, typer, cfg);
      BuildSequence(t, TabBiNVariant::kVmd, vocab, typer, cfg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty, ::testing::Values(5, 9));

// ---------------------------------------------------------------------------
// Sharded serving under random churn
// ---------------------------------------------------------------------------

// Random Add/Remove/replace/Compact sequences driven by a seeded RNG
// must keep 3-shard TabBinService answers equal to the 1-shard
// service AND to a brute-force oracle: every returned score is
// recomputed as the exact cosine of independently derived embeddings,
// the ranking is monotone, only live tables appear, and the live set
// matches a plain std::map mirror of the operations. On failure the
// SCOPED_TRACE lines pin the seed and operation index, so the shrink is
// one INSTANTIATE line: rerun with that single seed and bisect ops.
class ShardedChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedChurnProperty, ShardedMatchesSingleServiceAndExactCosine) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("shrink: rerun with seed=" + std::to_string(seed));
  Rng rng(seed);

  TabBiNConfig cfg;
  cfg.hidden = 16;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 32;
  cfg.max_seq_len = 64;

  int next_id = 0;
  auto fresh_table = [&](const std::string& id) {
    Table t = RandomTable(&rng);
    t.set_id(id);
    t.set_caption("random table " + id);
    return t;
  };
  std::vector<Table> initial;
  for (int i = 0; i < 5; ++i) {
    initial.push_back(fresh_table("p" + std::to_string(next_id++)));
  }
  auto sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(initial, cfg));
  TabBinService single(sys);
  TabBinService sharded(sys, {}, 3);
  std::map<std::string, Table> oracle;

  auto add_all = [&](const std::vector<Table>& batch) {
    ASSERT_TRUE(single.AddTables(batch).ok());
    ASSERT_TRUE(sharded.AddTables(batch).ok());
    for (const Table& t : batch) oracle[t.id()] = t;
  };
  auto live_ids = [&] {
    std::vector<std::string> ids;
    for (const auto& [id, t] : oracle) ids.push_back(id);
    return ids;
  };

  auto checkpoint = [&] {
    ASSERT_EQ(single.NumLiveTables(), oracle.size());
    ASSERT_EQ(sharded.NumLiveTables(), oracle.size());
    ASSERT_EQ(single.LiveTableIds(), live_ids());
    ASSERT_EQ(sharded.LiveTableIds(), live_ids());
    const std::vector<std::string> ids = live_ids();
    if (ids.empty()) return;
    // Probe the first, middle, and last live id (deterministic picks).
    for (size_t pick : {size_t{0}, ids.size() / 2, ids.size() - 1}) {
      const std::string& qid = ids[pick];
      SCOPED_TRACE("probe id " + qid);
      auto a = single.SimilarTables({qid, nullptr, 8});
      auto b = sharded.SimilarTables({qid, nullptr, 8});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      const auto& am = a.value().matches;
      const auto& bm = b.value().matches;
      ASSERT_EQ(am.size(), bm.size());
      const std::vector<float> qvec =
          single.TableEmbedding(oracle.at(qid));
      for (size_t i = 0; i < am.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        // Sharded == single, byte for byte.
        ASSERT_EQ(am[i].table_id, bm[i].table_id);
        ASSERT_EQ(am[i].score, bm[i].score);
        // Only live tables, never the probe itself.
        ASSERT_NE(am[i].table_id, qid);
        ASSERT_TRUE(oracle.count(am[i].table_id)) << am[i].table_id;
        // Exact-cosine oracle: the served score must equal the cosine
        // of independently recomputed embeddings.
        const std::vector<float> mvec =
            single.TableEmbedding(oracle.at(am[i].table_id));
        ASSERT_EQ(am[i].score, CosineSimilarity(qvec, mvec));
        // Ranking is monotone.
        if (i > 0) {
          ASSERT_LE(am[i].score, am[i - 1].score);
        }
      }
    }
    auto aska = single.Ask({"alpha beta gamma", 4});
    auto askb = sharded.Ask({"alpha beta gamma", 4});
    ASSERT_TRUE(aska.ok() && askb.ok());
    ASSERT_EQ(aska.value().answer, askb.value().answer);
    ASSERT_EQ(aska.value().tables.size(), askb.value().tables.size());
    for (size_t i = 0; i < aska.value().tables.size(); ++i) {
      ASSERT_EQ(aska.value().tables[i].table_id,
                askb.value().tables[i].table_id);
      ASSERT_EQ(aska.value().tables[i].score,
                askb.value().tables[i].score);
    }
  };

  add_all(initial);
  checkpoint();
  for (int op = 0; op < 10; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const std::vector<std::string> ids = live_ids();
    switch (rng.Uniform(4)) {
      case 0: {  // add 1-2 fresh tables
        std::vector<Table> batch;
        const int n = 1 + static_cast<int>(rng.Uniform(2));
        for (int i = 0; i < n; ++i) {
          batch.push_back(fresh_table("p" + std::to_string(next_id++)));
        }
        add_all(batch);
        break;
      }
      case 1: {  // replace a random live table under its id
        if (ids.empty()) break;
        const std::string& id =
            ids[rng.Uniform(static_cast<uint64_t>(ids.size()))];
        add_all({fresh_table(id)});
        break;
      }
      case 2: {  // remove a random live table
        if (ids.empty()) break;
        const std::string& id =
            ids[rng.Uniform(static_cast<uint64_t>(ids.size()))];
        ASSERT_TRUE(single.RemoveTable(id).ok());
        ASSERT_TRUE(sharded.RemoveTable(id).ok());
        oracle.erase(id);
        break;
      }
      default: {  // compact both sides
        ASSERT_TRUE(single.Compact().ok());
        ASSERT_TRUE(sharded.Compact().ok());
        break;
      }
    }
    checkpoint();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedChurnProperty,
                         ::testing::Values(17, 42, 271, 828));

}  // namespace
}  // namespace tabbin
