// Int8 scalar-quantized scoring tier: encode/decode error bounds, exact
// SIMD-vs-scalar integer-dot equality at every dispatch level, snapshot
// byte-format stability (codes are derived state), the two-stage
// scan -> shortlist -> rerank contract (float-exact final scores,
// byte-identity whenever the shortlist covers the pool), and a seeded
// recall@k regression against the float oracle.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "datagen/corpus_gen.h"
#include "gtest/gtest.h"
#include "llm/rag_simulator.h"
#include "service/sharded_service.h"
#include "tasks/clustering.h"
#include "tensor/embedding_matrix.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace tabbin {
namespace {

using kernels::Dispatch;

// Lengths crossing every tail boundary of the int8 kernels: below one
// 16-byte lane, exactly one/two lanes, one past, odd primes, and a
// length long enough to stress the widened-accumulator loops.
const size_t kLengths[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 72, 1000};

std::vector<float> RandomVec(Rng* rng, size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

// Row-side codes span the full [-127, 127] range.
std::vector<int8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<int8_t> v(n);
  for (auto& c : v) {
    c = static_cast<int8_t>(static_cast<int>(rng->Uniform(255)) - 127);
  }
  return v;
}

// Query-side codes obey the [-63, 63] contract QuantizeSymmetric
// enforces — the bound that keeps the AVX2 maddubs path saturation-free.
std::vector<int8_t> RandomQueryCodes(Rng* rng, size_t n) {
  std::vector<int8_t> v(n);
  for (auto& c : v) {
    c = static_cast<int8_t>(static_cast<int>(rng->Uniform(127)) - 63);
  }
  return v;
}

int64_t ReferenceQuantizedDot(const std::vector<int8_t>& a,
                              const std::vector<int8_t>& b) {
  int64_t sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<int64_t>(a[i]) * b[i];
  }
  return sum;
}

bool SimdLevel(Dispatch* out) {
  const Dispatch d = kernels::Detect(/*force_scalar=*/false);
  if (d == Dispatch::kScalar) return false;
  *out = d;
  return true;
}

TEST(QuantizeEncodeTest, RoundTripErrorBoundedByHalfStep) {
  Rng rng(61);
  for (size_t n : kLengths) {
    for (float spread : {1.0f, 0.01f, 40.0f}) {
      const auto x = RandomVec(&rng, n, spread);
      std::vector<int8_t> codes(n);
      const auto p = kernels::QuantizeRowAffine(x.data(), n, codes.data());
      ASSERT_GT(p.scale, 0.0f);
      for (size_t i = 0; i < n; ++i) {
        // Codes stay in [-127, 127] (never -128, so negation is safe in
        // the kernels) and decode to within half a quantization step
        // (plus float rounding slack).
        ASSERT_GE(codes[i], -127);
        ASSERT_LE(codes[i], 127);
        const float decoded =
            p.scale * (static_cast<float>(codes[i]) - static_cast<float>(p.zero));
        EXPECT_NEAR(decoded, x[i], 0.501 * static_cast<double>(p.scale))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(QuantizeEncodeTest, DegenerateRowsAreExact) {
  // Zero rows: identity params, all-zero codes (decode is exactly 0).
  std::vector<float> zero(9, 0.0f);
  std::vector<int8_t> codes(9);
  auto p = kernels::QuantizeRowAffine(zero.data(), zero.size(), codes.data());
  EXPECT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.zero, 0);
  for (int8_t c : codes) EXPECT_EQ(c, 0);

  // Constant rows hit max-magnitude codes and decode exactly.
  std::vector<float> constant(7, -3.25f);
  codes.assign(7, 0);
  p = kernels::QuantizeRowAffine(constant.data(), constant.size(),
                                 codes.data());
  for (size_t i = 0; i < constant.size(); ++i) {
    EXPECT_EQ(p.scale * (static_cast<float>(codes[i]) -
                         static_cast<float>(p.zero)),
              -3.25f);
  }

  // Symmetric (query-side) quantization of a zero vector: scale 0,
  // all-zero codes, zero code sum.
  auto q = kernels::QuantizeSymmetric(zero.data(), zero.size(), codes.data());
  EXPECT_EQ(q.scale, 0.0f);
  EXPECT_EQ(q.code_sum, 0);
}

TEST(QuantizeEncodeTest, QueryCodesObeyTheMaddubsRange) {
  // The AVX2 scan path is only saturation-free because query codes stay
  // in [-63, 63]; extreme inputs must hit the rails, never pass them.
  Rng rng(64);
  for (size_t n : kLengths) {
    auto x = RandomVec(&rng, n, 100.0f);
    x[n / 2] = 1e6f;  // force a dominant element onto the positive rail
    std::vector<int8_t> codes(n);
    const auto p = kernels::QuantizeSymmetric(x.data(), n, codes.data());
    ASSERT_GT(p.scale, 0.0f);
    int32_t sum = 0;
    for (int8_t c : codes) {
      ASSERT_GE(c, -63);
      ASSERT_LE(c, 63);
      sum += c;
    }
    EXPECT_EQ(sum, p.code_sum);
    EXPECT_EQ(codes[n / 2], 63);
  }
}

TEST(QuantizedDotTest, SimdMatchesScalarExactlyAcrossLengths) {
  Dispatch simd = Dispatch::kScalar;
  const bool has_simd = SimdLevel(&simd);
  Rng rng(62);
  for (size_t n : kLengths) {
    const auto a = RandomQueryCodes(&rng, n);
    const auto b = RandomCodes(&rng, n);
    const int64_t ref = ReferenceQuantizedDot(a, b);
    ASSERT_LT(std::llabs(ref), (1ll << 31));  // int32 accumulator is exact
    const int32_t scalar =
        kernels::QuantizedDotAt(Dispatch::kScalar, a.data(), b.data(), n);
    EXPECT_EQ(static_cast<int64_t>(scalar), ref) << "scalar, n=" << n;
    if (has_simd) {
      // Integer accumulation is associative: SIMD and scalar agree bit
      // for bit, not merely within tolerance.
      EXPECT_EQ(kernels::QuantizedDotAt(simd, a.data(), b.data(), n), scalar)
          << "simd, n=" << n;
    }
    EXPECT_EQ(kernels::QuantizedDot(a.data(), b.data(), n), scalar);
  }
}

TEST(QuantizedDotTest, SaturatingExtremesAreExact) {
  Dispatch simd = Dispatch::kScalar;
  const bool has_simd = SimdLevel(&simd);
  for (size_t n : kLengths) {
    // The adversarial corner of the range contract: max-magnitude query
    // codes against max-magnitude row codes drive every maddubs int16
    // pair sum to its bound (2 * 255 * 63 = 32130); the kernels must
    // stay exact there at every dispatch level.
    for (int sa : {-63, 63}) {
      for (int sb : {-127, 127}) {
        std::vector<int8_t> a(n, static_cast<int8_t>(sa));
        std::vector<int8_t> b(n, static_cast<int8_t>(sb));
        const int64_t ref = static_cast<int64_t>(sa) * sb *
                            static_cast<int64_t>(n);
        EXPECT_EQ(kernels::QuantizedDotAt(Dispatch::kScalar, a.data(),
                                          b.data(), n),
                  ref)
            << n;
        if (has_simd) {
          EXPECT_EQ(kernels::QuantizedDotAt(simd, a.data(), b.data(), n), ref)
              << n;
        }
      }
    }
    // Zero rows dot to exactly 0 at every level.
    std::vector<int8_t> zero(n, 0);
    std::vector<int8_t> other(n, 127);
    EXPECT_EQ(kernels::QuantizedDot(zero.data(), other.data(), n), 0);
  }
}

TEST(QuantizedDotTest, BatchedFormMatchesPairwise) {
  Rng rng(63);
  const size_t cols = 33, rows = 11;
  std::vector<int8_t> codes;
  for (size_t r = 0; r < rows; ++r) {
    const auto row = RandomCodes(&rng, cols);
    codes.insert(codes.end(), row.begin(), row.end());
  }
  const auto q = RandomQueryCodes(&rng, cols);
  std::vector<int> idx = {0, 10, 3, 7, 3};
  std::vector<int32_t> batched(idx.size());
  kernels::BatchedQuantizedDotRows(q.data(), codes.data(), cols, idx.data(),
                                   idx.size(), batched.data());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(batched[i],
              kernels::QuantizedDot(
                  q.data(), codes.data() + static_cast<size_t>(idx[i]) * cols,
                  cols));
  }
}

TEST(QuantizedSidecarTest, MutationsKeepCodesFresh) {
  Rng rng(64);
  EmbeddingMatrix m;
  for (int r = 0; r < 4; ++r) m.AppendRow(RandomVec(&rng, 12));
  EXPECT_FALSE(m.quantized());
  m.EnableQuantization();
  ASSERT_TRUE(m.quantized());

  const auto expect_row_codes_exact = [&](size_t r) {
    std::vector<int8_t> fresh(m.cols());
    const auto p =
        kernels::QuantizeRowAffine(m.row(r).data(), m.cols(), fresh.data());
    EXPECT_EQ(p.scale, m.code_scale(r)) << "row " << r;
    EXPECT_EQ(p.zero, m.code_zero(r)) << "row " << r;
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(fresh[c], m.codes()[r * m.cols() + c])
          << "row " << r << " col " << c;
    }
  };
  for (size_t r = 0; r < m.rows(); ++r) expect_row_codes_exact(r);

  // Appends and overwrites on a quantized matrix re-encode their row.
  m.AppendRow(RandomVec(&rng, 12));
  m.set_row(1, RandomVec(&rng, 12));
  for (size_t r = 0; r < m.rows(); ++r) expect_row_codes_exact(r);

  // Raw-data writers go through RecomputeInvNorms, which also rebuilds
  // the sidecar.
  m.mutable_row(0)[3] += 8.0f;
  m.RecomputeInvNorms();
  for (size_t r = 0; r < m.rows(); ++r) expect_row_codes_exact(r);

  m.DisableQuantization();
  EXPECT_FALSE(m.quantized());
}

TEST(QuantizedSidecarTest, SnapshotBytesUnchangedAndCodesRecomputed) {
  Rng rng(65);
  EmbeddingMatrix plain;
  for (int r = 0; r < 5; ++r) plain.AppendRow(RandomVec(&rng, 9));
  EmbeddingMatrix quantized = plain;
  quantized.EnableQuantization();

  // Serialization never writes the sidecar: a quantized matrix emits
  // byte-identical output to its float twin (old readers keep working).
  BinaryWriter wp, wq;
  plain.Serialize(&wp);
  quantized.Serialize(&wq);
  ASSERT_EQ(wp.buffer().size(), wq.buffer().size());
  EXPECT_EQ(wp.buffer(), wq.buffer());

  // Deserialize restores floats only; enabling quantization afterwards
  // reproduces the exact same codes (derived state, like inv norms).
  BinaryReader r(wq.buffer());
  auto loaded = EmbeddingMatrix::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().quantized());
  loaded.value().EnableQuantization();
  for (size_t row = 0; row < quantized.rows(); ++row) {
    EXPECT_EQ(loaded.value().code_scale(row), quantized.code_scale(row));
    EXPECT_EQ(loaded.value().code_zero(row), quantized.code_zero(row));
  }
  const size_t total = quantized.rows() * quantized.cols();
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(loaded.value().codes()[i], quantized.codes()[i]);
  }
}

TEST(QuantizedCosineTest, ApproxScoreTracksExactCosine) {
  Rng rng(66);
  const size_t cols = 72;
  EmbeddingMatrix m;
  for (int r = 0; r < 30; ++r) m.AppendRow(RandomVec(&rng, cols));
  m.AppendRow(std::vector<float>(cols, 0.0f));
  m.EnableQuantization();
  const auto qvec = RandomVec(&rng, cols);
  const QuantizedQuery qq = MakeQuantizedQuery(
      VecView(qvec.data(), qvec.size()));

  std::vector<int> rows(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) rows[i] = static_cast<int>(i);
  std::vector<float> approx(rows.size());
  QuantizedCosineRows(m, qq, rows.data(), rows.size(), approx.data());
  std::vector<float> exact(rows.size());
  kernels::BatchedCosineRows(qvec.data(),
                             kernels::InvNorm(qvec.data(), cols), m.data(),
                             cols, rows.data(), rows.size(), m.inv_norms(),
                             exact.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    // 8-bit codes on both sides: the approximate cosine lands within a
    // few quantization steps of the exact one.
    EXPECT_NEAR(approx[i], exact[i], 0.05) << "row " << i;
  }
  EXPECT_EQ(approx.back(), 0.0f);  // zero row scores exactly 0
}

// Recall@k of the two-stage quantized path against the float oracle,
// averaged over seeded queries. ISSUE acceptance: >= 0.99 at the
// default shortlist multiplier.
TEST(QuantizedRecallTest, RecallAtTenVsFloatOracle) {
  Rng rng(67);
  const size_t cols = 64, n = 400;
  const int k = 10;
  LabeledEmbeddingSet items;
  for (size_t i = 0; i < n; ++i) {
    items.Add(RandomVec(&rng, cols), "l" + std::to_string(i % 20));
  }
  items.EnableQuantizedScan();
  double hit = 0, total = 0;
  for (int q = 0; q < 50; ++q) {
    const auto exact = RankBySimilarity(items, q, nullptr, k);
    const auto two_stage = RankBySimilarity(items, q, nullptr, k,
                                            /*quantized_scan=*/true,
                                            /*shortlist_multiplier=*/4);
    ASSERT_EQ(exact.size(), two_stage.size());
    std::set<int> oracle;
    for (const auto& r : exact) oracle.insert(r.index);
    for (const auto& r : two_stage) {
      hit += oracle.count(r.index);
      // Scores in the two-stage ranking are float-exact (the rerank
      // runs the same batched kernel), so any shared member carries the
      // identical score bits.
      for (const auto& e : exact) {
        if (e.index == r.index) {
          EXPECT_EQ(e.score, r.score);
        }
      }
    }
    total += static_cast<double>(exact.size());
  }
  EXPECT_GE(hit / total, 0.99);
}

TEST(QuantizedRecallTest, CoveringShortlistIsByteIdenticalToExact) {
  Rng rng(68);
  LabeledEmbeddingSet items;
  for (size_t i = 0; i < 120; ++i) {
    items.Add(RandomVec(&rng, 24), "l" + std::to_string(i % 8));
  }
  items.EnableQuantizedScan();
  for (int q : {0, 17, 119}) {
    const auto exact = RankBySimilarity(items, q, nullptr, 10);
    // Multiplier large enough that the shortlist covers the pool: the
    // two-stage path must short-circuit into the exact one.
    const auto covered = RankBySimilarity(items, q, nullptr, 10, true, 1000);
    ASSERT_EQ(exact.size(), covered.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(exact[i].index, covered[i].index);
      EXPECT_EQ(exact[i].score, covered[i].score);
    }
  }
  // Without the sidecar the knob silently falls back to the exact path.
  LabeledEmbeddingSet no_sidecar;
  for (size_t i = 0; i < 60; ++i) {
    no_sidecar.Add(RandomVec(&rng, 24), "x");
  }
  const auto a = RankBySimilarity(no_sidecar, 0, nullptr, 5);
  const auto b = RankBySimilarity(no_sidecar, 0, nullptr, 5, true, 2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

// --- Service-level wiring ---------------------------------------------

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
    gen.num_tables = 16;
    gen.seed = 23;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
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

TEST(QuantizedServiceTest, KnobOffAndCoveringShortlistMatchExactService) {
  auto exact = std::make_unique<TabBinService>(SharedSystem());
  ASSERT_TRUE(exact->AddTables(SharedCorpus().corpus.tables).ok());

  ServiceOptions opt;
  opt.quantized_scan = true;
  opt.quantized_shortlist_multiplier = 1000000;  // shortlist covers any pool
  auto covered = std::make_unique<TabBinService>(SharedSystem(), opt);
  ASSERT_TRUE(covered->AddTables(SharedCorpus().corpus.tables).ok());

  const Table& probe = SharedCorpus().corpus.tables[2];
  ColumnQueryRequest creq;
  creq.table = &probe;
  creq.col = 0;
  creq.k = 5;
  TableQueryRequest treq;
  treq.table_id = exact->LiveTableIds()[0];
  treq.k = 6;
  auto ce = exact->SimilarColumns(creq);
  auto cc = covered->SimilarColumns(creq);
  ASSERT_TRUE(ce.ok() && cc.ok());
  ExpectSameResponse(ce.value(), cc.value());
  auto te = exact->SimilarTables(treq);
  auto tc = covered->SimilarTables(treq);
  ASSERT_TRUE(te.ok() && tc.ok());
  ExpectSameResponse(te.value(), tc.value());

  // Toggling the scan off restores byte-identity at any multiplier, and
  // toggling it back on with a covering shortlist keeps it.
  covered->SetQuantizedScan(false);
  auto off = covered->SimilarColumns(creq);
  ASSERT_TRUE(off.ok());
  ExpectSameResponse(ce.value(), off.value());
  covered->SetQuantizedScan(true, 1000000);
  auto on = covered->SimilarColumns(creq);
  ASSERT_TRUE(on.ok());
  ExpectSameResponse(ce.value(), on.value());
}

TEST(QuantizedServiceTest, TightShortlistStillScoresFloatExact) {
  auto exact = std::make_unique<TabBinService>(SharedSystem());
  ASSERT_TRUE(exact->AddTables(SharedCorpus().corpus.tables).ok());
  auto quant = std::make_unique<TabBinService>(SharedSystem());
  ASSERT_TRUE(quant->AddTables(SharedCorpus().corpus.tables).ok());
  quant->SetQuantizedScan(true, 2);

  ColumnQueryRequest creq;
  creq.table = &SharedCorpus().corpus.tables[1];
  creq.col = 0;
  creq.k = 4;
  auto e = exact->SimilarColumns(creq);
  auto qr = quant->SimilarColumns(creq);
  ASSERT_TRUE(e.ok() && qr.ok());
  ASSERT_EQ(e.value().matches.size(), qr.value().matches.size());
  // Shortlist membership may differ, but every reported score is the
  // exact float cosine — any match appearing in both rankings carries
  // identical score bits.
  for (const auto& qm : qr.value().matches) {
    for (const auto& em : e.value().matches) {
      if (em.table_id == qm.table_id && em.col == qm.col &&
          em.row == qm.row) {
        EXPECT_EQ(em.score, qm.score);
      }
    }
  }
  // Compact rebuilds the sidecars; the quantized service keeps serving.
  ASSERT_TRUE(quant->Compact().ok());
  auto after = quant->SimilarColumns(creq);
  ASSERT_TRUE(after.ok());
  ExpectSameResponse(qr.value(), after.value());
}

TEST(QuantizedServiceTest, ShardedServiceForwardsTheKnob) {
  auto svc = MakeServing(SharedSystem(), 3);
  ASSERT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  auto exact = MakeServing(SharedSystem(), 3);
  ASSERT_TRUE(exact->AddTables(SharedCorpus().corpus.tables).ok());

  svc->SetQuantizedScan(true, 1000000);
  TableQueryRequest treq;
  treq.table_id = exact->LiveTableIds()[0];
  treq.k = 5;
  auto a = exact->SimilarTables(treq);
  auto b = svc->SimilarTables(treq);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameResponse(a.value(), b.value());
}

TEST(QuantizedRagTest, QuantizedRetrievalKeepsEvaluationShape) {
  Rng rng(69);
  const size_t n = 90, dim = 32;
  std::vector<RagDocument> docs;
  EmbeddingMatrix dense(n, dim);
  for (size_t i = 0; i < n; ++i) {
    docs.push_back({"doc tokens shared vocab " + std::to_string(i % 9),
                    "l" + std::to_string(i % 9)});
    const auto v = RandomVec(&rng, dim);
    // RagLlmSimulator::Index recomputes the norm cache on ingest.
    // tabbin-lint: allow(raw-row-mutation)
    std::copy(v.begin(), v.end(), dense.mutable_row(i));
  }
  RagLlmSimulator exact(ProfileFor("gpt4+rag"), 7);
  ASSERT_TRUE(exact.Index(docs, dense).ok());
  RagLlmSimulator quant(ProfileFor("gpt4+rag"), 7);
  ASSERT_TRUE(quant.Index(docs, dense).ok());
  quant.EnableQuantizedRetrieval(true, 4);

  // Same profile, seed, and corpus: the quantized retriever feeds the
  // same downstream machinery, so the evaluation stays in lockstep with
  // the float oracle to within shortlist-membership noise.
  auto re = exact.Evaluate(10, 40);
  auto rq = quant.Evaluate(10, 40);
  EXPECT_NEAR(rq.map, re.map, 0.1);
  EXPECT_NEAR(rq.mrr, re.mrr, 0.1);

  // A covering shortlist restores determinism exactly.
  RagLlmSimulator covered(ProfileFor("gpt4+rag"), 7);
  ASSERT_TRUE(covered.Index(docs, dense).ok());
  covered.EnableQuantizedRetrieval(true, 1000000);
  auto rc = covered.Evaluate(10, 40);
  EXPECT_EQ(rc.map, re.map);
  EXPECT_EQ(rc.mrr, re.mrr);
}

}  // namespace
}  // namespace tabbin
