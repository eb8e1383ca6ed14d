// Tests for persisted artifacts: corrupt-input hardening of BinaryReader,
// round trips of every artifact codec (EmbeddingMatrix, LshIndex,
// TypeInferencer, TableEncodings, RAG grounding index), and model
// snapshots on the TBSN v2 container (TabBiNSystem, EncoderEngine warm
// start). Container-level corruption cases live in store_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "llm/rag_simulator.h"
#include "tasks/lsh.h"
#include "test_tables.h"
#include "store/paged_snapshot.h"
#include "text/vocab.h"

namespace tabbin {
namespace {

TabBiNConfig SnapshotTestConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 16;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 32;
  cfg.max_seq_len = 48;
  cfg.pretrain_steps = 2;
  cfg.batch_size = 2;
  return cfg;
}

std::vector<Table> SampleTables() {
  std::vector<Table> tables;
  tables.push_back(MakeOncologyTable());
  tables.push_back(MakeRelationalTable());
  return tables;
}

// Writes `w` to /tmp and opens it, as every v2 loader does.
Result<PagedSnapshotReader> WriteAndOpen(const PagedSnapshotWriter& w,
                                         const std::string& name) {
  const std::string path = "/tmp/tabbin_snap_" + name + ".tbsn";
  TABBIN_RETURN_IF_ERROR(w.ToFile(path));
  return PagedSnapshotReader::Open(path);
}

// ---------------------------------------------------------------------------
// BinaryReader corrupt-input hardening
// ---------------------------------------------------------------------------

TEST(BinaryReaderHardeningTest, StringLengthOverflowRejected) {
  // A length prefix near UINT64_MAX makes pos_ + n wrap around; the old
  // check passed and read out of bounds.
  BinaryWriter w;
  w.WriteU64(UINT64_MAX - 2);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryReaderHardeningTest, VectorLengthOverflowRejected) {
  // n * sizeof(float) overflows for n >= 2^62.
  BinaryWriter w;
  w.WriteU64((1ULL << 62) + 5);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadF32Vector().ok());
}

TEST(BinaryReaderHardeningTest, TruncatedStringRejected) {
  BinaryWriter w;
  w.WriteString("hello world");
  std::vector<uint8_t> buf = w.buffer();
  buf.resize(buf.size() - 4);  // cut into the payload
  BinaryReader r(std::move(buf));
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryReaderHardeningTest, TruncatedVectorRejected) {
  BinaryWriter w;
  w.WriteF32Vector({1.0f, 2.0f, 3.0f});
  std::vector<uint8_t> buf = w.buffer();
  buf.resize(buf.size() - 1);
  BinaryReader r(std::move(buf));
  EXPECT_FALSE(r.ReadF32Vector().ok());
}

TEST(BinaryReaderHardeningTest, ReadBytesPastEndRejected) {
  BinaryReader r(std::vector<uint8_t>{1, 2, 3});
  EXPECT_FALSE(r.ReadBytes(4).ok());
  EXPECT_TRUE(r.ReadBytes(3).ok());
}

// ---------------------------------------------------------------------------
// Artifact round trips
// ---------------------------------------------------------------------------

TEST(SnapshotTest, EmbeddingMatrixRoundTrip) {
  EmbeddingMatrix m(3, 4);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.25f;
  }
  BinaryWriter w;
  m.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = EmbeddingMatrix::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().rows(), 3u);
  EXPECT_EQ(back.value().cols(), 4u);
  EXPECT_EQ(std::memcmp(back.value().data(), m.data(),
                        m.size() * sizeof(float)),
            0);
}

TEST(SnapshotTest, EmbeddingMatrixGeometryMismatchRejected) {
  BinaryWriter w;
  w.WriteU64(3);  // rows
  w.WriteU64(4);  // cols
  w.WriteF32Vector({1, 2, 3});  // only 3 floats instead of 12
  BinaryReader r(w.buffer());
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(&r).ok());
}

TEST(SnapshotTest, LshIndexRoundTripIdenticalQueries) {
  const int dim = 8;
  LshIndex index(dim, 6, 4, /*seed=*/77);
  Rng rng(123);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Insert(i, v).ok());
    vecs.push_back(std::move(v));
  }

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = LshIndex::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(loaded.value().size(), index.size());
  for (const auto& v : vecs) {
    EXPECT_EQ(loaded.value().Query(v), index.Query(v));
  }
}

TEST(SnapshotTest, LshIndexBadGeometryRejected) {
  BinaryWriter w;
  w.WriteI32(-3);  // negative dim
  w.WriteI32(6);
  w.WriteI32(4);
  w.WriteI32(0);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(LshIndex::Deserialize(&r).ok());
}

// A one-table, one-bucket LSH stream over `count` ids whose bucket
// holds `ids` — small enough to forge each corruption by hand.
std::vector<uint8_t> LshStreamWithBucket(int32_t count,
                                         const std::vector<int32_t>& ids) {
  BinaryWriter w;
  w.WriteI32(2);  // dim
  w.WriteI32(1);  // num_bits
  w.WriteI32(1);  // num_tables
  w.WriteI32(count);
  EmbeddingMatrix(1, 2).Serialize(&w);  // hyperplanes: bits*tables x dim
  w.WriteU64(1);  // buckets in table 0
  w.WriteU64(0);  // key
  w.WriteU64(ids.size());
  for (int32_t id : ids) w.WriteI32(id);
  return std::move(w).TakeBuffer();
}

Status DeserializeLsh(const std::vector<uint8_t>& bytes) {
  BinaryReader r(bytes);
  return LshIndex::Deserialize(&r).status();
}

TEST(SnapshotTest, LshIndexHandForgedStreamParses) {
  BinaryReader r(LshStreamWithBucket(3, {0, 1, 2}));
  auto index = LshIndex::Deserialize(&r);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value().QueryByKeys({0}), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(index.value().QueryByKeys({1}).empty());
}

// Bucket ids index the query bitmap, so the parser bounds them: an id
// past count (INT_MAX would mean a 256 MB bitmap per query), a negative
// id, and bucket sizes that do not sum to count are all ParseError.
TEST(SnapshotTest, LshIndexOutOfRangeIdRejected) {
  for (int32_t id : {3, std::numeric_limits<int32_t>::max()}) {
    Status st = DeserializeLsh(LshStreamWithBucket(3, {0, 1, id}));
    EXPECT_EQ(st.code(), StatusCode::kParseError) << id;
    EXPECT_NE(st.message().find("outside [0, 3)"), std::string::npos)
        << st.ToString();
  }
}

TEST(SnapshotTest, LshIndexNegativeIdRejected) {
  for (int32_t id : {-1, std::numeric_limits<int32_t>::min()}) {
    Status st = DeserializeLsh(LshStreamWithBucket(3, {id, 1, 2}));
    EXPECT_EQ(st.code(), StatusCode::kParseError) << id;
  }
}

TEST(SnapshotTest, LshIndexShortBucketSumRejected) {
  Status short_sum = DeserializeLsh(LshStreamWithBucket(3, {0, 1}));
  EXPECT_EQ(short_sum.code(), StatusCode::kParseError);
  EXPECT_NE(short_sum.message().find("holds 2 ids, expected 3"),
            std::string::npos)
      << short_sum.ToString();
  // In range but over-full (a duplicated id) is rejected the same way.
  EXPECT_EQ(DeserializeLsh(LshStreamWithBucket(3, {0, 1, 2, 2})).code(),
            StatusCode::kParseError);
}

TEST(SnapshotTest, TypeInferencerRoundTrip) {
  TypeInferencer typer;
  typer.AddTerm("frobinoxib", SemType::kDrug);
  typer.AddTerm("Graxville", SemType::kPlace);
  BinaryWriter w;
  typer.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = TypeInferencer::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().lexicon_size(), typer.lexicon_size());
  EXPECT_EQ(back.value().InferText("frobinoxib"), SemType::kDrug);
  EXPECT_EQ(back.value().InferText("graxville"), SemType::kPlace);
}

// ---------------------------------------------------------------------------
// TabBiNSystem snapshots + EncoderEngine warm start
// ---------------------------------------------------------------------------

TEST(SnapshotTest, SystemRoundTripBitwiseIdenticalEncodeAll) {
  std::vector<Table> tables = SampleTables();
  TabBiNSystem sys = TabBiNSystem::Create(tables, SnapshotTestConfig());
  sys.typer()->AddTerm("bevacizumab", SemType::kDrug);
  sys.Pretrain(tables);

  const std::string path = "/tmp/tabbin_snap_system.tbsn";
  ASSERT_TRUE(sys.Save(path).ok());
  auto loaded = TabBiNSystem::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().vocab().size(), sys.vocab().size());
  EXPECT_EQ(loaded.value().typer()->lexicon_size(),
            sys.typer()->lexicon_size());
  for (const Table& t : tables) {
    TableEncodings a = sys.EncodeAll(t);
    TableEncodings b = loaded.value().EncodeAll(t);
    for (auto [sa, sb] : {std::pair{&a.row, &b.row}, {&a.col, &b.col},
                          {&a.hmd, &b.hmd}, {&a.vmd, &b.vmd}}) {
      ASSERT_EQ(sa->hidden.rows(), sb->hidden.rows());
      ASSERT_EQ(sa->hidden.cols(), sb->hidden.cols());
      if (sa->hidden.size() == 0) continue;  // empty segment (e.g. no VMD)
      EXPECT_EQ(std::memcmp(sa->hidden.data(), sb->hidden.data(),
                            sa->hidden.size() * sizeof(float)),
                0);
    }
  }
}

TEST(SnapshotTest, SystemLoadRejectsMissingSection) {
  std::vector<Table> tables = SampleTables();
  TabBiNSystem sys = TabBiNSystem::Create(tables, SnapshotTestConfig());
  PagedSnapshotWriter w;
  sys.AppendTo(&w);
  auto full = WriteAndOpen(w, "system_full");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(TabBiNSystem::FromSnapshot(full.value()).ok());
  // Rebuild the snapshot without the VMD model section.
  PagedSnapshotWriter partial;
  for (const std::string& name : full.value().SectionNames()) {
    if (name == "tabbin.model.vmd") continue;
    auto span = full.value().SectionSpan(name);
    ASSERT_TRUE(span.ok());
    partial.AddSection(name)->WriteBytes(span.value().data,
                                         span.value().size);
  }
  auto loaded = WriteAndOpen(partial, "system_partial");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(TabBiNSystem::FromSnapshot(loaded.value()).ok());
}

// The retired v1 stream ("TBSN", version 1, then sections back to back
// under one trailing checksum) is refused with a rebuild hint rather
// than misparsed.
TEST(SnapshotTest, SystemLoadRejectsV1StreamWithRebuildHint) {
  BinaryWriter v1;
  // Corruption fixture: hand-writes the retired v1 header.
  // tabbin-lint: allow(naked-new-sections)
  v1.WriteU32(kSnapshotMagic);
  v1.WriteU32(1);  // format version
  v1.WriteU64(1);  // section count
  v1.WriteString("tabbin.config");
  v1.WriteU64(4);
  v1.WriteU32(16);
  v1.WriteU64(Fnv1a64(v1.buffer().data(), v1.buffer().size()));
  const std::string path = "/tmp/tabbin_snap_v1_model.tbsn";
  ASSERT_TRUE(AtomicWriteFile(path, v1.buffer()).ok());
  auto loaded = TabBiNSystem::Load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("v1"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, SystemLoadRejectsHostileConfig) {
  // A snapshot with a valid checksum but num_heads = 0 used to reach
  // TabBiNConfig::Valid()'s hidden % num_heads and die on SIGFPE.
  PagedSnapshotWriter w;
  BinaryWriter* cfg = w.AddSection("tabbin.config");
  cfg->WriteI32(16);  // hidden
  cfg->WriteI32(1);   // num_layers
  cfg->WriteI32(0);   // num_heads  <- hostile
  cfg->WriteI32(32);  // intermediate
  cfg->WriteF32(0.1f);
  cfg->WriteI32(48);  // max_seq_len
  cfg->WriteI32(64);  // max_cell_tokens
  cfg->WriteI32(256);  // max_tuples
  cfg->WriteI32(10);  // num_numeric_bins
  cfg->WriteI32(8);   // num_cell_features
  cfg->WriteI32(14);  // num_types
  cfg->WriteI32(2);   // pretrain_steps
  cfg->WriteI32(2);   // batch_size
  cfg->WriteF32(1e-3f);
  cfg->WriteF32(0.15f);
  cfg->WriteF32(0.3f);
  for (int i = 0; i < 4; ++i) cfg->WriteU32(1);  // ablation flags
  cfg->WriteU64(17);  // seed
  auto snapshot = WriteAndOpen(w, "hostile_config");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto loaded = TabBiNSystem::FromSnapshot(snapshot.value());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, EncoderEngineWarmStartHitsWithoutForwardPasses) {
  std::vector<Table> tables = SampleTables();
  TabBiNSystem sys = TabBiNSystem::Create(tables, SnapshotTestConfig());
  sys.Pretrain(tables);

  EncoderEngine cold(&sys, 16);
  auto first = cold.EncodeBatch(tables);
  PagedSnapshotWriter w;
  cold.AppendCacheTo(&w);
  auto snapshot = WriteAndOpen(w, "engine");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  EncoderEngine warm(&sys, 16);
  auto warmed = warm.WarmStart(snapshot.value());
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  EXPECT_EQ(warmed.value(), tables.size());

  for (size_t i = 0; i < tables.size(); ++i) {
    auto enc = warm.Encode(tables[i]);
    // Same fingerprint -> pure cache hit, bitwise-equal hidden states.
    ASSERT_EQ(enc->row.hidden.size(), first[i]->row.hidden.size());
    EXPECT_EQ(std::memcmp(enc->row.hidden.data(), first[i]->row.hidden.data(),
                          enc->row.hidden.size() * sizeof(float)),
              0);
  }
  EXPECT_EQ(warm.hits(), tables.size());
  EXPECT_EQ(warm.misses(), 0u);
}

TEST(SnapshotTest, WarmStartRejectsForeignGeometry) {
  std::vector<Table> tables = SampleTables();
  TabBiNSystem sys = TabBiNSystem::Create(tables, SnapshotTestConfig());
  EncoderEngine engine(&sys, 16);
  engine.EncodeBatch(tables);
  PagedSnapshotWriter w;
  engine.AppendCacheTo(&w);
  auto snapshot = WriteAndOpen(w, "engine_geometry");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // A system with a different hidden width must refuse the cache.
  TabBiNConfig other_cfg = SnapshotTestConfig();
  other_cfg.hidden = 24;
  other_cfg.intermediate = 48;
  TabBiNSystem other = TabBiNSystem::Create(tables, other_cfg);
  EncoderEngine mismatched(&other, 16);
  EXPECT_FALSE(mismatched.WarmStart(snapshot.value()).ok());
}

TEST(SnapshotTest, TableEncodingsRoundTripPreservesSequence) {
  std::vector<Table> tables = SampleTables();
  TabBiNSystem sys = TabBiNSystem::Create(tables, SnapshotTestConfig());
  TableEncodings enc = sys.EncodeAll(tables[0]);
  BinaryWriter w;
  SerializeTableEncodings(enc, &w);
  BinaryReader r(w.buffer());
  auto back = DeserializeTableEncodings(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(back.value().col.seq.tokens.size(), enc.col.seq.tokens.size());
  for (size_t i = 0; i < enc.col.seq.tokens.size(); ++i) {
    const TokenFeatures& a = enc.col.seq.tokens[i];
    const TokenFeatures& b = back.value().col.seq.tokens[i];
    EXPECT_EQ(a.token_id, b.token_id);
    EXPECT_EQ(a.type_id, b.type_id);
    EXPECT_EQ(a.fmt_bits, b.fmt_bits);
    EXPECT_EQ(a.position.row, b.position.row);
    EXPECT_EQ(a.position.is_cls, b.position.is_cls);
  }
  ASSERT_EQ(back.value().col.seq.cell_spans.size(),
            enc.col.seq.cell_spans.size());
  EXPECT_EQ(back.value().col.seq.line_cls, enc.col.seq.line_cls);
}

// ---------------------------------------------------------------------------
// RAG grounding index
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RagIndexRoundTripIdenticalRanking) {
  std::vector<RagDocument> docs = {
      {"metastatic colorectal cancer survival", "oncology"},
      {"colorectal cancer progression free survival", "oncology"},
      {"influenza vaccine efficacy trial", "vaccines"},
      {"vaccine dose response influenza", "vaccines"},
      {"county population census households", "census"},
      {"census household income by county", "census"},
  };
  EmbeddingMatrix dense(docs.size(), 4);
  Rng rng(9);
  for (size_t i = 0; i < dense.size(); ++i) {
    dense.data()[i] = static_cast<float>(rng.Gaussian());
  }

  RagLlmSimulator a(ProfileFor("gpt4+rag"), /*seed=*/31);
  ASSERT_TRUE(a.Index(docs, dense).ok());
  BinaryWriter w;
  a.SerializeIndex(&w);

  RagLlmSimulator b(ProfileFor("gpt4+rag"), /*seed=*/31);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(b.DeserializeIndex(&r).ok());
  EXPECT_TRUE(r.AtEnd());

  for (int q = 0; q < static_cast<int>(docs.size()); ++q) {
    EXPECT_EQ(a.RankFor(q, 4), b.RankFor(q, 4)) << "query " << q;
  }
}

TEST(SnapshotTest, RagIndexRejectsMismatchedDense) {
  BinaryWriter w;
  w.WriteU64(2);
  for (int i = 0; i < 2; ++i) {
    w.WriteString("doc");
    w.WriteString("label");
  }
  EmbeddingMatrix dense(5, 3);  // 5 rows for 2 docs
  dense.Serialize(&w);
  RagLlmSimulator sim(ProfileFor("gpt4+rag"));
  BinaryReader r(w.buffer());
  EXPECT_EQ(sim.DeserializeIndex(&r).code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace tabbin
