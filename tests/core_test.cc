// Tests for the TabBiN core: input building, embedding layer, model
// forward passes, masking, pre-training convergence and composite
// embeddings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "core/input_builder.h"
#include "core/pretrainer.h"
#include "core/tabbin.h"
#include "test_tables.h"
#include "text/wordpiece.h"

namespace tabbin {
namespace {

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 96;
  cfg.pretrain_steps = 30;
  cfg.batch_size = 2;
  cfg.learning_rate = 2e-3f;
  return cfg;
}

Vocab FixtureVocab() {
  std::vector<std::string> texts;
  for (const Table* t : {new Table(MakeOncologyTable()),
                         new Table(MakeRelationalTable())}) {
    for (int r = 0; r < t->rows(); ++r) {
      for (int c = 0; c < t->cols(); ++c) {
        if (!t->cell(r, c).value.is_empty()) {
          texts.push_back(t->cell(r, c).value.ToString());
        }
      }
    }
    delete t;
  }
  return TrainWordPieceVocab(texts, 2000, 1);
}

// ---------------------------------------------------------------------------
// Numeric features
// ---------------------------------------------------------------------------

TEST(NumericFeaturesTest, PaperExample20Point3) {
  // Paper: 20.3 -> (magnitude, precision, first, last) = (2, 2, 2, 3).
  // (Magnitude = integer digits; the paper encodes 2. Precision: the
  // paper's tokenizer sees "20.3" with one decimal digit but reports 2 —
  // we follow the digit count convention: precision("20.3") = 1.)
  int mag, pre, fst, lst;
  NumericFeatures(20.3, 10, &mag, &pre, &fst, &lst);
  EXPECT_EQ(mag, 2);
  EXPECT_EQ(pre, 1);
  EXPECT_EQ(fst, 2);
  EXPECT_EQ(lst, 3);
}

TEST(NumericFeaturesTest, IntegerAndFraction) {
  int mag, pre, fst, lst;
  NumericFeatures(1234, 10, &mag, &pre, &fst, &lst);
  EXPECT_EQ(mag, 4);
  EXPECT_EQ(pre, 0);
  EXPECT_EQ(fst, 1);
  EXPECT_EQ(lst, 4);
  NumericFeatures(0.25, 10, &mag, &pre, &fst, &lst);
  EXPECT_EQ(mag, 0);
  EXPECT_EQ(pre, 2);
  EXPECT_EQ(fst, 0);  // leading zero of "0.25"
  EXPECT_EQ(lst, 5);
}

TEST(NumericFeaturesTest, ClampsToBins) {
  int mag, pre, fst, lst;
  NumericFeatures(1e15, 10, &mag, &pre, &fst, &lst);
  EXPECT_LT(mag, 10);
  NumericFeatures(-7.5, 10, &mag, &pre, &fst, &lst);
  EXPECT_EQ(fst, 7);  // sign ignored
}

// ---------------------------------------------------------------------------
// Input builder
// ---------------------------------------------------------------------------

TEST(InputBuilderTest, DataRowSequenceStructure) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;  // no truncation for this test
  Table t = MakeRelationalTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  // 3 data rows -> 3 [CLS] tokens.
  EXPECT_EQ(seq.line_cls.size(), 3u);
  EXPECT_EQ(seq.tokens[0].token_id, Vocab::kClsId);
  // Numbers became [VAL] with numeric features.
  bool saw_val = false;
  for (const auto& tok : seq.tokens) {
    if (tok.token_id == Vocab::kValId) {
      saw_val = true;
      EXPECT_GE(tok.magnitude, 0);
    }
  }
  EXPECT_TRUE(saw_val);
  // 9 data cells -> 9 cell spans.
  EXPECT_EQ(seq.cell_spans.size(), 9u);
}

TEST(InputBuilderTest, HmdSequenceCoversHeaderOnly) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kHmd, vocab, typer, cfg);
  for (const auto& span : seq.cell_spans) {
    EXPECT_LT(span.row, t.hmd_rows());
    EXPECT_GE(span.col, t.vmd_cols());
  }
  EXPECT_EQ(seq.line_cls.size(), 2u);  // two HMD rows
}

TEST(InputBuilderTest, VmdSequenceColumnMajor) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kVmd, vocab, typer, cfg);
  EXPECT_EQ(seq.line_cls.size(), 2u);  // two VMD columns
  for (const auto& span : seq.cell_spans) {
    EXPECT_LT(span.col, t.vmd_cols());
    EXPECT_GE(span.row, t.hmd_rows());
  }
}

TEST(InputBuilderTest, NestedTableInlinedWithNestedCoords) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  // Find tokens with nested coordinates: they exist and carry bit 7.
  int nested_tokens = 0;
  for (const auto& tok : seq.tokens) {
    if (tok.nr > 0 || tok.nc > 0) {
      ++nested_tokens;
      EXPECT_TRUE(tok.fmt_bits & 0x80);
      EXPECT_GE(tok.nr, 1);  // 1-based
      EXPECT_GE(tok.nc, 1);
    }
  }
  EXPECT_GT(nested_tokens, 0);
  // Host cell (2,7) has the nested bit even on its own tokens.
  for (const auto& span : seq.cell_spans) {
    if (span.row == 2 && span.col == 7) {
      EXPECT_TRUE(span.nested);
    }
  }
}

TEST(InputBuilderTest, BiDimensionalCoordinatesOnTokens) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  for (const auto& span : seq.cell_spans) {
    if (span.row == 2 && span.col == 7) {
      const TokenFeatures& tok = seq.tokens[static_cast<size_t>(span.begin)];
      EXPECT_EQ(tok.hr, 2);  // h-level 2 (Efficacy End Point -> Other Eff.)
      EXPECT_EQ(tok.hc, 8);  // 1-based column
      EXPECT_EQ(tok.vc, 2);  // v-level 2
      EXPECT_EQ(tok.vr, 3);  // 1-based row
    }
  }
}

TEST(InputBuilderTest, UnitTokensFollowValues) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeRelationalTable();
  t.SetValue(1, 1, Value::Number(20.3, UnitCategory::kTime, "month"));
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  // Find a [VAL] followed by the "month" token within the same cell.
  const int month_id = vocab.GetId("month");
  bool found = false;
  for (size_t i = 0; i + 1 < seq.tokens.size(); ++i) {
    if (seq.tokens[i].token_id == Vocab::kValId &&
        seq.tokens[i + 1].token_id == month_id) {
      found = true;
      // The cell carries the time-unit feature bit (bit 4).
      EXPECT_TRUE(seq.tokens[i].fmt_bits & (1u << 4));
    }
  }
  EXPECT_TRUE(found);
}

TEST(InputBuilderTest, RespectsMaxSeqLen) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 20;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  EXPECT_LE(seq.size(), 20);
}

TEST(InputBuilderTest, RangeEmitsTwoValTokens) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t(2, 1, 1, 0);
  t.SetValue(0, 0, Value::String("Age"));
  t.SetValue(1, 0, Value::Range(20, 30, UnitCategory::kTime, "year"));
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  int vals = 0;
  std::set<int> magnitudes;
  for (const auto& tok : seq.tokens) {
    if (tok.token_id == Vocab::kValId) {
      ++vals;
      magnitudes.insert(tok.magnitude);
    }
  }
  EXPECT_EQ(vals, 2);  // range start and end, distinct numeric features
}

TEST(InputBuilderTest, EmptySegmentYieldsEmptySequence) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  Table t = MakeRelationalTable();  // no VMD
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kVmd, vocab, typer, TinyConfig());
  EXPECT_TRUE(seq.empty());
}

TEST(InputBuilderTest, VisibilityClsPerLine) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  Table t = MakeRelationalTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  VisibilityMatrix vis = BuildSequenceVisibility(seq);
  // All [CLS] tokens see each other.
  for (auto [i1, l1] : seq.line_cls) {
    for (auto [i2, l2] : seq.line_cls) {
      EXPECT_TRUE(vis.visible(i1, i2));
    }
  }
  // Tokens in different rows AND different columns are hidden.
  // (Sam at (1,0) vs 29 at (2,1).)
  int sam_idx = -1, num29_idx = -1;
  for (const auto& span : seq.cell_spans) {
    if (span.row == 1 && span.col == 0) sam_idx = span.begin;
    if (span.row == 2 && span.col == 1) num29_idx = span.begin;
  }
  ASSERT_GE(sam_idx, 0);
  ASSERT_GE(num29_idx, 0);
  EXPECT_FALSE(vis.visible(sam_idx, num29_idx));
}

// ---------------------------------------------------------------------------
// Masking
// ---------------------------------------------------------------------------

TEST(MaskingTest, MasksRoughlyMlmFraction) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  cfg.clc_probability = 0.0f;
  Table t = MakeOncologyTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  Rng rng(5);
  int total_masked = 0, trials = 50;
  for (int i = 0; i < trials; ++i) {
    MaskedExample ex = ApplyMasking(seq, cfg, vocab.size(), &rng);
    total_masked += ex.num_masked;
    // Targets align with masked count.
    int targets = 0;
    for (int t2 : ex.token_targets) {
      if (t2 >= 0) ++targets;
    }
    EXPECT_EQ(targets, ex.num_masked);
  }
  const double rate = static_cast<double>(total_masked) /
                      (static_cast<double>(trials) * seq.size());
  EXPECT_GT(rate, 0.08);
  EXPECT_LT(rate, 0.25);
}

TEST(MaskingTest, ClcMasksWholeCell) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  cfg.mlm_probability = 0.0f;
  cfg.clc_probability = 1.0f;
  Table t = MakeRelationalTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  Rng rng(6);
  MaskedExample ex = ApplyMasking(seq, cfg, vocab.size(), &rng);
  ASSERT_GT(ex.num_masked, 0);
  // Exactly one cell span fully masked.
  int fully_masked_cells = 0;
  for (const auto& span : seq.cell_spans) {
    bool all = true;
    for (int i = span.begin; i < span.end; ++i) {
      if (ex.seq.tokens[static_cast<size_t>(i)].token_id != Vocab::kMaskId &&
          seq.tokens[static_cast<size_t>(i)].token_id != Vocab::kSepId) {
        all = false;
      }
    }
    if (all) ++fully_masked_cells;
  }
  EXPECT_EQ(fully_masked_cells, 1);
}

TEST(MaskingTest, SpecialTokensNeverMaskedByMlm) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  cfg.max_seq_len = 512;
  cfg.mlm_probability = 1.0f;  // mask everything eligible
  cfg.clc_probability = 0.0f;
  Table t = MakeRelationalTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  Rng rng(7);
  MaskedExample ex = ApplyMasking(seq, cfg, vocab.size(), &rng);
  for (size_t i = 0; i < seq.tokens.size(); ++i) {
    const int orig = seq.tokens[i].token_id;
    if (orig == Vocab::kClsId || orig == Vocab::kSepId) {
      EXPECT_EQ(ex.seq.tokens[i].token_id, orig);
      EXPECT_EQ(ex.token_targets[i], -1);
    }
  }
}

// ---------------------------------------------------------------------------
// Model + system
// ---------------------------------------------------------------------------

TEST(ModelTest, EncodeShapes) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  TabBiNConfig cfg = TinyConfig();
  Rng rng(cfg.seed);
  TabBiNModel model(cfg, vocab.size(), TabBiNVariant::kDataRow, &rng);
  Table t = MakeRelationalTable();
  EncodedSequence seq =
      BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
  NoGradGuard guard;
  Tensor h = model.Encode(seq);
  EXPECT_EQ(h.dim(0), seq.size());
  EXPECT_EQ(h.dim(1), cfg.hidden);
  Tensor logits = model.MlmLogits(h);
  EXPECT_EQ(logits.dim(1), vocab.size());
  Tensor nlogits = model.NumericLogits(h);
  EXPECT_EQ(nlogits.dim(1), cfg.num_numeric_bins);
}

TEST(ModelTest, AblationFlagsChangeOutput) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  Table t = MakeOncologyTable();

  auto encode_mean = [&](const TabBiNConfig& cfg) {
    Rng rng(cfg.seed);
    TabBiNModel model(cfg, vocab.size(), TabBiNVariant::kDataRow, &rng);
    EncodedSequence seq =
        BuildSequence(t, TabBiNVariant::kDataRow, vocab, typer, cfg);
    NoGradGuard guard;
    Tensor h = model.Encode(seq);
    double sum = 0;
    for (size_t i = 0; i < h.size(); ++i) sum += h.data()[i];
    return sum;
  };

  TabBiNConfig base = TinyConfig();
  const double full = encode_mean(base);
  for (auto* flag :
       {&base.use_visibility_matrix, &base.use_type_inference,
        &base.use_units_nesting, &base.use_bidimensional_coords}) {
    TabBiNConfig ablated = TinyConfig();
    // Point into the fresh copy at the same member offset.
    auto offset = reinterpret_cast<char*>(flag) -
                  reinterpret_cast<char*>(&base);
    *reinterpret_cast<bool*>(reinterpret_cast<char*>(&ablated) + offset) =
        false;
    EXPECT_NE(encode_mean(ablated), full);
  }
}

// Encode without a tape runs the tape-free inference path; with the
// tape recording it runs the autograd ops. The two must agree bit for
// bit — the contract that keeps every served embedding unchanged — over
// the serving geometry and TinyConfig, 1 and 2 layers, 1 to 3 heads,
// each ablation flag off (the visibility flag leaves no attention bias)
// and every sequence length up to max_seq_len.
TEST(ModelTest, InferencePathIsBitIdenticalToTape) {
  Vocab vocab = FixtureVocab();
  TypeInferencer typer;
  // A long token stream: every segment of both fixture tables, repeated
  // until it covers the longest max_seq_len below.
  TabBiNConfig build_cfg = TinyConfig();
  build_cfg.max_seq_len = 512;
  std::vector<TokenFeatures> stream;
  while (stream.size() < 96) {
    for (const Table& t : {MakeOncologyTable(), MakeRelationalTable()}) {
      for (TabBiNVariant v :
           {TabBiNVariant::kDataRow, TabBiNVariant::kDataColumn,
            TabBiNVariant::kHmd, TabBiNVariant::kVmd}) {
        EncodedSequence seq = BuildSequence(t, v, vocab, typer, build_cfg);
        stream.insert(stream.end(), seq.tokens.begin(), seq.tokens.end());
      }
    }
  }

  std::vector<std::pair<std::string, TabBiNConfig>> cases;
  cases.emplace_back("tiny", TinyConfig());
  TabBiNConfig serving = TinyConfig();
  serving.hidden = 36;
  serving.num_heads = 2;
  serving.intermediate = 72;
  cases.emplace_back("serving", serving);
  serving.num_layers = 2;
  cases.emplace_back("serving-2-layers", serving);
  for (int heads : {1, 3}) {
    TabBiNConfig cfg = TinyConfig();
    cfg.num_heads = heads;
    cases.emplace_back("heads-" + std::to_string(heads), cfg);
  }
  TabBiNConfig two_layers = TinyConfig();
  two_layers.num_layers = 2;
  cases.emplace_back("tiny-2-layers", two_layers);
  for (int flag = 0; flag < 4; ++flag) {
    TabBiNConfig cfg = TinyConfig();
    bool* flags[] = {&cfg.use_visibility_matrix, &cfg.use_type_inference,
                     &cfg.use_units_nesting, &cfg.use_bidimensional_coords};
    *flags[flag] = false;
    cases.emplace_back("ablation-" + std::to_string(flag), cfg);
  }

  for (const auto& [name, cfg] : cases) {
    ASSERT_TRUE(cfg.Valid()) << name;
    Rng rng(cfg.seed);
    TabBiNModel model(cfg, vocab.size(), TabBiNVariant::kDataRow, &rng);
    // Perturb every parameter so biases, LayerNorm gains and shifts are
    // not their zero / one initial values.
    Rng noise(7);
    for (auto& [param, t] : model.Parameters()) {
      Tensor handle = t;
      for (float& x : handle.vec()) {
        x += 0.1f * static_cast<float>(noise.Gaussian());
      }
    }
    ASSERT_GE(static_cast<int>(stream.size()), cfg.max_seq_len);
    for (int len = 1; len <= cfg.max_seq_len; ++len) {
      EncodedSequence seq;
      seq.tokens.assign(stream.begin(), stream.begin() + len);
      ASSERT_TRUE(NoGradGuard::GradEnabled());
      const Tensor tape = model.Encode(seq);
      Tensor fast;
      {
        NoGradGuard guard;
        fast = model.Encode(seq);
      }
      ASSERT_EQ(tape.shape(), fast.shape()) << name << " len " << len;
      ASSERT_EQ(std::memcmp(tape.data(), fast.data(),
                            tape.size() * sizeof(float)),
                0)
          << name << " len " << len;
    }
  }
}

TEST(ModelTest, SaveLoadRoundTrip) {
  Vocab vocab = FixtureVocab();
  TabBiNConfig cfg = TinyConfig();
  Rng rng(1);
  TabBiNModel a(cfg, vocab.size(), TabBiNVariant::kHmd, &rng);
  BinaryWriter w;
  SerializeParameters(a.Parameters(), &w);
  Rng rng2(2);
  TabBiNModel b(cfg, vocab.size(), TabBiNVariant::kHmd, &rng2);
  auto pb = b.Parameters();
  BinaryReader r(w.buffer());
  ASSERT_TRUE(DeserializeParameters(&r, &pb).ok());
  auto pa = a.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (auto& [name, t] : pa) {
    const Tensor& u = pb.at(name);
    for (size_t i = 0; i < t.size(); ++i) {
      ASSERT_FLOAT_EQ(t.data()[i], u.data()[i]) << name;
    }
  }
}

TEST(SystemTest, PretrainingReducesLoss) {
  std::vector<Table> corpus;
  for (int i = 0; i < 4; ++i) {
    corpus.push_back(MakeOncologyTable());
    corpus.push_back(MakeRelationalTable());
  }
  TabBiNConfig cfg = TinyConfig();
  cfg.pretrain_steps = 40;
  TabBiNSystem sys = TabBiNSystem::Create(corpus, cfg);
  auto stats = sys.Pretrain(corpus);
  ASSERT_EQ(stats.size(), 4u);
  // Data-row model must improve substantially.
  EXPECT_GT(stats[0].initial_loss, stats[0].final_loss);
}

TEST(SystemTest, CompositeEmbeddingDimensions) {
  std::vector<Table> corpus = {MakeOncologyTable(), MakeRelationalTable()};
  TabBiNConfig cfg = TinyConfig();
  cfg.pretrain_steps = 2;
  TabBiNSystem sys = TabBiNSystem::Create(corpus, cfg);
  sys.Pretrain(corpus);

  Table t = MakeOncologyTable();
  TableEncodings enc = sys.EncodeAll(t);
  const int h = cfg.hidden;
  EXPECT_EQ(sys.ColumnComposite(enc, 3).size(), static_cast<size_t>(2 * h));
  EXPECT_EQ(sys.ColumnSingle(enc, 3).size(), static_cast<size_t>(h));
  EXPECT_EQ(sys.TableComposite1(enc).size(), static_cast<size_t>(3 * h));
  EXPECT_EQ(sys.TableComposite2(enc, {}).size(), static_cast<size_t>(4 * h));
  EXPECT_EQ(sys.EntityEmbedding(enc, 2, 2).size(), static_cast<size_t>(h));
  EXPECT_EQ(sys.NumericAttributeComposite(t, enc, 2, 2).size(),
            static_cast<size_t>(3 * h));
  EXPECT_EQ(sys.RangeComposite(t, enc, 3, 4).size(),
            static_cast<size_t>(4 * h));
}

TEST(SystemTest, EmbeddingsNonTrivial) {
  std::vector<Table> corpus = {MakeOncologyTable(), MakeRelationalTable()};
  TabBiNConfig cfg = TinyConfig();
  cfg.pretrain_steps = 2;
  TabBiNSystem sys = TabBiNSystem::Create(corpus, cfg);
  sys.Pretrain(corpus);
  Table t = MakeOncologyTable();
  TableEncodings enc = sys.EncodeAll(t);
  auto e1 = sys.ColumnComposite(enc, 2);
  auto e2 = sys.ColumnComposite(enc, 7);
  double norm1 = 0, diff = 0;
  for (size_t i = 0; i < e1.size(); ++i) {
    norm1 += e1[i] * e1[i];
    diff += (e1[i] - e2[i]) * (e1[i] - e2[i]);
  }
  EXPECT_GT(norm1, 0.0);
  EXPECT_GT(diff, 0.0);  // distinct columns embed differently
}

TEST(SystemTest, RelationalTableVmdEncodingEmpty) {
  std::vector<Table> corpus = {MakeRelationalTable()};
  TabBiNConfig cfg = TinyConfig();
  TabBiNSystem sys = TabBiNSystem::Create(corpus, cfg);
  TableEncodings enc = sys.EncodeAll(MakeRelationalTable());
  EXPECT_TRUE(enc.vmd.empty());
  // TableComposite1 still returns a full-width vector (VMD part zeros).
  auto e = sys.TableComposite1(enc);
  EXPECT_EQ(e.size(), static_cast<size_t>(3 * cfg.hidden));
}

}  // namespace
}  // namespace tabbin
