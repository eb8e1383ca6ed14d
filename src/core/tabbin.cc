#include "core/tabbin.h"

#include <cmath>
#include <functional>

#include "store/generation.h"
#include "text/wordpiece.h"

namespace tabbin {

namespace {

// Collects all textual content of a table (recursively through nesting)
// for vocabulary training.
void CollectTexts(const Table& table, std::vector<std::string>* out) {
  if (!table.caption().empty()) out->push_back(table.caption());
  for (int r = 0; r < table.rows(); ++r) {
    for (int c = 0; c < table.cols(); ++c) {
      const Cell& cell = table.cell(r, c);
      if (!cell.value.is_empty()) out->push_back(cell.value.ToString());
      if (cell.has_nested()) CollectTexts(*cell.nested, out);
    }
  }
}

}  // namespace

std::vector<float> ConcatEmbeddings(const std::vector<VecView>& parts) {
  // Each component is L2-normalized before concatenation so that cosine
  // similarity over the composite weighs every component equally — a
  // high-norm but noisy part (e.g. an undertrained metadata model) must
  // not dominate the similarity.
  std::vector<float> out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (VecView p : parts) {
    double norm = 0;
    for (float v : p) norm += static_cast<double>(v) * v;
    const float inv =
        norm > 0 ? static_cast<float>(1.0 / std::sqrt(norm)) : 0.0f;
    for (float v : p) out.push_back(v * inv);
  }
  return out;
}

TabBiNSystem TabBiNSystem::Create(const std::vector<Table>& sample,
                                  const TabBiNConfig& config) {
  std::vector<std::string> texts;
  for (const auto& t : sample) CollectTexts(t, &texts);
  Vocab vocab = TrainWordPieceVocab(texts, /*max_size=*/8000, /*min_count=*/2);
  return TabBiNSystem(config, std::move(vocab));
}

TabBiNSystem::TabBiNSystem(const TabBiNConfig& config, Vocab vocab,
                           bool init_params)
    : config_(config), vocab_(std::move(vocab)) {
  Rng rng(config.seed);
  for (int v = 0; v < 4; ++v) {
    models_[static_cast<size_t>(v)] = std::make_unique<TabBiNModel>(
        config, vocab_.size(), static_cast<TabBiNVariant>(v),
        init_params ? &rng : nullptr);
  }
}

std::vector<PretrainStats> TabBiNSystem::Pretrain(
    const std::vector<Table>& tables) {
  std::vector<PretrainStats> stats;
  for (int v = 0; v < 4; ++v) {
    Pretrainer trainer(models_[static_cast<size_t>(v)].get(), &vocab_,
                       &typer_);
    stats.push_back(trainer.Train(tables));
  }
  return stats;
}

SegmentEncoding TabBiNSystem::EncodeSegment(const Table& table,
                                            TabBiNVariant variant) const {
  SegmentEncoding enc;
  enc.seq = BuildSequence(table, variant, vocab_, typer_, config_);
  if (enc.seq.empty()) return enc;
  NoGradGuard guard;
  Tensor hidden = models_[static_cast<size_t>(variant)]->Encode(enc.seq);
  // The encoder output is already one flat [n, hidden] block; adopt it
  // wholesale instead of copying it out row by row.
  enc.hidden.Assign(static_cast<size_t>(hidden.dim(0)),
                    static_cast<size_t>(hidden.dim(1)), hidden.data());
  return enc;
}

TableEncodings TabBiNSystem::EncodeAll(const Table& table) const {
  TableEncodings enc;
  enc.row = EncodeSegment(table, TabBiNVariant::kDataRow);
  enc.col = EncodeSegment(table, TabBiNVariant::kDataColumn);
  enc.hmd = EncodeSegment(table, TabBiNVariant::kHmd);
  enc.vmd = EncodeSegment(table, TabBiNVariant::kVmd);
  return enc;
}

std::vector<float> TabBiNSystem::PoolCells(
    const SegmentEncoding& enc,
    const std::function<bool(const CellSpan&)>& cell_filter) const {
  std::vector<float> sum(static_cast<size_t>(config_.hidden), 0.0f);
  int count = 0;
  for (const CellSpan& span : enc.seq.cell_spans) {
    if (!cell_filter(span)) continue;
    for (int i = span.begin;
         i < span.end && i < static_cast<int>(enc.hidden.rows()); ++i) {
      const float* h = enc.hidden.row(static_cast<size_t>(i)).data();
      for (size_t d = 0; d < sum.size(); ++d) sum[d] += h[d];
      ++count;
    }
  }
  if (count > 0) {
    for (auto& v : sum) v /= static_cast<float>(count);
  }
  return sum;
}

std::vector<float> TabBiNSystem::MeanAllTokens(
    const SegmentEncoding& enc) const {
  return PoolCells(enc, [](const CellSpan&) { return true; });
}

std::vector<float> TabBiNSystem::ColumnComposite(const TableEncodings& enc,
                                                 int col) const {
  // E_cj: tokens of the column's header cells from the HMD model.
  std::vector<float> attr = PoolCells(
      enc.hmd, [col](const CellSpan& s) { return s.col == col; });
  // mean(E_d): tokens of the column's data cells from the column model.
  std::vector<float> data = PoolCells(
      enc.col, [col](const CellSpan& s) { return s.col == col; });
  return ConcatEmbeddings({attr, data});
}

std::vector<float> TabBiNSystem::ColumnSingle(const TableEncodings& enc,
                                              int col) const {
  return PoolCells(enc.col,
                   [col](const CellSpan& s) { return s.col == col; });
}

std::vector<float> TabBiNSystem::TableComposite1(
    const TableEncodings& enc) const {
  return ConcatEmbeddings({MeanAllTokens(enc.row), MeanAllTokens(enc.hmd),
                           MeanAllTokens(enc.vmd)});
}

std::vector<float> TabBiNSystem::TableComposite2(
    const TableEncodings& enc, const std::vector<float>& caption_emb) const {
  std::vector<float> caption = caption_emb;
  caption.resize(static_cast<size_t>(config_.hidden), 0.0f);
  return ConcatEmbeddings({MeanAllTokens(enc.row), MeanAllTokens(enc.hmd),
                           MeanAllTokens(enc.vmd), caption});
}

std::vector<float> TabBiNSystem::TableSingle(const TableEncodings& enc) const {
  return MeanAllTokens(enc.row);
}

std::vector<float> TabBiNSystem::EntityEmbedding(const TableEncodings& enc,
                                                 int row, int col) const {
  return PoolCells(enc.col, [row, col](const CellSpan& s) {
    return s.row == row && s.col == col;
  });
}

std::vector<float> TabBiNSystem::NumericAttributeComposite(
    const Table& table, const TableEncodings& enc, int row, int col) const {
  (void)table;
  std::vector<float> attr = PoolCells(
      enc.hmd, [col](const CellSpan& s) { return s.col == col; });
  std::vector<float> value = PoolCells(enc.col, [row, col](const CellSpan& s) {
    return s.row == row && s.col == col;
  });
  // Unit embedding: the token embedding of the unit's canonical spelling,
  // read through the column model's embedding layer output at the cell.
  // The cell pooling above already covers value+unit tokens; Fig. 4(a)
  // separates them, so embed the unit text standalone.
  std::vector<float> unit(static_cast<size_t>(config_.hidden), 0.0f);
  const Value& v = table.cell(row, col).value;
  if (v.has_unit()) {
    // A one-cell pseudo-table would be heavyweight; instead reuse the
    // value cell pooling restricted to non-[VAL] tokens.
    int count = 0;
    for (const CellSpan& span : enc.col.seq.cell_spans) {
      if (span.row != row || span.col != col) continue;
      for (int i = span.begin;
           i < span.end && i < static_cast<int>(enc.col.hidden.rows()); ++i) {
        if (enc.col.seq.tokens[static_cast<size_t>(i)].token_id ==
            Vocab::kValId) {
          continue;
        }
        const float* hh = enc.col.hidden.row(static_cast<size_t>(i)).data();
        for (size_t d = 0; d < unit.size(); ++d) unit[d] += hh[d];
        ++count;
      }
    }
    if (count > 0) {
      for (auto& x : unit) x /= static_cast<float>(count);
    }
  }
  return ConcatEmbeddings({attr, value, unit});
}

std::vector<float> TabBiNSystem::RangeComposite(const Table& table,
                                                const TableEncodings& enc,
                                                int row, int col) const {
  std::vector<float> attr = PoolCells(
      enc.hmd, [col](const CellSpan& s) { return s.col == col; });
  // Start / end are the first / second [VAL] tokens of the cell; the unit
  // is the remaining non-[VAL] tokens.
  std::vector<float> unit(static_cast<size_t>(config_.hidden), 0.0f);
  std::vector<float> start(static_cast<size_t>(config_.hidden), 0.0f);
  std::vector<float> end(static_cast<size_t>(config_.hidden), 0.0f);
  int unit_count = 0, val_seen = 0;
  for (const CellSpan& span : enc.col.seq.cell_spans) {
    if (span.row != row || span.col != col) continue;
    for (int i = span.begin;
         i < span.end && i < static_cast<int>(enc.col.hidden.rows()); ++i) {
      VecView h = enc.col.hidden.row(static_cast<size_t>(i));
      if (enc.col.seq.tokens[static_cast<size_t>(i)].token_id ==
          Vocab::kValId) {
        if (val_seen == 0) {
          start = h.ToVector();
        } else if (val_seen == 1) {
          end = h.ToVector();
        }
        ++val_seen;
      } else {
        for (size_t d = 0; d < unit.size(); ++d) unit[d] += h[d];
        ++unit_count;
      }
    }
  }
  if (unit_count > 0) {
    for (auto& x : unit) x /= static_cast<float>(unit_count);
  }
  (void)table;
  return ConcatEmbeddings({attr, unit, start, end});
}

// --- Persistence --------------------------------------------------------

namespace {

void SerializeConfig(const TabBiNConfig& c, BinaryWriter* w) {
  w->WriteI32(c.hidden);
  w->WriteI32(c.num_layers);
  w->WriteI32(c.num_heads);
  w->WriteI32(c.intermediate);
  w->WriteF32(c.dropout);
  w->WriteI32(c.max_seq_len);
  w->WriteI32(c.max_cell_tokens);
  w->WriteI32(c.max_tuples);
  w->WriteI32(c.num_numeric_bins);
  w->WriteI32(c.num_cell_features);
  w->WriteI32(c.num_types);
  w->WriteI32(c.pretrain_steps);
  w->WriteI32(c.batch_size);
  w->WriteF32(c.learning_rate);
  w->WriteF32(c.mlm_probability);
  w->WriteF32(c.clc_probability);
  w->WriteU32(c.use_visibility_matrix ? 1 : 0);
  w->WriteU32(c.use_type_inference ? 1 : 0);
  w->WriteU32(c.use_units_nesting ? 1 : 0);
  w->WriteU32(c.use_bidimensional_coords ? 1 : 0);
  w->WriteU64(c.seed);
}

Result<TabBiNConfig> DeserializeConfig(BinaryReader* r) {
  TabBiNConfig c;
  TABBIN_ASSIGN_OR_RETURN(c.hidden, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.num_layers, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.num_heads, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.intermediate, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.dropout, r->ReadF32());
  TABBIN_ASSIGN_OR_RETURN(c.max_seq_len, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.max_cell_tokens, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.max_tuples, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.num_numeric_bins, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.num_cell_features, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.num_types, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.pretrain_steps, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.batch_size, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(c.learning_rate, r->ReadF32());
  TABBIN_ASSIGN_OR_RETURN(c.mlm_probability, r->ReadF32());
  TABBIN_ASSIGN_OR_RETURN(c.clc_probability, r->ReadF32());
  uint32_t flag = 0;
  TABBIN_ASSIGN_OR_RETURN(flag, r->ReadU32());
  c.use_visibility_matrix = flag != 0;
  TABBIN_ASSIGN_OR_RETURN(flag, r->ReadU32());
  c.use_type_inference = flag != 0;
  TABBIN_ASSIGN_OR_RETURN(flag, r->ReadU32());
  c.use_units_nesting = flag != 0;
  TABBIN_ASSIGN_OR_RETURN(flag, r->ReadU32());
  c.use_bidimensional_coords = flag != 0;
  TABBIN_ASSIGN_OR_RETURN(c.seed, r->ReadU64());
  // Bounds come first: Valid() divides by num_heads (0 would be SIGFPE,
  // not a Status), and unbounded geometry would allocate multi-GB models
  // before any parameter check runs. 1<<20 is far beyond any real
  // configuration of this system.
  constexpr int kMaxDim = 1 << 20;
  for (int field :
       {c.hidden, c.num_layers, c.num_heads, c.intermediate, c.max_seq_len,
        c.max_cell_tokens, c.max_tuples, c.num_numeric_bins,
        c.num_cell_features, c.num_types}) {
    if (field <= 0 || field > kMaxDim) {
      return Status::ParseError("snapshot carries an invalid TabBiN config");
    }
  }
  if (!c.Valid()) {
    return Status::ParseError("snapshot carries an invalid TabBiN config");
  }
  return c;
}

}  // namespace

void TabBiNSystem::AppendTo(PagedSnapshotWriter* snapshot) const {
  SerializeConfig(config_, snapshot->AddSection("tabbin.config"));
  vocab_.Serialize(snapshot->AddSection("tabbin.vocab"));
  typer_.Serialize(snapshot->AddSection("tabbin.typer"));
  for (int v = 0; v < 4; ++v) {
    const auto variant = static_cast<TabBiNVariant>(v);
    SerializeParameters(
        model(variant)->Parameters(),
        snapshot->AddSection(std::string("tabbin.model.") +
                             TabBiNVariantName(variant)));
  }
}

Result<TabBiNSystem> TabBiNSystem::FromSnapshot(
    const PagedSnapshotReader& snapshot) {
  TABBIN_ASSIGN_OR_RETURN(BinaryReader cfg_r,
                          snapshot.Section("tabbin.config"));
  TABBIN_ASSIGN_OR_RETURN(TabBiNConfig config, DeserializeConfig(&cfg_r));
  TABBIN_ASSIGN_OR_RETURN(BinaryReader vocab_r,
                          snapshot.Section("tabbin.vocab"));
  TABBIN_ASSIGN_OR_RETURN(Vocab vocab, Vocab::Deserialize(&vocab_r));

  // Every parameter is overwritten below, so skip the random draws.
  TabBiNSystem sys(config, std::move(vocab), /*init_params=*/false);
  TABBIN_ASSIGN_OR_RETURN(BinaryReader typer_r,
                          snapshot.Section("tabbin.typer"));
  TABBIN_ASSIGN_OR_RETURN(sys.typer_, TypeInferencer::Deserialize(&typer_r));
  for (int v = 0; v < 4; ++v) {
    const auto variant = static_cast<TabBiNVariant>(v);
    TABBIN_ASSIGN_OR_RETURN(
        BinaryReader model_r,
        snapshot.Section(std::string("tabbin.model.") +
                         TabBiNVariantName(variant)));
    ParameterMap params = sys.model(variant)->Parameters();
    TABBIN_RETURN_IF_ERROR(DeserializeParameters(&model_r, &params));
  }
  return sys;
}

Status TabBiNSystem::Save(const std::string& path) const {
  PagedSnapshotWriter snapshot;
  AppendTo(&snapshot);
  return snapshot.ToFile(path);
}

Result<TabBiNSystem> TabBiNSystem::Load(const std::string& path) {
  TABBIN_ASSIGN_OR_RETURN(std::string file, ResolveSnapshotPath(path));
  TABBIN_ASSIGN_OR_RETURN(PagedSnapshotReader snapshot,
                          PagedSnapshotReader::Open(file));
  return FromSnapshot(snapshot);
}

void SerializeSegmentEncoding(const SegmentEncoding& enc, BinaryWriter* w) {
  w->WriteU64(enc.seq.tokens.size());
  for (const TokenFeatures& t : enc.seq.tokens) {
    w->WriteI32(t.token_id);
    w->WriteI32(t.magnitude);
    w->WriteI32(t.precision);
    w->WriteI32(t.first_digit);
    w->WriteI32(t.last_digit);
    w->WriteI32(t.cell_pos);
    w->WriteI32(t.vr);
    w->WriteI32(t.vc);
    w->WriteI32(t.hr);
    w->WriteI32(t.hc);
    w->WriteI32(t.nr);
    w->WriteI32(t.nc);
    w->WriteI32(t.type_id);
    w->WriteU32(t.fmt_bits);
    w->WriteI32(t.position.row);
    w->WriteI32(t.position.col);
    w->WriteU32(t.position.is_cls ? 1 : 0);
  }
  w->WriteU64(enc.seq.line_cls.size());
  for (const auto& [token_index, line_index] : enc.seq.line_cls) {
    w->WriteI32(token_index);
    w->WriteI32(line_index);
  }
  w->WriteU64(enc.seq.cell_spans.size());
  for (const CellSpan& s : enc.seq.cell_spans) {
    w->WriteI32(s.row);
    w->WriteI32(s.col);
    w->WriteI32(s.begin);
    w->WriteI32(s.end);
    w->WriteU32(s.nested ? 1 : 0);
  }
  enc.hidden.Serialize(w);
}

Result<SegmentEncoding> DeserializeSegmentEncoding(BinaryReader* r) {
  SegmentEncoding enc;
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_tokens, r->ReadU64());
  // Each serialized token is 17 fixed-width fields; an adversarial count
  // is rejected before the reserve.
  if (n_tokens > r->remaining() / (17 * sizeof(int32_t))) {
    return Status::ParseError("SegmentEncoding: token count past stream end");
  }
  enc.seq.tokens.reserve(static_cast<size_t>(n_tokens));
  for (uint64_t i = 0; i < n_tokens; ++i) {
    TokenFeatures t;
    TABBIN_ASSIGN_OR_RETURN(t.token_id, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.magnitude, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.precision, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.first_digit, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.last_digit, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.cell_pos, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.vr, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.vc, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.hr, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.hc, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.nr, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.nc, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.type_id, r->ReadI32());
    uint32_t bits = 0;
    TABBIN_ASSIGN_OR_RETURN(bits, r->ReadU32());
    t.fmt_bits = static_cast<uint8_t>(bits);
    TABBIN_ASSIGN_OR_RETURN(t.position.row, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(t.position.col, r->ReadI32());
    uint32_t is_cls = 0;
    TABBIN_ASSIGN_OR_RETURN(is_cls, r->ReadU32());
    t.position.is_cls = is_cls != 0;
    enc.seq.tokens.push_back(t);
  }
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_cls, r->ReadU64());
  if (n_cls > r->remaining() / (2 * sizeof(int32_t))) {
    return Status::ParseError("SegmentEncoding: line count past stream end");
  }
  enc.seq.line_cls.reserve(static_cast<size_t>(n_cls));
  for (uint64_t i = 0; i < n_cls; ++i) {
    int32_t token_index = 0, line_index = 0;
    TABBIN_ASSIGN_OR_RETURN(token_index, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(line_index, r->ReadI32());
    enc.seq.line_cls.emplace_back(token_index, line_index);
  }
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_spans, r->ReadU64());
  if (n_spans > r->remaining() / (4 * sizeof(int32_t) + sizeof(uint32_t))) {
    return Status::ParseError("SegmentEncoding: span count past stream end");
  }
  enc.seq.cell_spans.reserve(static_cast<size_t>(n_spans));
  for (uint64_t i = 0; i < n_spans; ++i) {
    CellSpan s;
    TABBIN_ASSIGN_OR_RETURN(s.row, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.col, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.begin, r->ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.end, r->ReadI32());
    uint32_t nested = 0;
    TABBIN_ASSIGN_OR_RETURN(nested, r->ReadU32());
    s.nested = nested != 0;
    // Malformed spans would index out of the hidden block in PoolCells'
    // callers that trust begin <= end.
    if (s.begin < 0 || s.end < s.begin) {
      return Status::ParseError("SegmentEncoding: malformed cell span");
    }
    enc.seq.cell_spans.push_back(s);
  }
  TABBIN_ASSIGN_OR_RETURN(enc.hidden, EmbeddingMatrix::Deserialize(r));
  return enc;
}

void SerializeTableEncodings(const TableEncodings& enc, BinaryWriter* w) {
  SerializeSegmentEncoding(enc.row, w);
  SerializeSegmentEncoding(enc.col, w);
  SerializeSegmentEncoding(enc.hmd, w);
  SerializeSegmentEncoding(enc.vmd, w);
}

Result<TableEncodings> DeserializeTableEncodings(BinaryReader* r) {
  TableEncodings enc;
  TABBIN_ASSIGN_OR_RETURN(enc.row, DeserializeSegmentEncoding(r));
  TABBIN_ASSIGN_OR_RETURN(enc.col, DeserializeSegmentEncoding(r));
  TABBIN_ASSIGN_OR_RETURN(enc.hmd, DeserializeSegmentEncoding(r));
  TABBIN_ASSIGN_OR_RETURN(enc.vmd, DeserializeSegmentEncoding(r));
  return enc;
}

}  // namespace tabbin
