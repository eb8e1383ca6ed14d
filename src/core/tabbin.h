// TabBiNSystem — the library's main entry point.
//
// Bundles the vocabulary, type inferencer, and the four pre-trained
// TabBiN models (data-row, data-column, HMD, VMD), and exposes the
// composite-embedding constructions of the paper:
//
//  * Column Clustering CE (Fig. 5b):  E_cj (HMD model) ⊕ mean data-cell
//    embedding of the column (column model);
//  * Table Clustering CE (Fig. 5a):   mean data (row model) ⊕ mean HMD ⊕
//    mean VMD [⊕ caption embedding]  (tblcomp1 / tblcomp2 of §4.5);
//  * numeric-attribute CE (Fig. 4a):  attribute ⊕ value ⊕ unit;
//  * range CE (Fig. 4b):              attribute ⊕ unit ⊕ start ⊕ end;
//  * entity embeddings (EC, §4.3):    cell embedding from the column model.
//
// Typical usage:
//   TabBiNSystem sys = TabBiNSystem::Create(corpus.tables, config);
//   sys.Pretrain(corpus.tables);
//   auto enc = sys.EncodeAll(table);
//   std::vector<float> cc = sys.ColumnComposite(enc, column);
#ifndef TABBIN_CORE_TABBIN_H_
#define TABBIN_CORE_TABBIN_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "core/model.h"
#include "core/pretrainer.h"
#include "store/paged_snapshot.h"
#include "tensor/embedding_matrix.h"

namespace tabbin {

/// \brief A table segment encoded by one model: the input sequence plus
/// final hidden states as one flat [n, hidden] block (detached from the
/// tape). Rows are accessed as VecView spans — no per-row allocations.
struct SegmentEncoding {
  EncodedSequence seq;
  EmbeddingMatrix hidden;  // [n, hidden]
  bool empty() const { return seq.empty(); }
};

/// \brief All four segment encodings of one table.
struct TableEncodings {
  SegmentEncoding row;   // data, row-wise
  SegmentEncoding col;   // data, column-wise
  SegmentEncoding hmd;   // horizontal metadata
  SegmentEncoding vmd;   // vertical metadata
};

class TabBiNSystem {
 public:
  /// \brief Builds a system whose WordPiece vocabulary is trained on the
  /// given sample of tables (cell texts + captions).
  static TabBiNSystem Create(const std::vector<Table>& sample,
                             const TabBiNConfig& config);

  /// \brief Builds the four models. `init_params` false skips the
  /// random parameter draws (the tensors stay zero) — only for callers
  /// that immediately overwrite every parameter from a snapshot, where
  /// the ~millions of Gaussian draws are measurable cold-start waste.
  TabBiNSystem(const TabBiNConfig& config, Vocab vocab,
               bool init_params = true);

  /// \brief Pre-trains all four models on a corpus; returns per-variant
  /// stats in variant order (row, column, hmd, vmd).
  std::vector<PretrainStats> Pretrain(const std::vector<Table>& tables);

  /// \brief Encodes one segment of a table (inference mode, no grad).
  SegmentEncoding EncodeSegment(const Table& table,
                                TabBiNVariant variant) const;

  /// \brief Encodes all four segments.
  TableEncodings EncodeAll(const Table& table) const;

  // --- Composite embeddings -------------------------------------------

  /// \brief CC composite (Fig. 5b) for data column `col` (grid index).
  std::vector<float> ColumnComposite(const TableEncodings& enc,
                                     int col) const;

  /// \brief Column embedding from the column model alone (the "without
  /// composite embeddings" rows of Table 10).
  std::vector<float> ColumnSingle(const TableEncodings& enc, int col) const;

  /// \brief TC composite tblcomp1 (row ⊕ HMD ⊕ VMD means).
  std::vector<float> TableComposite1(const TableEncodings& enc) const;

  /// \brief TC composite tblcomp2 (tblcomp1 ⊕ caption embedding). The
  /// caption embedding comes from a caption model (paper: fine-tuned
  /// BioBERT; here the bertlike baseline) and may be empty.
  std::vector<float> TableComposite2(
      const TableEncodings& enc, const std::vector<float>& caption_emb) const;

  /// \brief Table embedding from the row model alone (Table 11 baseline).
  std::vector<float> TableSingle(const TableEncodings& enc) const;

  /// \brief Entity embedding: the data cell (row, col) from the column
  /// model (§4.3 "We used TabBiN-column model for this EC task").
  std::vector<float> EntityEmbedding(const TableEncodings& enc, int row,
                                     int col) const;

  /// \brief Numeric-attribute composite (Fig. 4a): attribute ⊕ value ⊕
  /// unit for the data cell (row, col).
  std::vector<float> NumericAttributeComposite(const Table& table,
                                               const TableEncodings& enc,
                                               int row, int col) const;

  /// \brief Range composite (Fig. 4b): attribute ⊕ unit ⊕ start ⊕ end.
  std::vector<float> RangeComposite(const Table& table,
                                    const TableEncodings& enc, int row,
                                    int col) const;

  // --- Accessors --------------------------------------------------------

  const TabBiNConfig& config() const { return config_; }
  const Vocab& vocab() const { return vocab_; }
  TypeInferencer* typer() { return &typer_; }
  const TypeInferencer& typer() const { return typer_; }
  TabBiNModel* model(TabBiNVariant variant) {
    return models_[static_cast<size_t>(variant)].get();
  }
  const TabBiNModel* model(TabBiNVariant variant) const {
    return models_[static_cast<size_t>(variant)].get();
  }

  /// \brief Hidden width of every single-model embedding.
  int hidden() const { return config_.hidden; }

  // --- Persistence ------------------------------------------------------

  /// \brief Writes config, vocabulary, type-inference lexicon and all
  /// four models' parameters into the snapshot (sections "tabbin.*",
  /// packed, in that order).
  void AppendTo(PagedSnapshotWriter* snapshot) const;

  /// \brief Restores a system saved with AppendTo; every section is
  /// checksum-validated and copied out, so the system does not keep the
  /// reader alive. A loaded system's EncodeAll is bitwise identical to
  /// the saved one's.
  static Result<TabBiNSystem> FromSnapshot(
      const PagedSnapshotReader& snapshot);

  /// \brief File wrappers over AppendTo/FromSnapshot. Load also reads
  /// the model sections of a service store, and resolves a generation
  /// directory through its MANIFEST.
  Status Save(const std::string& path) const;
  static Result<TabBiNSystem> Load(const std::string& path);

 private:
  // Mean of hidden states over token indices belonging to the given
  // grid cells (empty result when nothing matches -> zero vector).
  std::vector<float> PoolCells(const SegmentEncoding& enc,
                               const std::function<bool(const CellSpan&)>&
                                   cell_filter) const;
  std::vector<float> MeanAllTokens(const SegmentEncoding& enc) const;

  TabBiNConfig config_;
  Vocab vocab_;
  TypeInferencer typer_;
  std::array<std::unique_ptr<TabBiNModel>, 4> models_;
};

/// \brief Concatenates embedding spans (⊕ in the paper's figures). Owned
/// vectors and EmbeddingMatrix rows both convert to VecView implicitly.
std::vector<float> ConcatEmbeddings(const std::vector<VecView>& parts);

// --- TableEncodings persistence (EncoderEngine warm start) --------------

/// \brief Writes one segment encoding (tokens, spans, hidden states).
void SerializeSegmentEncoding(const SegmentEncoding& enc, BinaryWriter* w);
Result<SegmentEncoding> DeserializeSegmentEncoding(BinaryReader* r);

/// \brief Writes all four segment encodings of a table.
void SerializeTableEncodings(const TableEncodings& enc, BinaryWriter* w);
Result<TableEncodings> DeserializeTableEncodings(BinaryReader* r);

}  // namespace tabbin

#endif  // TABBIN_CORE_TABBIN_H_
