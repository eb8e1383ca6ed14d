#include "service/shard.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <utility>

#include "baselines/word2vec.h"
#include "io/table_io.h"
#include "tensor/kernels.h"
#include "text/wordpiece.h"
#include "util/logging.h"
#include "util/snapshot.h"
#include "util/threadpool.h"
#include "util/top_k.h"

namespace tabbin {

int ServiceColumnDim(const TabBiNSystem& sys) { return 2 * sys.hidden(); }
int ServiceTableDim(const TabBiNSystem& sys) { return 3 * sys.hidden(); }
int ServiceEntityDim(const TabBiNSystem& sys) { return sys.hidden(); }

std::string ServiceDocumentText(const Table& table) {
  std::string text = table.caption();
  for (const auto& tuple : SerializeTuples(table)) {
    text += " ";
    text += tuple;
  }
  return text;
}

std::string CanonicalTableId(const Table& table) {
  if (!table.id().empty()) return table.id();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%016llx",
                static_cast<unsigned long long>(TableFingerprint(table)));
  return buf;
}

size_t ShardIndexFor(const std::string& id, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(
             Fnv1a64(reinterpret_cast<const uint8_t*>(id.data()),
                     id.size())) %
         num_shards;
}

bool ServiceMatchOrder(const ServiceMatch& a, const ServiceMatch& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.table_id != b.table_id) return a.table_id < b.table_id;
  if (a.col != b.col) return a.col < b.col;
  return a.row < b.row;
}

void AppendServiceOptions(const ServiceOptions& options,
                          SnapshotWriter* snapshot) {
  BinaryWriter* opts = snapshot->AddSection("service.options");
  opts->WriteU64(options.encoder_cache_capacity);
  opts->WriteI32(options.lsh_bits);
  opts->WriteI32(options.lsh_tables);
  opts->WriteU64(options.lsh_seed);
  opts->WriteI32(options.index_entities ? 1 : 0);
  opts->WriteI32(options.max_entities_per_table);
}

Result<ServiceOptions> ReadServiceOptions(const SnapshotReader& snapshot) {
  ServiceOptions options;
  TABBIN_ASSIGN_OR_RETURN(BinaryReader opts_r,
                          snapshot.Section("service.options"));
  TABBIN_ASSIGN_OR_RETURN(uint64_t capacity, opts_r.ReadU64());
  options.encoder_cache_capacity = static_cast<size_t>(capacity);
  TABBIN_ASSIGN_OR_RETURN(options.lsh_bits, opts_r.ReadI32());
  TABBIN_ASSIGN_OR_RETURN(options.lsh_tables, opts_r.ReadI32());
  TABBIN_ASSIGN_OR_RETURN(options.lsh_seed, opts_r.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(int32_t index_entities, opts_r.ReadI32());
  options.index_entities = index_entities != 0;
  TABBIN_ASSIGN_OR_RETURN(options.max_entities_per_table, opts_r.ReadI32());
  if (options.lsh_bits <= 0 || options.lsh_bits > 64 ||
      options.lsh_tables <= 0) {
    return Status::ParseError("service snapshot: invalid LSH options");
  }
  return options;
}

namespace {

// Saturated term frequency (the BM25 tf kernel without idf or length
// normalization). Doc-local by construction: the score of a document
// never depends on what other documents exist, which is what lets a
// shard rank its own documents and the merged per-shard top-k equal the
// global top-k exactly.
constexpr double kLexK1 = 1.2;

double LexicalScore(const std::vector<std::string>& sorted_query_terms,
                    const std::unordered_map<std::string, int>& doc_tf) {
  double score = 0;
  for (const auto& term : sorted_query_terms) {
    auto it = doc_tf.find(term);
    if (it == doc_tf.end()) continue;
    const double tf = static_cast<double>(it->second);
    score += tf * (kLexK1 + 1.0) / (tf + kLexK1);
  }
  return score;
}

}  // namespace

std::unordered_map<std::string, int> ServiceDocTermFrequencies(
    const Table& table) {
  std::unordered_map<std::string, int> tf;
  for (const auto& term : PreTokenize(ServiceDocumentText(table))) {
    ++tf[term];
  }
  return tf;
}

// ---------------------------------------------------------------------------
// ServiceShard
// ---------------------------------------------------------------------------

ServiceShard::ServiceShard(const TabBiNSystem* system,
                           const ServiceOptions& options)
    : system_(system),
      options_(options),
      col_index_(ServiceColumnDim(*system), options.lsh_bits,
                 options.lsh_tables, options.lsh_seed),
      tbl_index_(ServiceTableDim(*system), options.lsh_bits,
                 options.lsh_tables, options.lsh_seed),
      ent_index_(ServiceEntityDim(*system), options.lsh_bits,
                 options.lsh_tables, options.lsh_seed) {
  options_.quantized_shortlist_multiplier =
      std::max(1, options_.quantized_shortlist_multiplier);
  options_.hnsw_m = std::max(2, options_.hnsw_m);
  options_.hnsw_ef_construction =
      std::max(options_.hnsw_m, options_.hnsw_ef_construction);
  options_.hnsw_ef_search = std::max(1, options_.hnsw_ef_search);
  if (options_.index_kind == kIndexHnsw) {
    // Graphs created empty before any row exists: every insert below
    // maintains them incrementally, the same contract the LSH indexes
    // live under. (Direct member init — constructors precede sharing,
    // so no lock is needed or annotated here.)
    const HnswOptions hopts{options_.hnsw_m, options_.hnsw_ef_construction,
                            options_.lsh_seed};
    col_hnsw_ =
        std::make_unique<HnswIndex>(ServiceColumnDim(*system), hopts);
    tbl_hnsw_ = std::make_unique<HnswIndex>(ServiceTableDim(*system), hopts);
    ent_hnsw_ =
        std::make_unique<HnswIndex>(ServiceEntityDim(*system), hopts);
  }
  if (options_.quantized_scan) {
    // Enabled before any row exists: every AppendRow maintains the
    // sidecar from here on (including snapshot-restore inserts, which
    // is how codes are recomputed on deserialize without ever being
    // serialized).
    col_vecs_.EnableQuantization();
    tbl_vecs_.EnableQuantization();
    ent_vecs_.EnableQuantization();
  }
}

Result<ServiceShard::PreparedTable> ServiceShard::Prepare(
    const TabBiNSystem& sys, const ServiceOptions& options, const Table& t,
    const TableEncodings& enc) {
  PreparedTable p;
  p.table_vec = sys.TableComposite1(enc);
  if (static_cast<int>(p.table_vec.size()) != ServiceTableDim(sys)) {
    return Status::Internal("AddTables: unexpected table embedding width");
  }
  for (int c = t.vmd_cols(); c < t.cols(); ++c) {
    auto vec = sys.ColumnComposite(enc, c);
    if (static_cast<int>(vec.size()) != ServiceColumnDim(sys)) {
      return Status::Internal("AddTables: unexpected column embedding width");
    }
    p.columns.emplace_back(c, std::move(vec));
  }
  if (options.index_entities) {
    int budget = options.max_entities_per_table;
    for (int r = t.hmd_rows(); r < t.rows() && budget > 0; ++r) {
      for (int c = t.vmd_cols(); c < t.cols() && budget > 0; ++c) {
        const Cell& cell = t.cell(r, c);
        if (cell.has_nested() || cell.value.kind() != ValueKind::kString) {
          continue;
        }
        EntityRef ref;
        ref.row = r;
        ref.col = c;
        ref.surface = cell.value.text();
        auto vec = sys.EntityEmbedding(enc, r, c);
        if (static_cast<int>(vec.size()) != ServiceEntityDim(sys)) {
          return Status::Internal(
              "AddTables: unexpected entity embedding width");
        }
        p.entities.emplace_back(std::move(ref), std::move(vec));
        --budget;
      }
    }
  }
  return p;
}

void ServiceShard::InsertPreparedLocked(Table table, const std::string& id,
                                        PreparedTable&& prepared,
                                        AddReport* report) {
  // Every embedding width was validated by Prepare/InsertRows, so the
  // index inserts below cannot legitimately fail; a rejection is a
  // programming error worth shouting about rather than silently
  // dropping.
  auto must_insert = [](Status st) {
    if (!st.ok()) {
      TABBIN_LOG(ERROR) << "ServiceShard: index insert rejected: "
                        << st.ToString();
    }
  };

  auto it = id_to_slot_.find(id);
  if (it != id_to_slot_.end()) {
    TableSlot& old = slots_[static_cast<size_t>(it->second)];
    old.live = false;
    MarkSlotDeadInHnswLocked(old);
    --live_count_;
    ++report->tables_replaced;
  } else {
    ++report->tables_added;
  }
  const int slot = static_cast<int>(slots_.size());
  slots_.push_back(TableSlot{});
  TableSlot& s = slots_.back();
  s.table = std::move(table);
  s.caption = s.table.caption();
  s.grid_rows = s.table.rows();
  s.grid_cols = s.table.cols();
  s.id = id;
  s.doc_tf = ServiceDocTermFrequencies(s.table);
  for (const auto& [term, count] : s.doc_tf) {
    lex_postings_[term].push_back(slot);
  }
  id_to_slot_[id] = slot;
  ++live_count_;

  tbl_vecs_.AppendRow(prepared.table_vec);
  tbl_refs_.push_back(slot);
  s.tbl_row = static_cast<int>(tbl_refs_.size()) - 1;
  must_insert(tbl_index_.Insert(s.tbl_row, prepared.table_vec));
  if (tbl_hnsw_) must_insert(tbl_hnsw_->Insert(tbl_vecs_, s.tbl_row));

  if (!prepared.columns.empty()) {
    s.col_begin = static_cast<int>(col_refs_.size());
    s.col_end = s.col_begin + static_cast<int>(prepared.columns.size());
  }
  for (auto& [c, vec] : prepared.columns) {
    col_vecs_.AppendRow(vec);
    col_refs_.push_back(ColumnRef{slot, c});
    const int row = static_cast<int>(col_refs_.size()) - 1;
    must_insert(col_index_.Insert(row, vec));
    if (col_hnsw_) must_insert(col_hnsw_->Insert(col_vecs_, row));
    ++report->columns_indexed;
  }
  if (!prepared.entities.empty()) {
    s.ent_begin = static_cast<int>(ent_refs_.size());
    s.ent_end = s.ent_begin + static_cast<int>(prepared.entities.size());
  }
  for (auto& [ref, vec] : prepared.entities) {
    EntityRef full = ref;
    full.slot = slot;
    ent_vecs_.AppendRow(vec);
    ent_refs_.push_back(std::move(full));
    const int row = static_cast<int>(ent_refs_.size()) - 1;
    must_insert(ent_index_.Insert(row, vec));
    if (ent_hnsw_) must_insert(ent_hnsw_->Insert(ent_vecs_, row));
    ++report->entities_indexed;
  }
}

void ServiceShard::InsertBatch(std::vector<Table> tables,
                               std::vector<std::string> ids,
                               std::vector<PreparedTable> prepared,
                               AddReport* report) {
  WriterMutexLock lock(&mu_);
  for (size_t i = 0; i < tables.size(); ++i) {
    InsertPreparedLocked(std::move(tables[i]), ids[i],
                         std::move(prepared[i]), report);
  }
}

Status ServiceShard::InsertRows(LiveTableRows&& rows, AddReport* report) {
  PreparedTable p;
  p.table_vec = std::move(rows.table_vec);
  if (static_cast<int>(p.table_vec.size()) != ServiceTableDim(*system_)) {
    return Status::ParseError(
        "service shard restore: table embedding width mismatch");
  }
  for (auto& [c, vec] : rows.columns) {
    if (static_cast<int>(vec.size()) != ServiceColumnDim(*system_)) {
      return Status::ParseError(
          "service shard restore: column embedding width mismatch");
    }
    if (c < 0 || c >= rows.table.cols()) {
      return Status::ParseError(
          "service shard restore: column index out of range");
    }
    p.columns.emplace_back(c, std::move(vec));
  }
  for (auto& [ref, vec] : rows.entities) {
    if (static_cast<int>(vec.size()) != ServiceEntityDim(*system_)) {
      return Status::ParseError(
          "service shard restore: entity embedding width mismatch");
    }
    if (ref.row < 0 || ref.row >= rows.table.rows() || ref.col < 0 ||
        ref.col >= rows.table.cols()) {
      return Status::ParseError(
          "service shard restore: entity cell out of range");
    }
    p.entities.emplace_back(ref, std::move(vec));
  }
  WriterMutexLock lock(&mu_);
  InsertPreparedLocked(std::move(rows.table), rows.id, std::move(p), report);
  return Status::OK();
}

Status ServiceShard::Remove(const std::string& id) {
  WriterMutexLock lock(&mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("RemoveTable: no live table with id '" + id +
                            "'");
  }
  TableSlot& s = slots_[static_cast<size_t>(it->second)];
  s.live = false;
  MarkSlotDeadInHnswLocked(s);
  id_to_slot_.erase(it);
  --live_count_;
  return Status::OK();
}

void ServiceShard::SetQuantizedScan(bool on, int shortlist_multiplier) {
  WriterMutexLock lock(&mu_);
  options_.quantized_scan = on;
  options_.quantized_shortlist_multiplier = std::max(1, shortlist_multiplier);
  if (on) {
    col_vecs_.EnableQuantization();
    tbl_vecs_.EnableQuantization();
    ent_vecs_.EnableQuantization();
  } else {
    col_vecs_.DisableQuantization();
    tbl_vecs_.DisableQuantization();
    ent_vecs_.DisableQuantization();
  }
}

void ServiceShard::SetIndexKind(IndexKind kind, int ef_search) {
  WriterMutexLock lock(&mu_);
  if (ef_search > 0) options_.hnsw_ef_search = ef_search;
  options_.index_kind = kind;
  if (kind == kIndexHnsw) {
    if (!col_hnsw_) BuildHnswLocked();
  } else {
    // Dropping the graphs restores the reference LSH candidate path
    // byte for byte — the LSH indexes were maintained throughout.
    col_hnsw_.reset();
    tbl_hnsw_.reset();
    ent_hnsw_.reset();
  }
}

void ServiceShard::BuildHnswLocked() {
  const HnswOptions hopts{options_.hnsw_m, options_.hnsw_ef_construction,
                          options_.lsh_seed};
  col_hnsw_ =
      std::make_unique<HnswIndex>(ServiceColumnDim(*system_), hopts);
  tbl_hnsw_ = std::make_unique<HnswIndex>(ServiceTableDim(*system_), hopts);
  ent_hnsw_ = std::make_unique<HnswIndex>(ServiceEntityDim(*system_), hopts);
  // Inserting in row order reproduces the graph an always-on shard
  // would have built incrementally — node id i IS matrix row i, so no
  // id remap exists anywhere. Same must-insert contract as
  // InsertPreparedLocked: widths were validated when the rows were
  // stored, a rejection is a programming error.
  auto must_insert = [](Status st) {
    if (!st.ok()) {
      TABBIN_LOG(ERROR) << "ServiceShard: hnsw build rejected: "
                        << st.ToString();
    }
  };
  for (size_t r = 0; r < col_vecs_.rows(); ++r) {
    must_insert(col_hnsw_->Insert(col_vecs_, static_cast<int>(r)));
  }
  for (size_t r = 0; r < tbl_vecs_.rows(); ++r) {
    must_insert(tbl_hnsw_->Insert(tbl_vecs_, static_cast<int>(r)));
  }
  for (size_t r = 0; r < ent_vecs_.rows(); ++r) {
    must_insert(ent_hnsw_->Insert(ent_vecs_, static_cast<int>(r)));
  }
  // Tombstone rows whose owning slot died before the build: searches
  // route through them but never return them, exactly as if MarkDead
  // had been called at removal time.
  for (const TableSlot& s : slots_) {
    if (!s.live) MarkSlotDeadInHnswLocked(s);
  }
}

void ServiceShard::MarkSlotDeadInHnswLocked(const TableSlot& s) {
  if (tbl_hnsw_) tbl_hnsw_->MarkDead(s.tbl_row);
  if (col_hnsw_) {
    for (int r = s.col_begin; r >= 0 && r < s.col_end; ++r) {
      col_hnsw_->MarkDead(r);
    }
  }
  if (ent_hnsw_) {
    for (int e = s.ent_begin; e >= 0 && e < s.ent_end; ++e) {
      ent_hnsw_->MarkDead(e);
    }
  }
}

Status ServiceShard::Compact() {
  WriterMutexLock lock(&mu_);
  if (static_cast<size_t>(live_count_) == slots_.size()) {
    if (store_keepalive_ == nullptr) {
      return Status::OK();  // nothing dead, nothing to do
    }
    // Mapped shard with no tombstones: merge the heap delta into owned
    // storage, parse every lazy table, and release the mapping. Row ids
    // do not change, so the indexes and refs stay untouched — and the
    // matrices' segment-split scoring collapses back to one owned pass.
    for (TableSlot& s : slots_) {
      if (s.table_loaded) continue;
      TABBIN_ASSIGN_OR_RETURN(s.table, MaterializeTableLocked(s));
      s.table_loaded = true;
      s.json_ptr = nullptr;
      s.json_len = 0;
    }
    col_vecs_.MaterializeOwned();
    tbl_vecs_.MaterializeOwned();
    ent_vecs_.MaterializeOwned();
    if (col_hnsw_) col_hnsw_->MaterializeOwned();
    if (tbl_hnsw_) tbl_hnsw_->MaterializeOwned();
    if (ent_hnsw_) ent_hnsw_->MaterializeOwned();
    store_keepalive_.reset();
    return Status::OK();
  }
  // Gather the live tables WITH their stored embedding rows in slot
  // (= insertion) order, then rebuild every structure from those rows.
  // Runs under the writer lock so queries never observe a partially
  // rebuilt shard. Deliberately encoder-free: an engine call here could
  // block on an in-flight encode whose pool task queues behind workers
  // that are themselves waiting on this writer lock — a deadlock — and
  // the stored rows already ARE the prepared vectors, bit for bit.
  std::vector<LiveTableRows> live;
  live.reserve(static_cast<size_t>(live_count_));
  TABBIN_RETURN_IF_ERROR(ExportLiveLocked(&live));

  slots_.clear();
  id_to_slot_.clear();
  live_count_ = 0;
  col_index_ = LshIndex(ServiceColumnDim(*system_), options_.lsh_bits,
                        options_.lsh_tables, options_.lsh_seed);
  col_vecs_ = EmbeddingMatrix();
  col_refs_.clear();
  tbl_index_ = LshIndex(ServiceTableDim(*system_), options_.lsh_bits,
                        options_.lsh_tables, options_.lsh_seed);
  tbl_vecs_ = EmbeddingMatrix();
  tbl_refs_.clear();
  ent_index_ = LshIndex(ServiceEntityDim(*system_), options_.lsh_bits,
                        options_.lsh_tables, options_.lsh_seed);
  ent_vecs_ = EmbeddingMatrix();
  ent_refs_.clear();
  lex_postings_.clear();
  // The export above copied everything to heap; nothing below reads the
  // mapping again, so a mapped shard drops it here.
  store_keepalive_.reset();
  if (options_.quantized_scan) {
    // Fresh matrices start unquantized; re-enable so the re-inserts
    // below rebuild the code sidecars along with everything else.
    col_vecs_.EnableQuantization();
    tbl_vecs_.EnableQuantization();
    ent_vecs_.EnableQuantization();
  }
  if (options_.index_kind == kIndexHnsw) {
    // Fresh empty graphs: the re-inserts below rebuild them over the
    // surviving rows only — this is the rebuild-on-Compact that drops
    // tombstoned waypoints for real.
    const HnswOptions hopts{options_.hnsw_m, options_.hnsw_ef_construction,
                            options_.lsh_seed};
    col_hnsw_ =
        std::make_unique<HnswIndex>(ServiceColumnDim(*system_), hopts);
    tbl_hnsw_ =
        std::make_unique<HnswIndex>(ServiceTableDim(*system_), hopts);
    ent_hnsw_ =
        std::make_unique<HnswIndex>(ServiceEntityDim(*system_), hopts);
  } else {
    col_hnsw_.reset();
    tbl_hnsw_.reset();
    ent_hnsw_.reset();
  }

  AddReport discard;
  for (LiveTableRows& rows : live) {
    PreparedTable p;
    p.table_vec = std::move(rows.table_vec);
    p.columns = std::move(rows.columns);
    p.entities = std::move(rows.entities);
    InsertPreparedLocked(std::move(rows.table), rows.id, std::move(p),
                         &discard);
  }
  return Status::OK();
}

// --- Reads ----------------------------------------------------------------

Result<ServiceShard::Resolved> ServiceShard::ResolveColumn(
    const std::string& id, int col) const {
  ReaderMutexLock lock(&mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no live table with id '" + id + "'");
  }
  const TableSlot& s = slots_[static_cast<size_t>(it->second)];
  if (col < 0 || col >= s.grid_cols) {
    return Status::OutOfRange("SimilarColumns: column " +
                              std::to_string(col) + " out of range");
  }
  Resolved r;
  for (int row = s.col_begin; row >= 0 && row < s.col_end; ++row) {
    if (col_refs_[static_cast<size_t>(row)].col == col) {
      r.vec = col_vecs_.row(static_cast<size_t>(row)).ToVector();
      return r;
    }
  }
  // A metadata (VMD) column is queryable but not indexed: hand back a
  // copy for the caller to encode outside every lock.
  TABBIN_ASSIGN_OR_RETURN(r.table_copy, MaterializeTableLocked(s));
  r.needs_encode = true;
  return r;
}

Result<ServiceShard::Resolved> ServiceShard::ResolveTable(
    const std::string& id) const {
  ReaderMutexLock lock(&mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no live table with id '" + id + "'");
  }
  const TableSlot& s = slots_[static_cast<size_t>(it->second)];
  Resolved r;
  r.vec = tbl_vecs_.row(static_cast<size_t>(s.tbl_row)).ToVector();
  return r;
}

Result<ServiceShard::Resolved> ServiceShard::ResolveEntity(
    const std::string& id, int row, int col) const {
  ReaderMutexLock lock(&mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no live table with id '" + id + "'");
  }
  const TableSlot& s = slots_[static_cast<size_t>(it->second)];
  if (row < 0 || row >= s.grid_rows || col < 0 || col >= s.grid_cols) {
    return Status::OutOfRange("SimilarEntities: cell (" +
                              std::to_string(row) + ", " +
                              std::to_string(col) + ") out of range");
  }
  Resolved r;
  for (int e = s.ent_begin; e >= 0 && e < s.ent_end; ++e) {
    const EntityRef& ref = ent_refs_[static_cast<size_t>(e)];
    if (ref.row == row && ref.col == col) {
      r.vec = ent_vecs_.row(static_cast<size_t>(e)).ToVector();
      return r;
    }
  }
  // Cell isn't in the entity index (numeric, nested, or past the
  // per-table budget): the caller encodes a copy outside every lock.
  TABBIN_ASSIGN_OR_RETURN(r.table_copy, MaterializeTableLocked(s));
  r.needs_encode = true;
  return r;
}

template <typename Ref, typename Accept, typename TieLess, typename Emit>
ServiceShard::MatchSet ServiceShard::RankLocked(
    const LshIndex& index, const HnswIndex* hnsw,
    const EmbeddingMatrix& vecs, const std::vector<Ref>& refs,
    VecView query_vec, const std::vector<uint64_t>& keys, int k,
    const Accept& accept, const TieLess& tie_less, const Emit& emit) const {
  MatchSet out;
  // Candidate generation is the ONLY stage the index kind changes:
  // graph walk or bucket probe, both hand back ascending row ids, and
  // everything downstream (accept filter, optional int8 shortlist,
  // exact float rerank, ServiceMatchOrder) is shared verbatim. The
  // walk's beam is ef_search, clamped to k so a caller asking for more
  // results than the beam never gets silently truncated recall.
  std::vector<int> candidates =
      (hnsw != nullptr && options_.index_kind == kIndexHnsw)
          ? hnsw->Search(vecs, query_vec,
                         std::max(options_.hnsw_ef_search, k))
          : index.QueryByKeys(keys);
  out.candidates = static_cast<int>(candidates.size());
  // Accepted candidates first, then ONE norm-free batched pass over
  // their rows: the matrix caches per-row inverse norms, so each score
  // is a single kernel dot — bit-identical to pairwise
  // CosineSimilarity, which evaluates the same kernel expression.
  std::vector<int> rows;
  rows.reserve(candidates.size());
  for (int id : candidates) {
    if (id < 0 || id >= static_cast<int>(refs.size())) continue;
    if (!accept(refs[static_cast<size_t>(id)])) continue;
    rows.push_back(id);
  }
  // Descending score, then the partition-independent tie order (table
  // id / col / row) — never internal row ids, so the ranking does not
  // depend on insertion order or shard assignment. Distinct candidates
  // always differ in their tie key, so this is a strict total order and
  // the bounded SelectTopK cut equals full-sort-then-truncate byte for
  // byte at a size-k heap's cost.
  const auto by_score = [&](const float* score) {
    return [&refs, &tie_less, score, &rows](size_t a, size_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return tie_less(refs[static_cast<size_t>(rows[a])],
                      refs[static_cast<size_t>(rows[b])]);
    };
  };
  // Quantized first pass: when the scan knob is on and the candidate
  // set is larger than the shortlist, score everything through the
  // int8 sidecar (1/4 the bandwidth, exact integer dots) and keep only
  // the approximate top-(k * r) for the float rerank below. The
  // shortlist cut uses the same tie order as the final ranking, so it
  // is deterministic; when the candidate set already fits the
  // shortlist the quantized pass is skipped entirely and the result is
  // byte-identical to the exact path by construction.
  if (options_.quantized_scan && vecs.quantized() && k > 0) {
    const size_t shortlist =
        static_cast<size_t>(k) *
        static_cast<size_t>(options_.quantized_shortlist_multiplier);
    if (rows.size() > shortlist) {
      const QuantizedQuery qq = MakeQuantizedQuery(query_vec);
      std::vector<float> approx(rows.size());
      QuantizedCosineRows(vecs, qq, rows.data(), rows.size(),
                          approx.data());
      std::vector<int> kept;
      kept.reserve(shortlist);
      for (size_t i :
           SelectTopK(rows.size(), shortlist, by_score(approx.data()))) {
        kept.push_back(rows[i]);
      }
      rows = std::move(kept);
    }
  }
  std::vector<float> scores(rows.size());
  // Routed through the matrix (not kernels:: directly): in mapped mode
  // it splits base/delta segments itself, each row still one identical
  // kernel evaluation — bit-equal to the owned single pass.
  vecs.CosineRows(query_vec.data(),
                  kernels::InvNorm(query_vec.data(), query_vec.size()),
                  rows.data(), rows.size(), scores.data());
  const std::vector<size_t> top =
      SelectTopK(rows.size(), static_cast<size_t>(k), by_score(scores.data()));
  out.matches.reserve(top.size());
  for (size_t i : top) {
    out.matches.push_back(
        emit(refs[static_cast<size_t>(rows[i])], scores[i]));
  }
  return out;
}

ServiceShard::MatchSet ServiceShard::TopColumns(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id, int exclude_col) const {
  ReaderMutexLock lock(&mu_);
  return TopColumnsLocked(query, keys, k, exclude_id, exclude_col);
}

ServiceShard::MatchSet ServiceShard::TopColumnsLocked(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id, int exclude_col) const {
  auto self = id_to_slot_.find(exclude_id);
  const int self_slot = self == id_to_slot_.end() ? -1 : self->second;
  // Lock-held alias for the lambdas below: a lambda body is analyzed as
  // its own function, which cannot see that this frame holds mu_.
  const std::vector<TableSlot>& slots = slots_;
  return RankLocked(
      col_index_, col_hnsw_.get(), col_vecs_, col_refs_, query, keys, k,
      [&](const ColumnRef& ref) {
        if (!slots[static_cast<size_t>(ref.slot)].live) return false;
        return !(ref.slot == self_slot && ref.col == exclude_col);
      },
      [&](const ColumnRef& a, const ColumnRef& b) {
        const std::string& ida = slots[static_cast<size_t>(a.slot)].id;
        const std::string& idb = slots[static_cast<size_t>(b.slot)].id;
        if (ida != idb) return ida < idb;
        return a.col < b.col;
      },
      [&](const ColumnRef& ref, float score) {
        const TableSlot& s = slots[static_cast<size_t>(ref.slot)];
        ServiceMatch m;
        m.table_id = s.id;
        m.caption = s.caption;
        m.col = ref.col;
        m.score = score;
        return m;
      });
}

ServiceShard::MatchSet ServiceShard::TopTables(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id) const {
  ReaderMutexLock lock(&mu_);
  return TopTablesLocked(query, keys, k, exclude_id);
}

ServiceShard::MatchSet ServiceShard::TopTablesLocked(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id) const {
  auto self = id_to_slot_.find(exclude_id);
  const int self_slot = self == id_to_slot_.end() ? -1 : self->second;
  const std::vector<TableSlot>& slots = slots_;  // lock-held lambda alias
  return RankLocked(
      tbl_index_, tbl_hnsw_.get(), tbl_vecs_, tbl_refs_, query, keys, k,
      [&](int slot) {
        return slots[static_cast<size_t>(slot)].live && slot != self_slot;
      },
      [&](int a, int b) {
        return slots[static_cast<size_t>(a)].id <
               slots[static_cast<size_t>(b)].id;
      },
      [&](int slot, float score) {
        const TableSlot& s = slots[static_cast<size_t>(slot)];
        ServiceMatch m;
        m.table_id = s.id;
        m.caption = s.caption;
        m.score = score;
        return m;
      });
}

ServiceShard::MatchSet ServiceShard::TopEntities(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id, int exclude_row,
    int exclude_col) const {
  ReaderMutexLock lock(&mu_);
  return TopEntitiesLocked(query, keys, k, exclude_id, exclude_row,
                           exclude_col);
}

ServiceShard::MatchSet ServiceShard::TopEntitiesLocked(
    VecView query, const std::vector<uint64_t>& keys, int k,
    const std::string& exclude_id, int exclude_row,
    int exclude_col) const {
  auto self = id_to_slot_.find(exclude_id);
  const int self_slot = self == id_to_slot_.end() ? -1 : self->second;
  const std::vector<TableSlot>& slots = slots_;  // lock-held lambda alias
  return RankLocked(
      ent_index_, ent_hnsw_.get(), ent_vecs_, ent_refs_, query, keys, k,
      [&](const EntityRef& ref) {
        if (!slots[static_cast<size_t>(ref.slot)].live) return false;
        return !(ref.slot == self_slot && ref.row == exclude_row &&
                 ref.col == exclude_col);
      },
      [&](const EntityRef& a, const EntityRef& b) {
        const std::string& ida = slots[static_cast<size_t>(a.slot)].id;
        const std::string& idb = slots[static_cast<size_t>(b.slot)].id;
        if (ida != idb) return ida < idb;
        // col before row — the same total order as ServiceMatchOrder,
        // or the per-shard top-k cut and the merged output would
        // disagree on bit-equal-score ties.
        if (a.col != b.col) return a.col < b.col;
        return a.row < b.row;
      },
      [&](const EntityRef& ref, float score) {
        const TableSlot& s = slots[static_cast<size_t>(ref.slot)];
        ServiceMatch m;
        m.table_id = s.id;
        m.caption = s.caption;
        m.row = ref.row;
        m.col = ref.col;
        m.entity = ref.surface;
        m.score = score;
        return m;
      });
}

std::vector<ServiceShard::MatchSet> ServiceShard::TopColumnsBatch(
    const std::vector<ColumnProbe>& probes) const {
  ReaderMutexLock lock(&mu_);
  std::vector<MatchSet> out;
  out.reserve(probes.size());
  for (const ColumnProbe& p : probes) {
    out.push_back(
        TopColumnsLocked(p.query, *p.keys, p.k, *p.exclude_id,
                         p.exclude_col));
  }
  return out;
}

std::vector<ServiceShard::MatchSet> ServiceShard::TopTablesBatch(
    const std::vector<TableProbe>& probes) const {
  ReaderMutexLock lock(&mu_);
  std::vector<MatchSet> out;
  out.reserve(probes.size());
  for (const TableProbe& p : probes) {
    out.push_back(TopTablesLocked(p.query, *p.keys, p.k, *p.exclude_id));
  }
  return out;
}

std::vector<ServiceShard::MatchSet> ServiceShard::TopEntitiesBatch(
    const std::vector<EntityProbe>& probes) const {
  ReaderMutexLock lock(&mu_);
  std::vector<MatchSet> out;
  out.reserve(probes.size());
  for (const EntityProbe& p : probes) {
    out.push_back(TopEntitiesLocked(p.query, *p.keys, p.k, *p.exclude_id,
                                    p.exclude_row, p.exclude_col));
  }
  return out;
}

ServiceShard::AskPartial ServiceShard::AskCandidates(
    const std::vector<std::string>& query_terms, VecView query_vec,
    const std::vector<uint64_t>& tbl_keys, int pool) const {
  ReaderMutexLock lock(&mu_);
  AskPartial out;
  out.live = static_cast<size_t>(live_count_);
  // Lock-held aliases for the ordering lambdas below (lambda bodies are
  // analyzed as separate functions that cannot see this frame's lock).
  const std::vector<TableSlot>& slots = slots_;
  const std::vector<int>& tbl_refs = tbl_refs_;

  const float inv_q =
      kernels::InvNorm(query_vec.data(), query_vec.size());

  // Lexical stage: candidate slots come from the per-term postings
  // (only docs sharing a query term can score > 0 — exactly the old
  // full scan's surviving set, at postings cost instead of
  // O(live corpus) per query), each scored by doc-local saturated tf.
  std::vector<std::pair<double, int>> lex;  // (score, slot)
  std::vector<bool> seen(slots_.size());
  for (const auto& term : query_terms) {
    auto postings = lex_postings_.find(term);
    if (postings == lex_postings_.end()) continue;
    for (int s : postings->second) {
      if (!slots_[static_cast<size_t>(s)].live) continue;
      if (seen[static_cast<size_t>(s)]) continue;
      seen[static_cast<size_t>(s)] = true;
      const double score =
          LexicalScore(query_terms, slots_[static_cast<size_t>(s)].doc_tf);
      if (score > 0) lex.emplace_back(score, s);
    }
  }
  // (lex desc, id asc) is a strict total order over distinct slots, so
  // the bounded SelectTopK cut equals full sort + truncate exactly; the
  // postings can surface far more candidates than the pool keeps.
  const std::vector<size_t> lex_top =
      SelectTopK(lex.size(), static_cast<size_t>(pool),
                 [&](size_t a, size_t b) {
                   if (lex[a].first != lex[b].first) {
                     return lex[a].first > lex[b].first;
                   }
                   return slots[static_cast<size_t>(lex[a].second)].id <
                          slots[static_cast<size_t>(lex[b].second)].id;
                 });

  // One batched norm-free cosine pass over the surviving lexical rows
  // (cached inverse norms; bit-identical to pairwise CosineSimilarity).
  std::vector<int> lex_rows;
  lex_rows.reserve(lex_top.size());
  for (size_t i : lex_top) {
    lex_rows.push_back(slots_[static_cast<size_t>(lex[i].second)].tbl_row);
  }
  std::vector<float> lex_cos(lex_rows.size());
  tbl_vecs_.CosineRows(query_vec.data(), inv_q, lex_rows.data(),
                       lex_rows.size(), lex_cos.data());
  out.lexical.reserve(lex_top.size());
  for (size_t i = 0; i < lex_top.size(); ++i) {
    const auto& [lex_score, slot] = lex[lex_top[i]];
    const TableSlot& s = slots_[static_cast<size_t>(slot)];
    LexicalHit hit;
    hit.lex = lex_score;
    hit.match.table_id = s.id;
    hit.match.caption = s.caption;
    hit.match.score = lex_cos[i];
    out.lexical.push_back(std::move(hit));
  }

  // Dense stage: live candidates from the selected generator (graph
  // walk when the hnsw knob is on, LSH bucket probe otherwise), scored
  // by the same batched pass.
  std::vector<int> dense_candidates =
      (tbl_hnsw_ != nullptr && options_.index_kind == kIndexHnsw)
          ? tbl_hnsw_->Search(tbl_vecs_, query_vec,
                              std::max(options_.hnsw_ef_search, pool))
          : tbl_index_.QueryByKeys(tbl_keys);
  std::vector<int> dense_rows;
  for (int row : dense_candidates) {
    if (row < 0 || row >= static_cast<int>(tbl_refs_.size())) continue;
    if (!slots_[static_cast<size_t>(tbl_refs_[static_cast<size_t>(row)])]
             .live) {
      continue;
    }
    dense_rows.push_back(row);
  }
  // Quantized first pass over the dense candidates, mirroring
  // RankLocked: the final Ask cut keeps `pool` tables at most, so a
  // (pool * r) approximate shortlist bounds the exact rerank the same
  // way, through the same SelectTopK cut. Ties break on table id — the
  // partition-independent order the dense stage itself merges by.
  if (options_.quantized_scan && tbl_vecs_.quantized()) {
    const size_t shortlist =
        static_cast<size_t>(pool) *
        static_cast<size_t>(options_.quantized_shortlist_multiplier);
    if (dense_rows.size() > shortlist) {
      const QuantizedQuery qq = MakeQuantizedQuery(query_vec);
      std::vector<float> approx(dense_rows.size());
      QuantizedCosineRows(tbl_vecs_, qq, dense_rows.data(),
                          dense_rows.size(), approx.data());
      const auto table_id = [&](size_t i) -> const std::string& {
        return slots[static_cast<size_t>(
                         tbl_refs[static_cast<size_t>(dense_rows[i])])]
            .id;
      };
      std::vector<int> kept;
      kept.reserve(shortlist);
      for (size_t i : SelectTopK(dense_rows.size(), shortlist,
                                 [&](size_t a, size_t b) {
                                   if (approx[a] != approx[b]) {
                                     return approx[a] > approx[b];
                                   }
                                   return table_id(a) < table_id(b);
                                 })) {
        kept.push_back(dense_rows[i]);
      }
      dense_rows = std::move(kept);
    }
  }
  std::vector<float> dense_cos(dense_rows.size());
  tbl_vecs_.CosineRows(query_vec.data(), inv_q, dense_rows.data(),
                       dense_rows.size(), dense_cos.data());
  out.dense.reserve(dense_rows.size());
  for (size_t i = 0; i < dense_rows.size(); ++i) {
    const TableSlot& s = slots_[static_cast<size_t>(
        tbl_refs_[static_cast<size_t>(dense_rows[i])])];
    ServiceMatch m;
    m.table_id = s.id;
    m.caption = s.caption;
    m.score = dense_cos[i];
    out.dense.push_back(std::move(m));
  }
  return out;
}

// --- Introspection --------------------------------------------------------

size_t ServiceShard::live_count() const {
  ReaderMutexLock lock(&mu_);
  return static_cast<size_t>(live_count_);
}

size_t ServiceShard::slot_count() const {
  ReaderMutexLock lock(&mu_);
  return slots_.size();
}

size_t ServiceShard::indexed_columns() const {
  ReaderMutexLock lock(&mu_);
  return col_refs_.size();
}

size_t ServiceShard::indexed_entities() const {
  ReaderMutexLock lock(&mu_);
  return ent_refs_.size();
}

void ServiceShard::AppendLiveIds(std::vector<std::string>* out) const {
  ReaderMutexLock lock(&mu_);
  for (const auto& [id, slot] : id_to_slot_) out->push_back(id);
}

Status ServiceShard::ExportLive(std::vector<LiveTableRows>* out) const {
  ReaderMutexLock lock(&mu_);
  return ExportLiveLocked(out);
}

bool ServiceShard::is_mapped() const {
  ReaderMutexLock lock(&mu_);
  return store_keepalive_ != nullptr;
}

Result<Table> ServiceShard::MaterializeTableLocked(const TableSlot& s) const {
  if (s.table_loaded) return s.table;
  TABBIN_ASSIGN_OR_RETURN(Json json,
                          Json::Parse(std::string(s.json_ptr, s.json_len)));
  return TableFromJson(json);
}

Status ServiceShard::ExportLiveLocked(std::vector<LiveTableRows>* out) const {
  for (const TableSlot& s : slots_) {
    if (!s.live) continue;
    LiveTableRows rows;
    TABBIN_ASSIGN_OR_RETURN(rows.table, MaterializeTableLocked(s));
    rows.id = s.id;
    rows.table_vec =
        tbl_vecs_.row(static_cast<size_t>(s.tbl_row)).ToVector();
    for (int r = s.col_begin; r >= 0 && r < s.col_end; ++r) {
      rows.columns.emplace_back(
          col_refs_[static_cast<size_t>(r)].col,
          col_vecs_.row(static_cast<size_t>(r)).ToVector());
    }
    for (int e = s.ent_begin; e >= 0 && e < s.ent_end; ++e) {
      EntityRef ref = ent_refs_[static_cast<size_t>(e)];
      ref.slot = 0;  // re-assigned on insert
      rows.entities.emplace_back(
          std::move(ref), ent_vecs_.row(static_cast<size_t>(e)).ToVector());
    }
    out->push_back(std::move(rows));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scatter-gather coordinator
// ---------------------------------------------------------------------------

namespace {

// Runs fn(i) for every shard index. With more than one shard and a
// pool that actually has parallelism, shards 1..N-1 fan out across
// ThreadPool::Global() while shard 0 runs on the calling thread, and
// the call joins before returning; on a single-core pool (or a single
// shard) everything runs inline — per-shard ranking is cheap, and
// submit/join overhead would only serialize queries behind the one
// worker. fn writes only to its own slot of any result vector, so no
// synchronization is needed beyond the join.
template <typename Fn>
void ForEachShard(const std::vector<ServiceShard*>& shards, const Fn& fn) {
  // Inline when called FROM a pool worker: submitting shard chunks back
  // into the same global pool and blocking on their futures wedges
  // permanently once every worker is blocked in exactly this spot (a
  // query fanned out from inside a submitted task — e.g. a caller doing
  // its own ParallelFor over queries — would otherwise deadlock).
  if (shards.size() <= 1 || ThreadPool::Global().num_threads() <= 1 ||
      ThreadPool::InPoolWorker()) {
    for (size_t i = 0; i < shards.size(); ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(shards.size() - 1);
  for (size_t i = 1; i < shards.size(); ++i) {
    futures.push_back(ThreadPool::Global().Submit([&fn, i] { fn(i); }));
  }
  fn(0);
  for (auto& f : futures) f.get();
}

// A free-text question enters the embedding space as a minimal table:
// the question is both caption and single data cell, so TableComposite1
// places it where topically similar tables live.
Table QuestionTable(const std::string& question) {
  Table t(1, 1, /*hmd_rows=*/0, /*vmd_cols=*/0);
  t.SetValue(0, 0, Value::String(question));
  t.set_caption(question);
  return t;
}

Status ValidateInline(const Table* table) {
  Status st = table->Validate();
  if (!st.ok()) {
    return Status::InvalidArgument("query table invalid: " + st.message());
  }
  return Status::OK();
}

// Merges per-shard ranked contributions into the global top-k. Each
// shard list is already capped at k and ordered by ServiceMatchOrder;
// the global top-k is a subset of the union (any globally top-k item
// ranks top-k within its shard), so a sort+truncate over <= k*N items
// reproduces the single-index ranking exactly.
QueryResponse MergeMatchSets(std::vector<ServiceShard::MatchSet> partials,
                             int k) {
  QueryResponse response;
  size_t total = 0;
  for (const auto& p : partials) {
    response.candidates += p.candidates;
    total += p.matches.size();
  }
  response.matches.reserve(total);
  for (auto& p : partials) {
    for (auto& m : p.matches) response.matches.push_back(std::move(m));
  }
  std::sort(response.matches.begin(), response.matches.end(),
            ServiceMatchOrder);
  if (static_cast<int>(response.matches.size()) > k) {
    response.matches.resize(static_cast<size_t>(k));
  }
  return response;
}

}  // namespace

std::vector<float> ServingColumnEmbedding(const ServingCore& core,
                                          const Table& table, int col) {
  auto enc = core.engine->Encode(table);
  return core.system->ColumnComposite(*enc, col);
}

std::vector<float> ServingTableEmbedding(const ServingCore& core,
                                         const Table& table) {
  auto enc = core.engine->Encode(table);
  return core.system->TableComposite1(*enc);
}

std::vector<float> ServingEntityEmbedding(const ServingCore& core,
                                          const Table& table, int row,
                                          int col) {
  auto enc = core.engine->Encode(table);
  return core.system->EntityEmbedding(*enc, row, col);
}

Result<AddReport> ScatterAddTables(const ServingCore& core,
                                   const std::vector<Table>& tables) {
  const std::vector<ServiceShard*>& shards = *core.shards;
  AddReport report;
  if (tables.empty()) return report;

  std::vector<std::string> ids;
  ids.reserve(tables.size());
  for (const Table& t : tables) {
    Status st = t.Validate();
    if (!st.ok()) {
      return Status::InvalidArgument("AddTables: table '" + t.id() +
                                     "': " + st.message());
    }
    ids.push_back(CanonicalTableId(t));
  }

  // Encode the batch before any shard lock is taken: forward passes are
  // the expensive part and the engine has its own synchronization, so
  // readers keep being served while new tables encode. Embeddings are
  // derived outside the locks too; each shard's writer critical section
  // is appends and index inserts only.
  auto encodings = core.engine->EncodeBatch(tables);
  std::vector<ServiceShard::PreparedTable> prepared;
  prepared.reserve(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    TABBIN_ASSIGN_OR_RETURN(
        ServiceShard::PreparedTable p,
        ServiceShard::Prepare(*core.system, *core.options, tables[i],
                              *encodings[i]));
    prepared.push_back(std::move(p));
  }

  if (core.options->encoder_cache_capacity == 0) {
    // Documented auto mode: the cache grows with the corpus so steady-
    // state queries never re-run forward passes.
    size_t slots = 0;
    for (ServiceShard* shard : shards) slots += shard->slot_count();
    core.engine->Reserve(slots + tables.size());
  }

  // Group by owning shard, preserving batch order within each group so
  // same-id replacement semantics inside one batch are unchanged.
  std::vector<std::vector<Table>> shard_tables(shards.size());
  std::vector<std::vector<std::string>> shard_ids(shards.size());
  std::vector<std::vector<ServiceShard::PreparedTable>> shard_prepared(
      shards.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    const size_t s = ShardIndexFor(ids[i], shards.size());
    shard_tables[s].push_back(tables[i]);
    shard_ids[s].push_back(std::move(ids[i]));
    shard_prepared[s].push_back(std::move(prepared[i]));
  }
  // Per-shard inserts are cheap memory operations; run them serially so
  // the report needs no synchronization. Each shard's batch is applied
  // atomically under that shard's writer lock; cross-shard visibility
  // is per-shard (a reader may observe shard A's half of a batch before
  // shard B's).
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shard_tables[s].empty()) continue;
    shards[s]->InsertBatch(std::move(shard_tables[s]),
                           std::move(shard_ids[s]),
                           std::move(shard_prepared[s]), &report);
  }
  return report;
}

Status ScatterRemoveTable(const ServingCore& core, const std::string& id) {
  const std::vector<ServiceShard*>& shards = *core.shards;
  return shards[ShardIndexFor(id, shards.size())]->Remove(id);
}

Status ScatterCompact(const ServingCore& core) {
  for (ServiceShard* shard : *core.shards) {
    TABBIN_RETURN_IF_ERROR(shard->Compact());
  }
  return Status::OK();
}

namespace {

// The per-query stage every similarity request goes through before any
// lock is taken: validation, query-vector production (inline encode or
// stored-row resolve), and ONE LSH key hash. Shared verbatim by the
// single-query Scatter* calls and the batched coalesced path — the
// code identity that keeps batched answers byte-equal to sequential
// ones.
struct QueryPlan {
  std::vector<float> qvec;
  std::vector<uint64_t> keys;
  std::string exclude_id;
};

Result<QueryPlan> PlanColumnQuery(const ServingCore& core,
                                  const ColumnQueryRequest& req) {
  if (req.k <= 0) return Status::InvalidArgument("SimilarColumns: k <= 0");
  const std::vector<ServiceShard*>& shards = *core.shards;
  QueryPlan plan;
  if (req.table != nullptr) {
    TABBIN_RETURN_IF_ERROR(ValidateInline(req.table));
    if (req.col < 0 || req.col >= req.table->cols()) {
      return Status::OutOfRange("SimilarColumns: column " +
                                std::to_string(req.col) + " out of range");
    }
    // Inline query tables encode before any lock is taken: forward
    // passes must never stall writers behind a held reader lock.
    plan.qvec = ServingColumnEmbedding(core, *req.table, req.col);
  } else {
    plan.exclude_id = req.table_id;
    ServiceShard* owner =
        shards[ShardIndexFor(req.table_id, shards.size())];
    TABBIN_ASSIGN_OR_RETURN(ServiceShard::Resolved r,
                            owner->ResolveColumn(req.table_id, req.col));
    plan.qvec = r.needs_encode
                    ? ServingColumnEmbedding(core, r.table_copy, req.col)
                    : std::move(r.vec);
  }
  plan.keys = core.hashers->col.QueryKeys(plan.qvec);
  return plan;
}

Result<QueryPlan> PlanTableQuery(const ServingCore& core,
                                 const TableQueryRequest& req) {
  if (req.k <= 0) return Status::InvalidArgument("SimilarTables: k <= 0");
  const std::vector<ServiceShard*>& shards = *core.shards;
  QueryPlan plan;
  if (req.table != nullptr) {
    TABBIN_RETURN_IF_ERROR(ValidateInline(req.table));
    plan.qvec = ServingTableEmbedding(core, *req.table);  // outside locks
  } else {
    plan.exclude_id = req.table_id;
    ServiceShard* owner =
        shards[ShardIndexFor(req.table_id, shards.size())];
    TABBIN_ASSIGN_OR_RETURN(ServiceShard::Resolved r,
                            owner->ResolveTable(req.table_id));
    plan.qvec = std::move(r.vec);  // the table row is always stored
  }
  plan.keys = core.hashers->tbl.QueryKeys(plan.qvec);
  return plan;
}

Result<QueryPlan> PlanEntityQuery(const ServingCore& core,
                                  const EntityQueryRequest& req) {
  if (req.k <= 0) return Status::InvalidArgument("SimilarEntities: k <= 0");
  const std::vector<ServiceShard*>& shards = *core.shards;
  QueryPlan plan;
  if (req.table != nullptr) {
    TABBIN_RETURN_IF_ERROR(ValidateInline(req.table));
    if (req.row < 0 || req.row >= req.table->rows() || req.col < 0 ||
        req.col >= req.table->cols()) {
      return Status::OutOfRange("SimilarEntities: cell (" +
                                std::to_string(req.row) + ", " +
                                std::to_string(req.col) + ") out of range");
    }
    plan.qvec = ServingEntityEmbedding(core, *req.table, req.row, req.col);
  } else {
    plan.exclude_id = req.table_id;
    ServiceShard* owner =
        shards[ShardIndexFor(req.table_id, shards.size())];
    TABBIN_ASSIGN_OR_RETURN(
        ServiceShard::Resolved r,
        owner->ResolveEntity(req.table_id, req.row, req.col));
    plan.qvec =
        r.needs_encode
            ? ServingEntityEmbedding(core, r.table_copy, req.row, req.col)
            : std::move(r.vec);
  }
  plan.keys = core.hashers->ent.QueryKeys(plan.qvec);
  return plan;
}

// Batched scatter skeleton shared by the three endpoints: plan every
// request (outside all locks), build the probe list for the plans that
// survived, rank the whole batch under one reader-lock hold per shard,
// then merge per query. plan_fn(req) -> Result<QueryPlan>;
// probe_fn(plan, req) -> shard Probe; batch_fn(shard, probes) ->
// per-probe MatchSets.
template <typename Request, typename Probe, typename PlanFn,
          typename ProbeFn, typename BatchFn>
std::vector<Result<QueryResponse>> ScatterBatch(
    const ServingCore& core, const std::vector<Request>& reqs,
    const PlanFn& plan_fn, const ProbeFn& probe_fn,
    const BatchFn& batch_fn) {
  const std::vector<ServiceShard*>& shards = *core.shards;
  std::vector<Result<QueryPlan>> plans;
  plans.reserve(reqs.size());
  std::vector<Probe> probes;
  for (size_t i = 0; i < reqs.size(); ++i) {
    plans.push_back(plan_fn(core, reqs[i]));
  }
  // Probes point into `plans`, which is fully built (and never resized
  // again) before the first pointer is taken.
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!plans[i].ok()) continue;
    probes.push_back(probe_fn(plans[i].value(), reqs[i]));
  }
  std::vector<std::vector<ServiceShard::MatchSet>> per_shard(shards.size());
  ForEachShard(shards, [&](size_t s) {
    per_shard[s] = batch_fn(*shards[s], probes);
  });
  std::vector<Result<QueryResponse>> out;
  out.reserve(reqs.size());
  size_t vi = 0;  // position within the planned (probe) subsequence
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!plans[i].ok()) {
      out.push_back(plans[i].status());
      continue;
    }
    std::vector<ServiceShard::MatchSet> partials;
    partials.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
      partials.push_back(std::move(per_shard[s][vi]));
    }
    out.push_back(MergeMatchSets(std::move(partials), reqs[i].k));
    ++vi;
  }
  return out;
}

}  // namespace

Result<QueryResponse> ScatterSimilarColumns(const ServingCore& core,
                                            const ColumnQueryRequest& req) {
  TABBIN_ASSIGN_OR_RETURN(QueryPlan plan, PlanColumnQuery(core, req));
  const std::vector<ServiceShard*>& shards = *core.shards;
  std::vector<ServiceShard::MatchSet> partials(shards.size());
  ForEachShard(shards, [&](size_t i) {
    partials[i] = shards[i]->TopColumns(plan.qvec, plan.keys, req.k,
                                        plan.exclude_id, req.col);
  });
  return MergeMatchSets(std::move(partials), req.k);
}

Result<QueryResponse> ScatterSimilarTables(const ServingCore& core,
                                           const TableQueryRequest& req) {
  TABBIN_ASSIGN_OR_RETURN(QueryPlan plan, PlanTableQuery(core, req));
  const std::vector<ServiceShard*>& shards = *core.shards;
  std::vector<ServiceShard::MatchSet> partials(shards.size());
  ForEachShard(shards, [&](size_t i) {
    partials[i] = shards[i]->TopTables(plan.qvec, plan.keys, req.k,
                                       plan.exclude_id);
  });
  return MergeMatchSets(std::move(partials), req.k);
}

Result<QueryResponse> ScatterSimilarEntities(const ServingCore& core,
                                             const EntityQueryRequest& req) {
  TABBIN_ASSIGN_OR_RETURN(QueryPlan plan, PlanEntityQuery(core, req));
  const std::vector<ServiceShard*>& shards = *core.shards;
  std::vector<ServiceShard::MatchSet> partials(shards.size());
  ForEachShard(shards, [&](size_t i) {
    partials[i] = shards[i]->TopEntities(plan.qvec, plan.keys, req.k,
                                         plan.exclude_id, req.row, req.col);
  });
  return MergeMatchSets(std::move(partials), req.k);
}

std::vector<Result<QueryResponse>> ScatterSimilarColumnsBatch(
    const ServingCore& core, const std::vector<ColumnQueryRequest>& reqs) {
  return ScatterBatch<ColumnQueryRequest, ServiceShard::ColumnProbe>(
      core, reqs, PlanColumnQuery,
      [](const QueryPlan& plan, const ColumnQueryRequest& req) {
        return ServiceShard::ColumnProbe{plan.qvec, &plan.keys, req.k,
                                         &plan.exclude_id, req.col};
      },
      [](const ServiceShard& shard,
         const std::vector<ServiceShard::ColumnProbe>& probes) {
        return shard.TopColumnsBatch(probes);
      });
}

std::vector<Result<QueryResponse>> ScatterSimilarTablesBatch(
    const ServingCore& core, const std::vector<TableQueryRequest>& reqs) {
  return ScatterBatch<TableQueryRequest, ServiceShard::TableProbe>(
      core, reqs, PlanTableQuery,
      [](const QueryPlan& plan, const TableQueryRequest& req) {
        return ServiceShard::TableProbe{plan.qvec, &plan.keys, req.k,
                                        &plan.exclude_id};
      },
      [](const ServiceShard& shard,
         const std::vector<ServiceShard::TableProbe>& probes) {
        return shard.TopTablesBatch(probes);
      });
}

std::vector<Result<QueryResponse>> ScatterSimilarEntitiesBatch(
    const ServingCore& core, const std::vector<EntityQueryRequest>& reqs) {
  return ScatterBatch<EntityQueryRequest, ServiceShard::EntityProbe>(
      core, reqs, PlanEntityQuery,
      [](const QueryPlan& plan, const EntityQueryRequest& req) {
        return ServiceShard::EntityProbe{plan.qvec, &plan.keys, req.k,
                                         &plan.exclude_id, req.row, req.col};
      },
      [](const ServiceShard& shard,
         const std::vector<ServiceShard::EntityProbe>& probes) {
        return shard.TopEntitiesBatch(probes);
      });
}

Result<AskResponse> ScatterAsk(const ServingCore& core,
                               const AskRequest& req) {
  if (req.question.empty()) {
    return Status::InvalidArgument("Ask: empty question");
  }
  if (req.k <= 0) return Status::InvalidArgument("Ask: k <= 0");
  const std::vector<ServiceShard*>& shards = *core.shards;
  // Bound k before the 3 * k pool sizing below: CLI-supplied values near
  // INT_MAX must clamp, not overflow.
  const int k = std::min(req.k, 1 << 20);
  const int pool = 3 * k;

  // The question embeds as a one-cell table; EncodeAll is inference-only
  // and thread-safe, and runs before any lock so it never stalls
  // writers. Deliberately bypasses the engine cache so ad-hoc questions
  // never evict corpus encodings.
  const Table pseudo = QuestionTable(req.question);
  const std::vector<float> qvec =
      core.system->TableComposite1(core.system->EncodeAll(pseudo));

  // Sorted distinct query terms: the lexical scores sum term
  // contributions in one fixed order, so every shard — and the
  // single-shard service — computes bit-identical scores.
  std::vector<std::string> terms = PreTokenize(req.question);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const std::vector<uint64_t> tbl_keys = core.hashers->tbl.QueryKeys(qvec);
  std::vector<ServiceShard::AskPartial> partials(shards.size());
  ForEachShard(shards, [&](size_t i) {
    partials[i] = shards[i]->AskCandidates(terms, qvec, tbl_keys, pool);
  });

  AskResponse response;
  size_t total_live = 0;
  for (const auto& p : partials) total_live += p.live;
  if (total_live == 0) {
    response.answer = "no tables indexed";
    return response;
  }

  // Global lexical top-pool: each shard already returned its own
  // top-pool by the doc-local score, so sorting the union and
  // truncating reproduces the single-index lexical cut exactly.
  std::vector<ServiceShard::LexicalHit> lexical;
  for (auto& p : partials) {
    for (auto& hit : p.lexical) lexical.push_back(std::move(hit));
  }
  std::sort(lexical.begin(), lexical.end(),
            [](const ServiceShard::LexicalHit& a,
               const ServiceShard::LexicalHit& b) {
              if (a.lex != b.lex) return a.lex > b.lex;
              return a.match.table_id < b.match.table_id;
            });
  if (static_cast<int>(lexical.size()) > pool) {
    lexical.resize(static_cast<size_t>(pool));
  }

  // Candidate pool: lexical cut ∪ dense LSH candidates, deduplicated by
  // table id, then exact cosine ranking — the same lexical ∪ dense
  // recipe the Table 14 grounding uses.
  std::map<std::string, ServiceMatch> pool_map;
  for (auto& hit : lexical) {
    pool_map.emplace(hit.match.table_id, std::move(hit.match));
  }
  for (auto& p : partials) {
    for (auto& m : p.dense) {
      pool_map.emplace(m.table_id, std::move(m));
    }
  }
  response.tables.reserve(pool_map.size());
  for (auto& [id, m] : pool_map) response.tables.push_back(std::move(m));
  std::sort(response.tables.begin(), response.tables.end(),
            ServiceMatchOrder);
  if (static_cast<int>(response.tables.size()) > k) {
    response.tables.resize(static_cast<size_t>(k));
  }

  if (response.tables.empty()) {
    response.answer = "no grounding found for the question";
  } else {
    const ServiceMatch& top = response.tables.front();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " (score %.3f)", top.score);
    response.answer = "grounded in table '" + top.caption + "' [" +
                      top.table_id + "]" + buf;
  }
  return response;
}

}  // namespace tabbin
