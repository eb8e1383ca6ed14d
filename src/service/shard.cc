#include "service/shard.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "baselines/word2vec.h"
#include "core/encoder_engine.h"
#include "io/table_io.h"
#include "tensor/kernels.h"
#include "text/wordpiece.h"
#include "util/logging.h"
#include "util/top_k.h"

namespace tabbin {

int ServiceTaskDim(const TabBiNSystem& sys, int task) {
  static constexpr int kHiddenMultiple[kNumServiceTasks] = {3, 2, 1};
  return kHiddenMultiple[task] * sys.hidden();
}

Status CheckQueryCell(ServiceTask task, int rows, int cols, int row,
                      int col) {
  if (task == kTaskColumn && (col < 0 || col >= cols)) {
    return Status::OutOfRange("SimilarColumns: column " +
                              std::to_string(col) + " out of range");
  }
  if (task == kTaskEntity &&
      (row < 0 || row >= rows || col < 0 || col >= cols)) {
    return Status::OutOfRange("SimilarEntities: cell (" +
                              std::to_string(row) + ", " +
                              std::to_string(col) + ") out of range");
  }
  return Status::OK();
}

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
                          PagedSnapshotWriter* snapshot) {
  BinaryWriter* opts = snapshot->AddSection("service.options");
  opts->WriteU64(options.encoder_cache_capacity);
  opts->WriteI32(options.lsh_bits);
  opts->WriteI32(options.lsh_tables);
  opts->WriteU64(options.lsh_seed);
  opts->WriteI32(options.index_entities ? 1 : 0);
  opts->WriteI32(options.max_entities_per_table);
}

Result<ServiceOptions> ReadServiceOptions(
    const PagedSnapshotReader& snapshot) {
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

ServiceOptions ClampedOptions(ServiceOptions o) {
  o.quantized_shortlist_multiplier =
      std::max(1, o.quantized_shortlist_multiplier);
  o.hnsw_m = std::max(2, o.hnsw_m);
  o.hnsw_ef_construction = std::max(o.hnsw_m, o.hnsw_ef_construction);
  o.hnsw_ef_search = std::max(1, o.hnsw_ef_search);
  return o;
}

HnswOptions GraphOptions(const ServiceOptions& o) {
  return HnswOptions{o.hnsw_m, o.hnsw_ef_construction, o.lsh_seed};
}

// Widths are validated before any row reaches an index, so a rejected
// insert is a programming error worth shouting about rather than
// silently dropping.
void MustInsert(const Status& st) {
  if (!st.ok()) {
    TABBIN_LOG(ERROR) << "ServiceShard: index insert rejected: "
                      << st.ToString();
  }
}

}  // namespace

DocTermCounts ServiceDocTermFrequencies(const Table& table) {
  const std::vector<std::string> tokens =
      PreTokenize(ServiceDocumentText(table));
  // Count over views of the tokens, then sort only the distinct terms: a
  // table has a few dozen of them among a few hundred tokens, and
  // sorting every token instead took about twice as long.
  std::unordered_map<std::string_view, int> counts;
  counts.reserve(tokens.size());
  for (const std::string& token : tokens) ++counts[token];
  std::vector<std::pair<std::string_view, int>> sorted(counts.begin(),
                                                       counts.end());
  std::sort(sorted.begin(), sorted.end());
  DocTermCounts tf;
  tf.reserve(sorted.size());
  for (const auto& [term, count] : sorted) {
    tf.emplace_back(std::string(term), count);
  }
  return tf;
}

// ---------------------------------------------------------------------------
// TaskIndex
// ---------------------------------------------------------------------------

ServiceShard::TaskIndex::TaskIndex(int dim, const ServiceOptions& options)
    : lsh(dim, options.lsh_bits, options.lsh_tables, options.lsh_seed) {
  // Both are set up before any row exists, so every append maintains
  // them from here on — snapshot-restore inserts included, which is how
  // int8 codes are recomputed on load without ever being serialized.
  if (options.quantized_scan) vecs.EnableQuantization();
  if (options.index_kind == kIndexHnsw) {
    hnsw = std::make_unique<HnswIndex>(dim, GraphOptions(options));
  }
}

Status ServiceShard::TaskIndex::Append(Row row) {
  vecs.AppendRow(row.vec);
  refs.push_back(std::move(row.ref));
  const int id = static_cast<int>(refs.size()) - 1;
  if (hnsw) return hnsw->Insert(vecs, id);
  return row.keys.empty() ? lsh.Insert(id, row.vec)
                          : lsh.InsertKeys(id, row.keys);
}

std::vector<int> ServiceShard::TaskIndex::Candidates(
    VecView query, const std::vector<uint64_t>& keys, int beam) const {
  return hnsw ? hnsw->Search(vecs, query, beam) : lsh.QueryByKeys(keys);
}

// ---------------------------------------------------------------------------
// ServiceShard
// ---------------------------------------------------------------------------

// Direct member init: constructors precede sharing, so no lock is
// needed or annotated here.
ServiceShard::ServiceShard(const TabBiNSystem* system,
                           const ServiceOptions& options)
    : system_(system),
      options_(ClampedOptions(options)),
      tasks_{TaskIndex(ServiceTaskDim(*system, kTaskTable), options_),
             TaskIndex(ServiceTaskDim(*system, kTaskColumn), options_),
             TaskIndex(ServiceTaskDim(*system, kTaskEntity), options_)} {}

Result<ServiceShard::PreparedTable> ServiceShard::Prepare(
    const TabBiNSystem& sys, const ServiceOptions& options,
    const std::vector<LshIndex>& hashers, const Table& t, std::string id,
    const TableEncodings& enc) {
  PreparedTable p;
  p.rows[kTaskTable].push_back({Ref{}, sys.TableComposite1(enc), {}});
  for (int c = t.vmd_cols(); c < t.cols(); ++c) {
    Ref ref;
    ref.col = c;
    p.rows[kTaskColumn].push_back(
        {std::move(ref), sys.ColumnComposite(enc, c), {}});
  }
  if (options.index_entities) {
    int budget = options.max_entities_per_table;
    for (int r = t.hmd_rows(); r < t.rows() && budget > 0; ++r) {
      for (int c = t.vmd_cols(); c < t.cols() && budget > 0; ++c) {
        const Cell& cell = t.cell(r, c);
        if (cell.has_nested() || cell.value.kind() != ValueKind::kString) {
          continue;
        }
        Ref ref;
        ref.row = r;
        ref.col = c;
        ref.surface = cell.value.text();
        p.rows[kTaskEntity].push_back(
            {std::move(ref), sys.EntityEmbedding(enc, r, c), {}});
        --budget;
      }
    }
  }
  for (int task = 0; task < kNumServiceTasks; ++task) {
    for (Row& row : p.rows[task]) {
      if (static_cast<int>(row.vec.size()) != ServiceTaskDim(sys, task)) {
        return Status::Internal(std::string("AddTables: unexpected ") +
                                kServiceTaskNames[task] +
                                " embedding width");
      }
      row.keys = hashers[static_cast<size_t>(task)].QueryKeys(row.vec);
    }
  }
  p.table = t;
  p.id = std::move(id);
  p.doc_tf = ServiceDocTermFrequencies(p.table);
  return p;
}

void ServiceShard::InsertPreparedLocked(PreparedTable&& prepared,
                                        AddReport* report) {
  auto it = id_to_slot_.find(prepared.id);
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
  s.table = std::move(prepared.table);
  s.caption = s.table.caption();
  s.grid_rows = s.table.rows();
  s.grid_cols = s.table.cols();
  s.id = std::move(prepared.id);
  for (auto& [term, count] : prepared.doc_tf) {
    lex_postings_[std::move(term)].push_back({slot, count});
  }
  // The postings now hold the only copy; free this one now rather than
  // when the whole batch is dropped, or a corpus-sized AddTables would
  // carry every table's term list to the end of its inserts.
  prepared.doc_tf = DocTermCounts();
  id_to_slot_[s.id] = slot;
  ++live_count_;

  for (int t = 0; t < kNumServiceTasks; ++t) {
    TaskIndex& index = tasks_[t];
    std::vector<Row>& rows = prepared.rows[t];
    if (!rows.empty()) {
      const int begin = static_cast<int>(index.refs.size());
      s.rows[t] = {begin, begin + static_cast<int>(rows.size())};
    }
    for (Row& row : rows) {
      row.ref.slot = slot;
      MustInsert(index.Append(std::move(row)));
    }
  }
  report->columns_indexed +=
      static_cast<int>(prepared.rows[kTaskColumn].size());
  report->entities_indexed +=
      static_cast<int>(prepared.rows[kTaskEntity].size());
}

void ServiceShard::InsertBatch(std::vector<PreparedTable> batch,
                               AddReport* report) {
  WriterMutexLock lock(&mu_);
  for (PreparedTable& prepared : batch) {
    InsertPreparedLocked(std::move(prepared), report);
  }
}

Status ServiceShard::InsertRows(PreparedTable&& rows, AddReport* report) {
  if (rows.rows[kTaskTable].size() != 1) {
    return Status::ParseError(
        "service shard restore: a table needs exactly one table row");
  }
  for (int t = 0; t < kNumServiceTasks; ++t) {
    const std::string what =
        std::string("service shard restore: ") + kServiceTaskNames[t];
    for (const Row& row : rows.rows[t]) {
      if (static_cast<int>(row.vec.size()) != ServiceTaskDim(*system_, t)) {
        return Status::ParseError(what + " embedding width mismatch");
      }
      if (!CheckQueryCell(static_cast<ServiceTask>(t), rows.table.rows(),
                          rows.table.cols(), row.ref.row, row.ref.col)
               .ok()) {
        return Status::ParseError(what + " cell out of range");
      }
    }
  }
  WriterMutexLock lock(&mu_);
  InsertPreparedLocked(std::move(rows), report);
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
  for (TaskIndex& index : tasks_) {
    if (on) {
      index.vecs.EnableQuantization();
    } else {
      index.vecs.DisableQuantization();
    }
  }
}

void ServiceShard::SetIndexKind(IndexKind kind, int ef_search) {
  WriterMutexLock lock(&mu_);
  if (ef_search > 0) options_.hnsw_ef_search = ef_search;
  options_.index_kind = kind;
  const bool graphs = tasks_[kTaskTable].hnsw != nullptr;
  if (kind != kIndexHnsw && graphs) {
    // The LSH indexes sat empty while the graphs generated candidates;
    // rebuilt in row order they equal the buckets an LSH shard would
    // have maintained, so the reference path returns byte for byte.
    BuildLshLocked();
    for (TaskIndex& index : tasks_) index.hnsw.reset();
  } else if (kind == kIndexHnsw && !graphs) {
    BuildHnswLocked();
    for (TaskIndex& index : tasks_) index.lsh.Clear();
  }
}

void ServiceShard::BuildLshLocked() {
  // Every row, tombstoned slots' and mapped ones included: an LSH shard
  // keeps dead rows in its buckets until Compact, and the `candidates`
  // counts (and the saved bytes) must match it.
  for (TaskIndex& index : tasks_) {
    index.lsh.Clear();
    for (size_t r = 0; r < index.vecs.rows(); ++r) {
      MustInsert(index.lsh.Insert(static_cast<int>(r), index.vecs.row(r)));
    }
  }
}

void ServiceShard::BuildHnswLocked() {
  // Inserting in row order reproduces the graph an always-on shard
  // would have built incrementally — node id i IS matrix row i, so no
  // id remap exists anywhere.
  for (int t = 0; t < kNumServiceTasks; ++t) {
    TaskIndex& index = tasks_[t];
    index.hnsw = std::make_unique<HnswIndex>(ServiceTaskDim(*system_, t),
                                             GraphOptions(options_));
    for (size_t r = 0; r < index.vecs.rows(); ++r) {
      MustInsert(index.hnsw->Insert(index.vecs, static_cast<int>(r)));
    }
  }
  // Tombstone rows whose owning slot died before the build: searches
  // route through them but never return them, exactly as if MarkDead
  // had been called at removal time.
  for (const TableSlot& s : slots_) {
    if (!s.live) MarkSlotDeadInHnswLocked(s);
  }
}

void ServiceShard::MarkSlotDeadInHnswLocked(const TableSlot& s) {
  for (int t = 0; t < kNumServiceTasks; ++t) {
    HnswIndex* graph = tasks_[t].hnsw.get();
    if (graph == nullptr) continue;
    for (int r = s.rows[t].begin; r >= 0 && r < s.rows[t].end; ++r) {
      graph->MarkDead(r);
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
    for (TaskIndex& index : tasks_) {
      index.vecs.MaterializeOwned();
      if (index.hnsw) index.hnsw->MaterializeOwned();
    }
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
  std::vector<PreparedTable> live;
  live.reserve(static_cast<size_t>(live_count_));
  TABBIN_RETURN_IF_ERROR(ExportLiveLocked(&live));

  slots_.clear();
  id_to_slot_.clear();
  live_count_ = 0;
  // Fresh indexes re-enable the int8 sidecars and re-create empty graphs
  // per the current knobs, so the re-inserts below rebuild them over the
  // surviving rows only — the rebuild that drops tombstoned graph
  // waypoints for real.
  for (int t = 0; t < kNumServiceTasks; ++t) {
    tasks_[t] = TaskIndex(ServiceTaskDim(*system_, t), options_);
  }
  lex_postings_.clear();
  // The export above copied everything to heap; nothing below reads the
  // mapping again, so a mapped shard drops it here.
  store_keepalive_.reset();

  AddReport discard;
  for (PreparedTable& rows : live) {
    InsertPreparedLocked(std::move(rows), &discard);
  }
  return Status::OK();
}

// --- Reads ----------------------------------------------------------------

Result<ServiceShard::Resolved> ServiceShard::Resolve(ServiceTask task,
                                                     const std::string& id,
                                                     int row,
                                                     int col) const {
  ReaderMutexLock lock(&mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no live table with id '" + id + "'");
  }
  const TableSlot& s = slots_[static_cast<size_t>(it->second)];
  TABBIN_RETURN_IF_ERROR(
      CheckQueryCell(task, s.grid_rows, s.grid_cols, row, col));
  const TaskIndex& index = tasks_[task];
  Resolved r;
  for (int i = s.rows[task].begin; i >= 0 && i < s.rows[task].end; ++i) {
    const Ref& ref = index.refs[static_cast<size_t>(i)];
    if (ref.row == row && ref.col == col) {
      r.vec = index.vecs.row(static_cast<size_t>(i)).ToVector();
      return r;
    }
  }
  // The column or cell is queryable but not indexed (a VMD column; a
  // numeric, nested or over-budget cell): hand back a copy for the
  // caller to encode outside every lock.
  TABBIN_ASSIGN_OR_RETURN(r.table_copy, MaterializeTableLocked(s));
  r.needs_encode = true;
  return r;
}

ServiceShard::MatchSet ServiceShard::RankLocked(const Probe& probe) const {
  auto self = id_to_slot_.find(*probe.exclude_id);
  const int self_slot = self == id_to_slot_.end() ? -1 : self->second;
  // Lock-held aliases for the lambdas below: a lambda body is analyzed
  // as its own function, which cannot see that this frame holds mu_.
  const std::vector<TableSlot>& slots = slots_;
  const TaskIndex& index = tasks_[probe.task];
  const std::vector<Ref>& refs = index.refs;

  MatchSet out;
  // Candidate generation is the ONLY stage the index kind changes; the
  // graph walk's beam is ef_search, clamped to k so a caller asking for
  // more results than the beam never gets silently truncated recall.
  const std::vector<int> candidates = index.Candidates(
      probe.query, *probe.keys, std::max(options_.hnsw_ef_search, probe.k));
  out.candidates = static_cast<int>(candidates.size());
  // Accepted candidates first, then ONE norm-free batched pass over
  // their rows: the matrix caches per-row inverse norms, so each score
  // is a single kernel dot — bit-identical to pairwise
  // CosineSimilarity, which evaluates the same kernel expression.
  std::vector<int> rows;
  rows.reserve(candidates.size());
  for (int id : candidates) {
    if (id < 0 || id >= static_cast<int>(refs.size())) continue;
    const Ref& ref = refs[static_cast<size_t>(id)];
    if (!slots[static_cast<size_t>(ref.slot)].live) continue;
    if (ref.slot == self_slot && ref.row == probe.exclude_row &&
        ref.col == probe.exclude_col) {
      continue;
    }
    rows.push_back(id);
  }
  // Descending score, then (table id, col, row) — ServiceMatchOrder's
  // tie order, never internal row ids, so the ranking does not depend
  // on insertion order or shard assignment. Distinct live rows always
  // differ in that key, so this is a strict total order and the bounded
  // SelectTopK cut equals full-sort-then-truncate byte for byte at a
  // size-k heap's cost.
  const auto by_score = [&](const float* score) {
    return [&refs, &slots, &rows, score](size_t a, size_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      const Ref& ra = refs[static_cast<size_t>(rows[a])];
      const Ref& rb = refs[static_cast<size_t>(rows[b])];
      const std::string& ida = slots[static_cast<size_t>(ra.slot)].id;
      const std::string& idb = slots[static_cast<size_t>(rb.slot)].id;
      if (ida != idb) return ida < idb;
      if (ra.col != rb.col) return ra.col < rb.col;
      return ra.row < rb.row;
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
  if (options_.quantized_scan && index.vecs.quantized() && probe.k > 0) {
    const size_t shortlist =
        static_cast<size_t>(probe.k) *
        static_cast<size_t>(options_.quantized_shortlist_multiplier);
    if (rows.size() > shortlist) {
      const QuantizedQuery qq = MakeQuantizedQuery(probe.query);
      std::vector<float> approx(rows.size());
      QuantizedCosineRows(index.vecs, qq, rows.data(), rows.size(),
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
  index.vecs.CosineRows(
      probe.query.data(),
      kernels::InvNorm(probe.query.data(), probe.query.size()), rows.data(),
      rows.size(), scores.data());
  const std::vector<size_t> top = SelectTopK(
      rows.size(), static_cast<size_t>(probe.k), by_score(scores.data()));
  out.matches.reserve(top.size());
  for (size_t i : top) {
    const Ref& ref = refs[static_cast<size_t>(rows[i])];
    const TableSlot& s = slots[static_cast<size_t>(ref.slot)];
    ServiceMatch m;
    m.table_id = s.id;
    m.caption = s.caption;
    m.col = ref.col;
    m.row = ref.row;
    m.entity = ref.surface;
    m.score = scores[i];
    out.matches.push_back(std::move(m));
  }
  return out;
}

std::vector<ServiceShard::MatchSet> ServiceShard::Rank(
    const std::vector<Probe>& probes) const {
  ReaderMutexLock lock(&mu_);
  std::vector<MatchSet> out;
  out.reserve(probes.size());
  for (const Probe& probe : probes) out.push_back(RankLocked(probe));
  return out;
}

ServiceShard::AskPartial ServiceShard::AskCandidates(
    const std::vector<std::string>& query_terms, const Probe& dense) const {
  ReaderMutexLock lock(&mu_);
  AskPartial out;
  out.live = static_cast<size_t>(live_count_);
  // Lock-held alias for the ordering lambda below (lambda bodies are
  // analyzed as separate functions that cannot see this frame's lock).
  const std::vector<TableSlot>& slots = slots_;

  // Lexical stage, term-at-a-time over the postings: only docs sharing
  // a query term can score > 0, at postings cost instead of O(live
  // corpus) per query. Each term adds its doc-local saturated tf into
  // the slot's accumulator; the terms arrive sorted, so every document
  // sums the same contributions in the same order as a per-document
  // pass over the sorted terms would — bit-identical doubles.
  std::vector<double> acc(slots_.size(), 0.0);
  std::vector<int> touched;  // first-seen order
  std::vector<bool> seen(slots_.size());
  for (const auto& term : query_terms) {
    auto postings = lex_postings_.find(term);
    if (postings == lex_postings_.end()) continue;
    for (const Posting& p : postings->second) {
      const size_t s = static_cast<size_t>(p.slot);
      if (!slots_[s].live) continue;
      if (!seen[s]) {
        seen[s] = true;
        touched.push_back(p.slot);
      }
      const double tf = static_cast<double>(p.count);
      acc[s] += tf * (kLexK1 + 1.0) / (tf + kLexK1);
    }
  }
  std::vector<std::pair<double, int>> lex;  // (score, slot)
  lex.reserve(touched.size());
  for (int s : touched) {
    const double score = acc[static_cast<size_t>(s)];
    if (score > 0) lex.emplace_back(score, s);
  }
  // (lex desc, id asc) is a strict total order over distinct slots, so
  // the bounded SelectTopK cut equals full sort + truncate exactly; the
  // postings can surface far more candidates than the pool keeps.
  const std::vector<size_t> lex_top =
      SelectTopK(lex.size(), static_cast<size_t>(dense.k),
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
    lex_rows.push_back(
        slots_[static_cast<size_t>(lex[i].second)].rows[kTaskTable].begin);
  }
  std::vector<float> lex_cos(lex_rows.size());
  tasks_[kTaskTable].vecs.CosineRows(
      dense.query.data(),
      kernels::InvNorm(dense.query.data(), dense.query.size()),
      lex_rows.data(), lex_rows.size(), lex_cos.data());
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

  // Dense stage: the table task's own ranking cut to the pool. The final
  // Ask cut keeps k <= pool tables, and any dense table in the global
  // top-k is in its own shard's top-k, so this cut never changes an
  // answer.
  out.dense = RankLocked(dense).matches;
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

size_t ServiceShard::indexed_rows(ServiceTask task) const {
  ReaderMutexLock lock(&mu_);
  return tasks_[task].refs.size();
}

void ServiceShard::AppendLiveIds(std::vector<std::string>* out) const {
  ReaderMutexLock lock(&mu_);
  for (const auto& [id, slot] : id_to_slot_) out->push_back(id);
}

Status ServiceShard::ExportLive(std::vector<PreparedTable>* out) const {
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

std::vector<std::vector<std::pair<const std::string*, int>>>
ServiceShard::SlotTermsLocked() const {
  // One pass over the postings hands every live slot its (term, count)
  // pairs, in hash order: only a save needs them sorted, and sorting
  // here would lengthen every Compact's writer-lock hold by about a
  // fifth.
  std::vector<std::vector<std::pair<const std::string*, int>>> terms(
      slots_.size());
  for (const auto& [term, postings] : lex_postings_) {
    for (const Posting& p : postings) {
      const size_t s = static_cast<size_t>(p.slot);
      if (slots_[s].live) terms[s].emplace_back(&term, p.count);
    }
  }
  return terms;
}

Status ServiceShard::ExportLiveLocked(std::vector<PreparedTable>* out) const {
  const auto terms = SlotTermsLocked();
  for (size_t i = 0; i < slots_.size(); ++i) {
    const TableSlot& s = slots_[i];
    if (!s.live) continue;
    PreparedTable rows;
    TABBIN_ASSIGN_OR_RETURN(rows.table, MaterializeTableLocked(s));
    rows.id = s.id;
    rows.doc_tf.reserve(terms[i].size());
    for (const auto& [term, count] : terms[i]) {
      rows.doc_tf.emplace_back(*term, count);
    }
    for (int t = 0; t < kNumServiceTasks; ++t) {
      const TaskIndex& index = tasks_[t];
      for (int r = s.rows[t].begin; r >= 0 && r < s.rows[t].end; ++r) {
        Ref ref = index.refs[static_cast<size_t>(r)];
        ref.slot = -1;  // re-assigned on insert
        rows.rows[t].push_back(
            {std::move(ref), index.vecs.row(static_cast<size_t>(r)).ToVector(),
             {}});
      }
    }
    out->push_back(std::move(rows));
  }
  return Status::OK();
}

}  // namespace tabbin
