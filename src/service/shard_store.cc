// ServiceShard persistence for the TBSN v2 paged store
// (store/paged_snapshot.h). One shard becomes a group of sections under a
// caller-chosen prefix (e.g. "store.s0."):
//
//   <p>meta   slots (live + tombstoned, verbatim, with each live slot's
//             Ask term counts), refs, matrix dims
//   <p>json   concatenated table JSON blobs (addressed from meta)
//   <p>norms  cached inverse norms of the three matrices
//   <p>lsh    the three serialized LSH indexes (LSH shards only)
//   <p>tbl / <p>col / <p>ent
//             raw row-major f32 embedding blocks, page-aligned
//   <p>hnsw.{tbl,col,ent}.{meta,0}
//             the three neighbor graphs (graph shards only)
//
// Only the active candidate generator is written: a graph shard keeps
// no LSH buckets (ServiceShard::TaskIndex), so its store has no lsh
// section, and a restore that finds graph sections never reads one
// (older graph stores still carry it; it is skipped).
//
// The split is what buys the O(ms) cold start: meta/norms/lsh are
// metadata-sized, checksummed on open and parsed in place off the
// mapping (PagedSnapshotReader::Section borrows, it does not copy),
// while the JSON blob and the embedding blocks — virtually all of the
// bytes — are fetched with SectionSpanUnverified and served zero-copy.
// Each shard's group is independent of the others', so
// TabBinService::FromStore restores the shards concurrently.
// Tombstoned slots are persisted verbatim (ids, refs, bucket
// pollution included) so a restored shard answers byte-identically to
// the saved one, down to the `candidates` counts.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "io/table_io.h"
#include "service/shard.h"
#include "store/paged_snapshot.h"
#include "util/logging.h"

namespace tabbin {

namespace {
// Kept at 1 across the removal of the single-shard service so stores
// it wrote still open; the word after it (once a single-vs-sharded
// flag) is written as 1 and ignored on read.
constexpr uint32_t kStoreMetaVersion = 1;
}  // namespace

void AppendStoreMeta(PagedSnapshotWriter* w, uint32_t shards) {
  BinaryWriter* out = w->AddSection("store.meta");
  out->WriteU32(kStoreMetaVersion);
  out->WriteU32(1);
  out->WriteU32(shards);
}

Result<uint32_t> ReadStoreMeta(const PagedSnapshotReader& reader) {
  if (!reader.HasSection("store.meta")) {
    return Status::ParseError(
        "paged store: '" + reader.path() +
        "' is a model snapshot, not a service store; build one with "
        "build-service");
  }
  TABBIN_ASSIGN_OR_RETURN(BinaryReader r, reader.Section("store.meta"));
  auto version = r.ReadU32();
  auto legacy_flag = r.ReadU32();
  auto shards = r.ReadU32();
  if (!version.ok() || !legacy_flag.ok() || !shards.ok()) {
    return Status::ParseError("paged store: truncated store.meta");
  }
  if (version.value() != kStoreMetaVersion) {
    return Status::ParseError("paged store: unsupported store.meta version " +
                              std::to_string(version.value()));
  }
  if (shards.value() == 0 ||
      shards.value() > static_cast<uint32_t>(kMaxShards)) {
    return Status::ParseError("paged store: shard count " +
                              std::to_string(shards.value()) +
                              " out of range");
  }
  return shards.value();
}

std::string StoreShardPrefix(uint32_t shard) {
  return "store.s" + std::to_string(shard) + ".";
}

namespace {

// Hostile-count guard: no serialized slot / ref / term costs fewer
// bytes than this, so a declared count beyond remaining/k can never be
// satisfied and must not reach reserve().
constexpr uint64_t kMinSlotBytes = 40;
constexpr uint64_t kMinRefBytes = 4;

// Section stems per task; every per-task section group runs in task
// order (tbl, col, ent).
constexpr const char* kStem[kNumServiceTasks] = {"tbl", "col", "ent"};
// The ref blocks alone run col, tbl, ent — the order the format was
// first written in — and each task keeps its own ref encoding: a table
// ref is its slot, a column ref (slot, col), an entity ref (slot, row,
// col, surface). kRefInts counts the leading i32 fields.
constexpr ServiceTask kRefOrder[kNumServiceTasks] = {kTaskColumn, kTaskTable,
                                                     kTaskEntity};
constexpr uint64_t kRefInts[kNumServiceTasks] = {1, 2, 3};

void WriteRef(BinaryWriter* w, ServiceTask task,
              const ServiceShard::Ref& ref) {
  w->WriteI32(ref.slot);
  if (task == kTaskTable) return;
  if (task == kTaskEntity) w->WriteI32(ref.row);
  w->WriteI32(ref.col);
  if (task == kTaskEntity) w->WriteString(ref.surface);
}

Result<ServiceShard::Ref> ReadRef(BinaryReader* r, ServiceTask task) {
  ServiceShard::Ref ref;
  TABBIN_ASSIGN_OR_RETURN(ref.slot, r->ReadI32());
  if (task == kTaskTable) return ref;
  if (task == kTaskEntity) {
    TABBIN_ASSIGN_OR_RETURN(ref.row, r->ReadI32());
  }
  TABBIN_ASSIGN_OR_RETURN(ref.col, r->ReadI32());
  if (task == kTaskEntity) {
    TABBIN_ASSIGN_OR_RETURN(ref.surface, r->ReadString());
  }
  return ref;
}

Result<std::vector<float>> ReadNormArray(BinaryReader* r, uint64_t rows,
                                         const char* what) {
  TABBIN_ASSIGN_OR_RETURN(std::vector<float> norms, r->ReadF32Vector());
  if (norms.size() != rows) {
    return Status::ParseError(std::string("paged store: ") + what +
                              " inverse-norm count disagrees with matrix");
  }
  return norms;
}

// Validates that `span` holds exactly rows x cols floats and returns
// its start as a float pointer (page alignment is guaranteed by the
// directory: embedding sections are written with kStoreBlockAlign).
// An empty block is valid at any width.
Result<const float*> CheckBlock(ByteSpan span, uint64_t rows, uint64_t cols,
                                const char* what) {
  const bool empty = rows == 0 && span.size == 0;
  if (!empty && (cols == 0 || rows > span.size / (cols * sizeof(float)) ||
                 rows * cols * sizeof(float) != span.size)) {
    return Status::ParseError(std::string("paged store: ") + what +
                              " block size disagrees with its geometry");
  }
  return reinterpret_cast<const float*>(span.data);
}

}  // namespace

void ServiceShard::AppendStoreSections(PagedSnapshotWriter* w,
                                       const std::string& prefix) const {
  ReaderMutexLock lock(&mu_);

  auto terms = SlotTermsLocked();
  BinaryWriter* json = w->AddSection(prefix + "json");
  BinaryWriter* meta = w->AddSection(prefix + "meta");
  meta->WriteU64(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const TableSlot& s = slots_[i];
    meta->WriteString(s.id);
    meta->WriteI32(s.live ? 1 : 0);
    meta->WriteString(s.caption);
    meta->WriteI32(s.grid_rows);
    meta->WriteI32(s.grid_cols);
    meta->WriteI32(s.rows[kTaskTable].begin);
    meta->WriteI32(s.rows[kTaskColumn].begin);
    meta->WriteI32(s.rows[kTaskColumn].end);
    meta->WriteI32(s.rows[kTaskEntity].begin);
    meta->WriteI32(s.rows[kTaskEntity].end);
    // Table JSON goes to the blob verbatim when the slot is still lazy
    // (it IS the bytes a previous save produced — no parse, no
    // re-serialize), otherwise it is rendered from the parsed table.
    const uint64_t off = json->buffer().size();
    if (s.table_loaded) {
      const std::string text = TableToJson(s.table).Dump();
      json->WriteBytes(text.data(), text.size());
    } else if (s.json_len > 0) {
      json->WriteBytes(s.json_ptr, s.json_len);
    }
    meta->WriteU64(off);
    meta->WriteU64(json->buffer().size() - off);
    if (s.live) {
      // Sorted by term, so identical state writes identical bytes.
      auto& list = terms[i];
      std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
        return *a.first < *b.first;
      });
      meta->WriteU64(list.size());
      for (const auto& [term, count] : list) {
        meta->WriteString(*term);
        meta->WriteI32(count);
      }
    }
  }

  for (ServiceTask t : kRefOrder) {
    meta->WriteU64(tasks_[t].refs.size());
    for (const Ref& ref : tasks_[t].refs) WriteRef(meta, t, ref);
  }
  for (const TaskIndex& index : tasks_) {
    meta->WriteU64(index.vecs.rows());
    meta->WriteU64(index.vecs.cols());
  }

  BinaryWriter* norms = w->AddSection(prefix + "norms");
  for (const TaskIndex& index : tasks_) {
    norms->WriteU64(index.vecs.rows());
    norms->WriteBytes(index.vecs.inv_norms(),
                      index.vecs.rows() * sizeof(float));
  }

  // A graph shard's LSH indexes are empty; only an LSH shard writes
  // them.
  bool graphs = true;
  for (const TaskIndex& index : tasks_) graphs = graphs && index.hnsw;
  if (!graphs) {
    BinaryWriter* lsh = w->AddSection(prefix + "lsh");
    for (const TaskIndex& index : tasks_) index.lsh.Serialize(lsh);
  }

  for (int t = 0; t < kNumServiceTasks; ++t) {
    tasks_[t].vecs.AppendRowBytes(
        w->AddSection(prefix + kStem[t], kStoreBlockAlign));
  }

  // HNSW graphs, when built: two sections per graph mirroring the
  // metadata/bulk split above — geometry + upper levels in a
  // checksummed section, the dense level-0 adjacency in a page-aligned
  // block the loader borrows zero-copy. Absent sections (the default
  // LSH configuration) leave the file byte-identical to a pre-graph
  // save; presence of the sections IS the persisted index_kind knob.
  if (!graphs) return;
  for (int t = 0; t < kNumServiceTasks; ++t) {
    const std::string stem = prefix + "hnsw." + kStem[t];
    tasks_[t].hnsw->SerializeMeta(w->AddSection(stem + "meta"));
    tasks_[t].hnsw->AppendLevel0Bytes(
        w->AddSection(stem + "0", kStoreBlockAlign));
  }
}

Status ServiceShard::RestoreFromStore(const PagedSnapshotReader& reader,
                                      std::shared_ptr<const void> keepalive,
                                      const std::string& prefix) {
  // The shard is freshly constructed and unpublished; the writer lock
  // is for the thread-safety analysis, which cannot know the shard is
  // still thread-private.
  WriterMutexLock lock(&mu_);

  TABBIN_ASSIGN_OR_RETURN(BinaryReader meta,
                          reader.Section(prefix + "meta"));
  TABBIN_ASSIGN_OR_RETURN(ByteSpan json,
                          reader.SectionSpanUnverified(prefix + "json"));

  TABBIN_ASSIGN_OR_RETURN(uint64_t n_slots, meta.ReadU64());
  if (n_slots > meta.remaining() / kMinSlotBytes) {
    return Status::ParseError(
        "paged store: slot count past end of section");
  }
  slots_.reserve(static_cast<size_t>(n_slots));
  for (uint64_t i = 0; i < n_slots; ++i) {
    slots_.push_back(TableSlot{});
    TableSlot& s = slots_.back();
    TABBIN_ASSIGN_OR_RETURN(s.id, meta.ReadString());
    if (s.id.empty()) {
      return Status::ParseError("paged store: empty table id");
    }
    TABBIN_ASSIGN_OR_RETURN(int32_t live, meta.ReadI32());
    s.live = live != 0;
    TABBIN_ASSIGN_OR_RETURN(s.caption, meta.ReadString());
    TABBIN_ASSIGN_OR_RETURN(s.grid_rows, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.grid_cols, meta.ReadI32());
    // Slot i owns exactly table row i; checked below with the ranges.
    TABBIN_ASSIGN_OR_RETURN(s.rows[kTaskTable].begin, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.rows[kTaskColumn].begin, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.rows[kTaskColumn].end, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.rows[kTaskEntity].begin, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.rows[kTaskEntity].end, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(uint64_t json_off, meta.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(uint64_t json_len, meta.ReadU64());
    // Overflow-safe containment in the mapped blob — the pointer below
    // must never be able to index outside the mapping.
    if (json_len > json.size || json_off > json.size - json_len) {
      return Status::ParseError(
          "paged store: table JSON range outside the blob section");
    }
    s.table_loaded = false;
    s.json_ptr = reinterpret_cast<const char*>(json.data) + json_off;
    s.json_len = static_cast<size_t>(json_len);
    if (s.live) {
      TABBIN_ASSIGN_OR_RETURN(uint64_t n_tf, meta.ReadU64());
      if (n_tf > meta.remaining() / 12) {
        return Status::ParseError(
            "paged store: term-frequency count past end of section");
      }
      const int slot = static_cast<int>(i);
      // Straight into the postings; `prev` points at the previous
      // term's key there (node keys never move).
      const std::string* prev = nullptr;
      for (uint64_t t = 0; t < n_tf; ++t) {
        TABBIN_ASSIGN_OR_RETURN(std::string term, meta.ReadString());
        TABBIN_ASSIGN_OR_RETURN(int32_t count, meta.ReadI32());
        // Strictly ascending is part of the format: a repeated term
        // would post the slot twice and double its lexical score, and
        // the writer's order is what makes a re-save byte-identical.
        if (prev != nullptr && !(*prev < term)) {
          return Status::ParseError(
              "paged store: doc terms out of order or repeated");
        }
        auto posting = lex_postings_.try_emplace(std::move(term)).first;
        posting->second.push_back({slot, count});
        prev = &posting->first;
      }
      if (!id_to_slot_.emplace(s.id, slot).second) {
        return Status::ParseError(
            "paged store: duplicate live table id '" + s.id + "'");
      }
      ++live_count_;
    }
  }

  for (ServiceTask t : kRefOrder) {
    const std::string what =
        std::string("paged store: ") + kServiceTaskNames[t] + " ref";
    std::vector<Ref>& refs = tasks_[t].refs;
    TABBIN_ASSIGN_OR_RETURN(uint64_t n_refs, meta.ReadU64());
    if (n_refs > meta.remaining() / (kRefInts[t] * kMinRefBytes)) {
      return Status::ParseError(what + " count past end");
    }
    refs.reserve(static_cast<size_t>(n_refs));
    for (uint64_t i = 0; i < n_refs; ++i) {
      TABBIN_ASSIGN_OR_RETURN(Ref ref, ReadRef(&meta, t));
      if (ref.slot < 0 || ref.slot >= static_cast<int>(slots_.size())) {
        return Status::ParseError(what + " slot range");
      }
      refs.push_back(std::move(ref));
    }
  }

  // What InsertPreparedLocked guarantees by construction, and the query
  // paths rely on: slot i owns table row i, every per-slot range stays
  // inside the ref array it addresses, and every ref in a slot's range
  // names that slot. A forged range or ref would otherwise send a query
  // outside a matrix or answer for the wrong table.
  for (size_t i = 0; i < slots_.size(); ++i) {
    TableSlot& s = slots_[i];
    if (s.rows[kTaskTable].begin != static_cast<int>(i)) {
      return Status::ParseError(
          "paged store: slot " + std::to_string(i) +
          " does not own table row " + std::to_string(i));
    }
    s.rows[kTaskTable].end = static_cast<int>(i) + 1;
    for (int t = 0; t < kNumServiceTasks; ++t) {
      const RowRange& range = s.rows[t];
      const std::vector<Ref>& refs = tasks_[t].refs;
      const bool in_array =
          (range.begin == -1 && range.end == -1) ||
          (range.begin >= 0 && range.begin <= range.end &&
           range.end <= static_cast<int>(refs.size()));
      if (!in_array) {
        return Status::ParseError(
            "paged store: slot index range outside its ref array");
      }
      for (int r = range.begin; r >= 0 && r < range.end; ++r) {
        if (refs[static_cast<size_t>(r)].slot != static_cast<int>(i)) {
          return Status::ParseError(
              std::string("paged store: ") + kServiceTaskNames[t] +
              " ref in slot " + std::to_string(i) +
              "'s range names another slot");
        }
      }
    }
  }

  struct Dims {
    uint64_t rows = 0, cols = 0;
  };
  std::array<Dims, kNumServiceTasks> dims;
  bool rows_ok = tasks_[kTaskTable].refs.size() == slots_.size();
  for (int t = 0; t < kNumServiceTasks; ++t) {
    TABBIN_ASSIGN_OR_RETURN(dims[t].rows, meta.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(dims[t].cols, meta.ReadU64());
    rows_ok = rows_ok && dims[t].rows == tasks_[t].refs.size();
  }
  if (!rows_ok) {
    return Status::ParseError(
        "paged store: matrix rows disagree with ref arrays");
  }
  // A matrix that never held a row never learned its width (AppendRow
  // sets it), so an empty shard saves it as 0; any other width must be
  // the system's.
  for (int t = 0; t < kNumServiceTasks; ++t) {
    const Dims& d = dims[t];
    if (d.cols != static_cast<uint64_t>(ServiceTaskDim(*system_, t)) &&
        !(d.rows == 0 && d.cols == 0)) {
      return Status::ParseError(
          "paged store: embedding width disagrees with the system");
    }
  }
  if (!meta.AtEnd()) {
    return Status::ParseError("paged store: trailing bytes in shard meta");
  }

  TABBIN_ASSIGN_OR_RETURN(BinaryReader norms,
                          reader.Section(prefix + "norms"));
  std::array<std::vector<float>, kNumServiceTasks> inv_norms;
  for (int t = 0; t < kNumServiceTasks; ++t) {
    TABBIN_ASSIGN_OR_RETURN(
        inv_norms[t],
        ReadNormArray(&norms, dims[t].rows, kServiceTaskNames[t]));
  }
  for (int t = 0; t < kNumServiceTasks; ++t) {
    TABBIN_ASSIGN_OR_RETURN(ByteSpan span,
                            reader.SectionSpanUnverified(prefix + kStem[t]));
    TABBIN_ASSIGN_OR_RETURN(const float* block,
                            CheckBlock(span, dims[t].rows, dims[t].cols,
                                       kServiceTaskNames[t]));
    tasks_[t].vecs.WrapExternal(block, dims[t].rows, dims[t].cols,
                                keepalive, inv_norms[t].data());
  }

  // HNSW graph sections are optional (pre-graph snapshots and the
  // default LSH configuration have none); if any is present all six
  // must be. Metadata parses through the checksummed Section reader;
  // the level-0 blocks load through the checksummed SectionSpan — still
  // zero-copy borrowed, but a flipped bit is a ParseError here rather
  // than a corrupt walk at query time (adjacency, unlike embedding
  // payloads, steers pointer-shaped traversal).
  bool any_hnsw = false;
  for (const char* stem : kStem) {
    const std::string name = prefix + "hnsw." + stem;
    any_hnsw = any_hnsw || reader.HasSection(name + "meta") ||
               reader.HasSection(name + "0");
  }
  if (!any_hnsw) {
    // Without graphs the LSH indexes are the generator and required.
    TABBIN_ASSIGN_OR_RETURN(BinaryReader lsh,
                            reader.Section(prefix + "lsh"));
    for (int t = 0; t < kNumServiceTasks; ++t) {
      TABBIN_ASSIGN_OR_RETURN(tasks_[t].lsh, LshIndex::Deserialize(&lsh));
      if (tasks_[t].lsh.dim() != ServiceTaskDim(*system_, t)) {
        return Status::ParseError(
            "paged store: LSH width disagrees with the system");
      }
    }
    store_keepalive_ = std::move(keepalive);
    return Status::OK();
  }
  for (int t = 0; t < kNumServiceTasks; ++t) {
    const std::string name = prefix + "hnsw." + kStem[t];
    TABBIN_ASSIGN_OR_RETURN(BinaryReader gmeta, reader.Section(name + "meta"));
    TABBIN_ASSIGN_OR_RETURN(ByteSpan l0, reader.SectionSpan(name + "0"));
    TABBIN_ASSIGN_OR_RETURN(
        HnswIndex graph,
        HnswIndex::Restore(&gmeta, l0.data, l0.size, keepalive));
    if (graph.dim() != ServiceTaskDim(*system_, t)) {
      return Status::ParseError(
          "paged store: hnsw graph width disagrees with the system");
    }
    if (graph.size() != dims[t].rows) {
      return Status::ParseError(
          "paged store: hnsw node count disagrees with its matrix");
    }
    tasks_[t].hnsw = std::make_unique<HnswIndex>(std::move(graph));
  }
  // The persisted graph re-engages the hnsw path and carries its own
  // build parameters (they are part of the graph's identity; the
  // constructor-time options were never serialized).
  options_.index_kind = kIndexHnsw;
  options_.hnsw_m = tasks_[kTaskTable].hnsw->options().m;
  options_.hnsw_ef_construction =
      tasks_[kTaskTable].hnsw->options().ef_construction;
  store_keepalive_ = std::move(keepalive);
  return Status::OK();
}

}  // namespace tabbin
