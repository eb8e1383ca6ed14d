// ServiceShard persistence for the TBSN v2 paged store
// (store/paged_snapshot.h). One shard becomes seven sections under a
// caller-chosen prefix (e.g. "store.s0."):
//
//   <p>meta   slots (live + tombstoned, verbatim), refs, matrix dims
//   <p>json   concatenated table JSON blobs (addressed from meta)
//   <p>norms  cached inverse norms of the three matrices
//   <p>lsh    the three serialized LSH indexes
//   <p>tbl / <p>col / <p>ent
//             raw row-major f32 embedding blocks, page-aligned
//
// The split is what buys the O(ms) cold start: meta/norms/lsh are
// metadata-sized and parsed (checksummed) eagerly, while the JSON blob
// and the embedding blocks — virtually all of the bytes — are fetched
// with SectionSpanUnverified and served zero-copy off the mapping.
// Tombstoned slots are persisted verbatim (ids, refs, bucket
// pollution included) so a restored shard answers byte-identically to
// the saved one, down to the `candidates` counts.
#include <algorithm>
#include <cstring>
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

  BinaryWriter* json = w->AddSection(prefix + "json");
  BinaryWriter* meta = w->AddSection(prefix + "meta");
  meta->WriteU64(slots_.size());
  for (const TableSlot& s : slots_) {
    meta->WriteString(s.id);
    meta->WriteI32(s.live ? 1 : 0);
    meta->WriteString(s.caption);
    meta->WriteI32(s.grid_rows);
    meta->WriteI32(s.grid_cols);
    meta->WriteI32(s.tbl_row);
    meta->WriteI32(s.col_begin);
    meta->WriteI32(s.col_end);
    meta->WriteI32(s.ent_begin);
    meta->WriteI32(s.ent_end);
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
      // Sorted so the section bytes are deterministic for identical
      // state (unordered_map iteration order is not).
      std::vector<std::pair<std::string, int>> tf(s.doc_tf.begin(),
                                                  s.doc_tf.end());
      std::sort(tf.begin(), tf.end());
      meta->WriteU64(tf.size());
      for (const auto& [term, count] : tf) {
        meta->WriteString(term);
        meta->WriteI32(count);
      }
    }
  }

  meta->WriteU64(col_refs_.size());
  for (const ColumnRef& ref : col_refs_) {
    meta->WriteI32(ref.slot);
    meta->WriteI32(ref.col);
  }
  meta->WriteU64(tbl_refs_.size());
  for (int slot : tbl_refs_) meta->WriteI32(slot);
  meta->WriteU64(ent_refs_.size());
  for (const EntityRef& ref : ent_refs_) {
    meta->WriteI32(ref.slot);
    meta->WriteI32(ref.row);
    meta->WriteI32(ref.col);
    meta->WriteString(ref.surface);
  }
  meta->WriteU64(tbl_vecs_.rows());
  meta->WriteU64(tbl_vecs_.cols());
  meta->WriteU64(col_vecs_.rows());
  meta->WriteU64(col_vecs_.cols());
  meta->WriteU64(ent_vecs_.rows());
  meta->WriteU64(ent_vecs_.cols());

  BinaryWriter* norms = w->AddSection(prefix + "norms");
  norms->WriteU64(tbl_vecs_.rows());
  norms->WriteBytes(tbl_vecs_.inv_norms(),
                    tbl_vecs_.rows() * sizeof(float));
  norms->WriteU64(col_vecs_.rows());
  norms->WriteBytes(col_vecs_.inv_norms(),
                    col_vecs_.rows() * sizeof(float));
  norms->WriteU64(ent_vecs_.rows());
  norms->WriteBytes(ent_vecs_.inv_norms(),
                    ent_vecs_.rows() * sizeof(float));

  BinaryWriter* lsh = w->AddSection(prefix + "lsh");
  tbl_index_.Serialize(lsh);
  col_index_.Serialize(lsh);
  ent_index_.Serialize(lsh);

  tbl_vecs_.AppendRowBytes(w->AddSection(prefix + "tbl", kStoreBlockAlign));
  col_vecs_.AppendRowBytes(w->AddSection(prefix + "col", kStoreBlockAlign));
  ent_vecs_.AppendRowBytes(w->AddSection(prefix + "ent", kStoreBlockAlign));

  // HNSW graphs, when built: two sections per graph mirroring the
  // metadata/bulk split above — geometry + upper levels in a
  // checksummed section, the dense level-0 adjacency in a page-aligned
  // block the loader borrows zero-copy. Absent sections (the default
  // LSH configuration) leave the file byte-identical to a pre-graph
  // save; presence of the sections IS the persisted index_kind knob.
  if (tbl_hnsw_ && col_hnsw_ && ent_hnsw_) {
    tbl_hnsw_->SerializeMeta(w->AddSection(prefix + "hnsw.tblmeta"));
    tbl_hnsw_->AppendLevel0Bytes(
        w->AddSection(prefix + "hnsw.tbl0", kStoreBlockAlign));
    col_hnsw_->SerializeMeta(w->AddSection(prefix + "hnsw.colmeta"));
    col_hnsw_->AppendLevel0Bytes(
        w->AddSection(prefix + "hnsw.col0", kStoreBlockAlign));
    ent_hnsw_->SerializeMeta(w->AddSection(prefix + "hnsw.entmeta"));
    ent_hnsw_->AppendLevel0Bytes(
        w->AddSection(prefix + "hnsw.ent0", kStoreBlockAlign));
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
    TABBIN_ASSIGN_OR_RETURN(s.tbl_row, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.col_begin, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.col_end, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.ent_begin, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(s.ent_end, meta.ReadI32());
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
      s.doc_tf.reserve(static_cast<size_t>(n_tf));
      const int slot = static_cast<int>(i);
      for (uint64_t t = 0; t < n_tf; ++t) {
        TABBIN_ASSIGN_OR_RETURN(std::string term, meta.ReadString());
        TABBIN_ASSIGN_OR_RETURN(int32_t count, meta.ReadI32());
        if (!s.doc_tf.emplace(std::move(term), count).second) {
          return Status::ParseError("paged store: duplicate doc term");
        }
      }
      for (const auto& [term, count] : s.doc_tf) {
        lex_postings_[term].push_back(slot);
      }
      if (!id_to_slot_.emplace(s.id, slot).second) {
        return Status::ParseError(
            "paged store: duplicate live table id '" + s.id + "'");
      }
      ++live_count_;
    }
  }

  TABBIN_ASSIGN_OR_RETURN(uint64_t n_cols, meta.ReadU64());
  if (n_cols > meta.remaining() / (2 * kMinRefBytes)) {
    return Status::ParseError("paged store: column ref count past end");
  }
  col_refs_.reserve(static_cast<size_t>(n_cols));
  for (uint64_t i = 0; i < n_cols; ++i) {
    ColumnRef ref;
    TABBIN_ASSIGN_OR_RETURN(ref.slot, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(ref.col, meta.ReadI32());
    if (ref.slot < 0 || ref.slot >= static_cast<int>(slots_.size())) {
      return Status::ParseError("paged store: column ref slot range");
    }
    col_refs_.push_back(ref);
  }
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_tbls, meta.ReadU64());
  if (n_tbls > meta.remaining() / kMinRefBytes) {
    return Status::ParseError("paged store: table ref count past end");
  }
  tbl_refs_.reserve(static_cast<size_t>(n_tbls));
  for (uint64_t i = 0; i < n_tbls; ++i) {
    TABBIN_ASSIGN_OR_RETURN(int32_t slot, meta.ReadI32());
    if (slot < 0 || slot >= static_cast<int>(slots_.size())) {
      return Status::ParseError("paged store: table ref slot range");
    }
    tbl_refs_.push_back(slot);
  }
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_ents, meta.ReadU64());
  if (n_ents > meta.remaining() / (3 * kMinRefBytes)) {
    return Status::ParseError("paged store: entity ref count past end");
  }
  ent_refs_.reserve(static_cast<size_t>(n_ents));
  for (uint64_t i = 0; i < n_ents; ++i) {
    EntityRef ref;
    TABBIN_ASSIGN_OR_RETURN(ref.slot, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(ref.row, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(ref.col, meta.ReadI32());
    TABBIN_ASSIGN_OR_RETURN(ref.surface, meta.ReadString());
    if (ref.slot < 0 || ref.slot >= static_cast<int>(slots_.size())) {
      return Status::ParseError("paged store: entity ref slot range");
    }
    ent_refs_.push_back(std::move(ref));
  }

  // Per-slot index ranges must stay inside the ref arrays they address
  // (a forged range would otherwise index out of them at query time).
  for (const TableSlot& s : slots_) {
    const bool tbl_ok =
        s.tbl_row >= -1 && s.tbl_row < static_cast<int>(tbl_refs_.size());
    const bool col_ok =
        (s.col_begin == -1 && s.col_end == -1) ||
        (s.col_begin >= 0 && s.col_begin <= s.col_end &&
         s.col_end <= static_cast<int>(col_refs_.size()));
    const bool ent_ok =
        (s.ent_begin == -1 && s.ent_end == -1) ||
        (s.ent_begin >= 0 && s.ent_begin <= s.ent_end &&
         s.ent_end <= static_cast<int>(ent_refs_.size()));
    if (!tbl_ok || !col_ok || !ent_ok) {
      return Status::ParseError(
          "paged store: slot index range outside its ref array");
    }
  }

  struct Dims {
    uint64_t rows = 0, cols = 0;
  };
  Dims tbl_d, col_d, ent_d;
  TABBIN_ASSIGN_OR_RETURN(tbl_d.rows, meta.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(tbl_d.cols, meta.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(col_d.rows, meta.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(col_d.cols, meta.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(ent_d.rows, meta.ReadU64());
  TABBIN_ASSIGN_OR_RETURN(ent_d.cols, meta.ReadU64());
  if (tbl_d.rows != tbl_refs_.size() || tbl_refs_.size() != slots_.size() ||
      col_d.rows != col_refs_.size() || ent_d.rows != ent_refs_.size()) {
    return Status::ParseError(
        "paged store: matrix rows disagree with ref arrays");
  }
  // A matrix that never held a row never learned its width (AppendRow
  // sets it), so an empty shard saves it as 0; any other width must be
  // the system's.
  const auto width_ok = [](const Dims& d, int dim) {
    return d.cols == static_cast<uint64_t>(dim) ||
           (d.rows == 0 && d.cols == 0);
  };
  if (!width_ok(tbl_d, ServiceTableDim(*system_)) ||
      !width_ok(col_d, ServiceColumnDim(*system_)) ||
      !width_ok(ent_d, ServiceEntityDim(*system_))) {
    return Status::ParseError(
        "paged store: embedding width disagrees with the system");
  }
  if (!meta.AtEnd()) {
    return Status::ParseError("paged store: trailing bytes in shard meta");
  }

  TABBIN_ASSIGN_OR_RETURN(BinaryReader norms,
                          reader.Section(prefix + "norms"));
  TABBIN_ASSIGN_OR_RETURN(std::vector<float> tbl_norms,
                          ReadNormArray(&norms, tbl_d.rows, "table"));
  TABBIN_ASSIGN_OR_RETURN(std::vector<float> col_norms,
                          ReadNormArray(&norms, col_d.rows, "column"));
  TABBIN_ASSIGN_OR_RETURN(std::vector<float> ent_norms,
                          ReadNormArray(&norms, ent_d.rows, "entity"));

  TABBIN_ASSIGN_OR_RETURN(ByteSpan tbl_span,
                          reader.SectionSpanUnverified(prefix + "tbl"));
  TABBIN_ASSIGN_OR_RETURN(ByteSpan col_span,
                          reader.SectionSpanUnverified(prefix + "col"));
  TABBIN_ASSIGN_OR_RETURN(ByteSpan ent_span,
                          reader.SectionSpanUnverified(prefix + "ent"));
  TABBIN_ASSIGN_OR_RETURN(
      const float* tbl_block,
      CheckBlock(tbl_span, tbl_d.rows, tbl_d.cols, "table"));
  TABBIN_ASSIGN_OR_RETURN(
      const float* col_block,
      CheckBlock(col_span, col_d.rows, col_d.cols, "column"));
  TABBIN_ASSIGN_OR_RETURN(
      const float* ent_block,
      CheckBlock(ent_span, ent_d.rows, ent_d.cols, "entity"));
  tbl_vecs_.WrapExternal(tbl_block, tbl_d.rows, tbl_d.cols, keepalive,
                         tbl_norms.data());
  col_vecs_.WrapExternal(col_block, col_d.rows, col_d.cols, keepalive,
                         col_norms.data());
  ent_vecs_.WrapExternal(ent_block, ent_d.rows, ent_d.cols, keepalive,
                         ent_norms.data());

  TABBIN_ASSIGN_OR_RETURN(BinaryReader lsh, reader.Section(prefix + "lsh"));
  TABBIN_ASSIGN_OR_RETURN(tbl_index_, LshIndex::Deserialize(&lsh));
  TABBIN_ASSIGN_OR_RETURN(col_index_, LshIndex::Deserialize(&lsh));
  TABBIN_ASSIGN_OR_RETURN(ent_index_, LshIndex::Deserialize(&lsh));
  if (tbl_index_.dim() != ServiceTableDim(*system_) ||
      col_index_.dim() != ServiceColumnDim(*system_) ||
      ent_index_.dim() != ServiceEntityDim(*system_)) {
    return Status::ParseError(
        "paged store: LSH width disagrees with the system");
  }

  // HNSW graph sections are optional (pre-graph snapshots and the
  // default LSH configuration have none); if any is present all six
  // must be. Metadata parses through the checksummed Section reader;
  // the level-0 blocks load through the checksummed SectionSpan — still
  // zero-copy borrowed, but a flipped bit is a ParseError here rather
  // than a corrupt walk at query time (adjacency, unlike embedding
  // payloads, steers pointer-shaped traversal).
  const bool any_hnsw = reader.HasSection(prefix + "hnsw.tblmeta") ||
                        reader.HasSection(prefix + "hnsw.tbl0") ||
                        reader.HasSection(prefix + "hnsw.colmeta") ||
                        reader.HasSection(prefix + "hnsw.col0") ||
                        reader.HasSection(prefix + "hnsw.entmeta") ||
                        reader.HasSection(prefix + "hnsw.ent0");
  if (any_hnsw) {
    auto restore_graph =
        [&](const char* meta_name, const char* l0_name, int want_dim,
            uint64_t want_nodes) -> Result<HnswIndex> {
      TABBIN_ASSIGN_OR_RETURN(BinaryReader gmeta,
                              reader.Section(prefix + meta_name));
      TABBIN_ASSIGN_OR_RETURN(ByteSpan l0,
                              reader.SectionSpan(prefix + l0_name));
      TABBIN_ASSIGN_OR_RETURN(
          HnswIndex graph,
          HnswIndex::Restore(&gmeta, l0.data, l0.size, keepalive));
      if (graph.dim() != want_dim) {
        return Status::ParseError(
            "paged store: hnsw graph width disagrees with the system");
      }
      if (graph.size() != want_nodes) {
        return Status::ParseError(
            "paged store: hnsw node count disagrees with its matrix");
      }
      return graph;
    };
    TABBIN_ASSIGN_OR_RETURN(
        HnswIndex tbl_graph,
        restore_graph("hnsw.tblmeta", "hnsw.tbl0", ServiceTableDim(*system_),
                      tbl_d.rows));
    TABBIN_ASSIGN_OR_RETURN(
        HnswIndex col_graph,
        restore_graph("hnsw.colmeta", "hnsw.col0",
                      ServiceColumnDim(*system_), col_d.rows));
    TABBIN_ASSIGN_OR_RETURN(
        HnswIndex ent_graph,
        restore_graph("hnsw.entmeta", "hnsw.ent0",
                      ServiceEntityDim(*system_), ent_d.rows));
    tbl_hnsw_ = std::make_unique<HnswIndex>(std::move(tbl_graph));
    col_hnsw_ = std::make_unique<HnswIndex>(std::move(col_graph));
    ent_hnsw_ = std::make_unique<HnswIndex>(std::move(ent_graph));
    // The persisted graph re-engages the hnsw path and carries its own
    // build parameters (they are part of the graph's identity; the
    // constructor-time options were never serialized).
    options_.index_kind = kIndexHnsw;
    options_.hnsw_m = tbl_hnsw_->options().m;
    options_.hnsw_ef_construction = tbl_hnsw_->options().ef_construction;
  }

  store_keepalive_ = std::move(keepalive);
  return Status::OK();
}

}  // namespace tabbin
