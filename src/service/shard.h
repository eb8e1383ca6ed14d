// ServiceShard — the unit of corpus ownership in the serving layer.
//
// A shard owns everything needed to answer similarity and grounding
// queries over its subset of the corpus: the table slots (live +
// tombstoned), the three per-task LSH indexes with their flat embedding
// matrices, the doc-local lexical statistics behind Ask, and one
// SharedMutex (util/mutex.h, the annotated std::shared_mutex).
// TabBinService (service/sharded_service.h) hash-partitions the corpus
// across N >= 1 of them so a write to one shard never blocks reads on
// the others.
//
// Determinism contract (what makes scatter-gather exact):
//   * Every shard builds its LSH indexes from the same ServiceOptions
//     seed, so a vector hashes into the same buckets regardless of
//     which shard owns it — the union of per-shard candidate sets IS
//     the single-index candidate set.
//   * Ranking ties break on (table id, col, row), never on internal row
//     ids, so results do not depend on insertion order or partitioning.
//   * The Ask lexical gate scores documents with doc-local saturated
//     term frequency (no corpus-wide idf / average-length terms), so a
//     shard can rank its own documents without knowing the rest of the
//     corpus and the merged per-shard top-k equals the global top-k.
// Together these give: for any shard count, merged per-shard top-k ==
// one-shard top-k, byte for byte (tests/sharded_service_test.cc).
#ifndef TABBIN_SERVICE_SHARD_H_
#define TABBIN_SERVICE_SHARD_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "index/hnsw_index.h"
#include "service/service_types.h"
#include "store/paged_snapshot.h"
#include "tasks/lsh.h"
#include "util/mutex.h"
#include "util/snapshot.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbin {

// Embedding widths per task, fixed by the composite constructions
// (Fig. 5): CC composite is HMD ⊕ column mean, TC composite is
// row ⊕ HMD ⊕ VMD means, entity embeddings come from the column model.
int ServiceColumnDim(const TabBiNSystem& sys);
int ServiceTableDim(const TabBiNSystem& sys);
int ServiceEntityDim(const TabBiNSystem& sys);

/// \brief Total order on matches: score descending, then table id /
/// column / row ascending. Partition-independent — the property every
/// per-shard ranking and every cross-shard merge sorts by.
bool ServiceMatchOrder(const ServiceMatch& a, const ServiceMatch& b);

/// \brief Term counts of a table's Ask document text — THE lexical
/// recipe of the serving layer. Every site that derives doc stats
/// (insert, snapshot restore) must call this one function, or a
/// restored service would score the lexical gate differently from a
/// live-built one and silently break the equivalence guarantees.
std::unordered_map<std::string, int> ServiceDocTermFrequencies(
    const Table& table);

/// \brief Writes / reads the "service.options" section the v2 store
/// bridges (construction knobs travel with the state so a restored
/// service behaves identically on later updates).
void AppendServiceOptions(const ServiceOptions& options,
                          SnapshotWriter* snapshot);
Result<ServiceOptions> ReadServiceOptions(const SnapshotReader& snapshot);

// --- Paged (v2) store plumbing (implemented in service/shard_store.cc) -----

/// \brief Writes / reads the "store.meta" section: the saved shard
/// count. Reading rejects a truncated section and a count outside
/// [1, kMaxShards] as ParseError.
void AppendStoreMeta(PagedSnapshotWriter* w, uint32_t shards);
Result<uint32_t> ReadStoreMeta(const PagedSnapshotReader& reader);

/// \brief Section prefix for shard i ("store.s<i>.").
/// (Section bridging and path resolution shared with the core loader
/// live in store/snapshot_bridge.h.)
std::string StoreShardPrefix(uint32_t shard);

class ServiceShard {
 public:
  struct ColumnRef {
    int slot = 0;
    int col = 0;
  };
  struct EntityRef {
    int slot = 0;
    int row = 0;
    int col = 0;
    std::string surface;
  };
  struct TableSlot {
    // The parsed table — populated on live inserts and re-partitions.
    // On a v2 (mapped) restore it stays empty: `table_loaded` is false
    // and the slot instead points at the table's JSON inside the mapped
    // snapshot (json_ptr/json_len, kept alive by store_keepalive_).
    // MaterializeTableLocked parses on demand; the hot query paths only
    // ever need the eager fields below, so a cold start parses nothing.
    Table table;
    bool table_loaded = true;
    const char* json_ptr = nullptr;
    size_t json_len = 0;
    std::string id;  // canonical serving id (never empty)
    bool live = true;
    // Eager mirrors of the table fields the query paths read (emit
    // lambdas, Resolve* bounds checks) — valid in both storage modes.
    std::string caption;
    int grid_rows = 0, grid_cols = 0;
    // Index rows owned by this slot, so id-addressed queries are served
    // from the stored embeddings instead of re-encoding: exactly one
    // table row, a contiguous column range, a contiguous entity range
    // (-1 / empty when absent).
    int tbl_row = -1;
    int col_begin = -1, col_end = -1;
    int ent_begin = -1, ent_end = -1;
    // Doc-local lexical stats for the Ask gate (term -> count over the
    // serialized table text). Derived on insert; the v2 paged store
    // persists it (sorted) so a mapped restore rebuilds the postings
    // without parsing any table JSON.
    std::unordered_map<std::string, int> doc_tf;
  };

  /// \brief Shard-local inverted index for the Ask lexical stage:
  /// term -> slots whose documents contain it. Candidate generation
  /// probes only the query's terms instead of scanning every live slot.
  /// Like the LSH indexes, entries for tombstoned slots linger (filtered
  /// by liveness at query time) until Compact rebuilds.
  using LexPostings = std::unordered_map<std::string, std::vector<int>>;

  // Everything AddTables derives from one table before touching shared
  // state (embeddings computed, widths validated).
  struct PreparedTable {
    std::vector<std::pair<int, std::vector<float>>> columns;  // grid col
    std::vector<float> table_vec;
    std::vector<std::pair<EntityRef, std::vector<float>>> entities;
  };

  /// \brief One live table with its stored embedding rows — the
  /// exchange format for re-partitioning a store onto a new shard count.
  struct LiveTableRows {
    Table table;
    std::string id;
    std::vector<float> table_vec;
    std::vector<std::pair<int, std::vector<float>>> columns;
    std::vector<std::pair<EntityRef, std::vector<float>>> entities;
  };

  ServiceShard(const TabBiNSystem* system, const ServiceOptions& options);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// \brief Embeds one encoded table for all three indexes; pure — no
  /// lock, no shard state touched.
  static Result<PreparedTable> Prepare(const TabBiNSystem& sys,
                                       const ServiceOptions& options,
                                       const Table& table,
                                       const TableEncodings& enc);

  // --- Writes (exclusive lock, taken internally) ------------------------

  /// \brief Appends prepared tables as live slots (tombstoning previous
  /// holders of re-used ids). Pure memory operation — encoding happened
  /// in Prepare, outside any lock.
  void InsertBatch(std::vector<Table> tables, std::vector<std::string> ids,
                   std::vector<PreparedTable> prepared, AddReport* report)
      TABBIN_EXCLUDES(mu_);

  /// \brief Re-inserts one table from stored embedding rows
  /// (re-partitioning): validates widths, then inserts without
  /// any encoder involvement. ParseError on width mismatch.
  Status InsertRows(LiveTableRows&& rows, AddReport* report)
      TABBIN_EXCLUDES(mu_);

  Status Remove(const std::string& id) TABBIN_EXCLUDES(mu_);

  /// \brief Enables/disables the int8 quantized first-pass scorer for
  /// this shard: builds (or frees) the code sidecars of the three
  /// embedding matrices and updates the scan options. Writer lock.
  void SetQuantizedScan(bool on, int shortlist_multiplier)
      TABBIN_EXCLUDES(mu_);

  /// \brief Switches the candidate generator (see
  /// ServiceOptions::index_kind). Enabling kIndexHnsw builds the three
  /// neighbor graphs from the stored rows when absent (a fresh corpus
  /// or an LSH-saved store — a restore that found graph sections
  /// already has them); kIndexLsh drops the graphs and restores the
  /// reference bucket-probe path byte for byte. Writer lock.
  void SetIndexKind(IndexKind kind, int ef_search) TABBIN_EXCLUDES(mu_);

  /// \brief Rebuilds every index over the live tables only, from their
  /// stored embedding rows — no encoder involvement (calling the engine
  /// under the writer lock could deadlock against pool-queued encodes);
  /// the writer lock is held for the duration.
  Status Compact() TABBIN_EXCLUDES(mu_);

  // --- Reads (shared lock, taken internally) ----------------------------

  /// \brief Outcome of resolving an id-addressed query against this
  /// shard: either the stored query embedding (copied out so no lock
  /// outlives the call), or a table copy the caller must encode because
  /// the addressed column/cell is not indexed (VMD columns, numeric or
  /// over-budget cells).
  struct Resolved {
    std::vector<float> vec;
    Table table_copy;
    bool needs_encode = false;
  };
  Result<Resolved> ResolveColumn(const std::string& id, int col) const
      TABBIN_EXCLUDES(mu_);
  Result<Resolved> ResolveTable(const std::string& id) const
      TABBIN_EXCLUDES(mu_);
  Result<Resolved> ResolveEntity(const std::string& id, int row,
                                 int col) const TABBIN_EXCLUDES(mu_);

  /// \brief This shard's ranked contribution to one scattered query.
  struct MatchSet {
    std::vector<ServiceMatch> matches;  // ServiceMatchOrder, <= k
    int candidates = 0;                 // LSH candidates before ranking
  };
  /// `keys` are the query's LSH bucket keys, hashed ONCE by the
  /// coordinator (QueryHashers) and probed into every shard — identical
  /// hyperplanes everywhere make the probe exact, and N shards cost one
  /// hash instead of N.
  MatchSet TopColumns(VecView query, const std::vector<uint64_t>& keys,
                      int k, const std::string& exclude_id,
                      int exclude_col) const TABBIN_EXCLUDES(mu_);
  MatchSet TopTables(VecView query, const std::vector<uint64_t>& keys,
                     int k, const std::string& exclude_id) const
      TABBIN_EXCLUDES(mu_);
  MatchSet TopEntities(VecView query, const std::vector<uint64_t>& keys,
                       int k, const std::string& exclude_id,
                       int exclude_row, int exclude_col) const
      TABBIN_EXCLUDES(mu_);

  // --- Batched reads (one shared-lock hold for the whole batch) ---------
  // One coalesced query against this shard. Views/pointers reference
  // coordinator-owned storage that outlives the call; `exclude_id` must
  // never be null (point it at an empty string for inline queries).
  struct ColumnProbe {
    VecView query;
    const std::vector<uint64_t>* keys = nullptr;
    int k = 0;
    const std::string* exclude_id = nullptr;
    int exclude_col = -1;
  };
  struct TableProbe {
    VecView query;
    const std::vector<uint64_t>* keys = nullptr;
    int k = 0;
    const std::string* exclude_id = nullptr;
  };
  struct EntityProbe {
    VecView query;
    const std::vector<uint64_t>* keys = nullptr;
    int k = 0;
    const std::string* exclude_id = nullptr;
    int exclude_row = -1;
    int exclude_col = -1;
  };

  /// \brief Ranks a batch of coalesced queries under ONE reader-lock
  /// hold. out[i] is byte-identical to the matching single-query call:
  /// each probe runs the exact same locked ranking body, in probe
  /// order, against one consistent view of the shard. Batching is what
  /// lets the executor serialize read windows so the per-shard reader
  /// count actually reaches zero between batches — the writer-
  /// starvation fix (see src/exec/).
  std::vector<MatchSet> TopColumnsBatch(
      const std::vector<ColumnProbe>& probes) const TABBIN_EXCLUDES(mu_);
  std::vector<MatchSet> TopTablesBatch(
      const std::vector<TableProbe>& probes) const TABBIN_EXCLUDES(mu_);
  std::vector<MatchSet> TopEntitiesBatch(
      const std::vector<EntityProbe>& probes) const TABBIN_EXCLUDES(mu_);

  /// \brief This shard's Ask candidates: the lexical top-`pool` of its
  /// live documents (doc-local saturated-tf score over the sorted
  /// distinct query terms) and the live dense LSH candidates, each with
  /// their exact cosine against the question embedding.
  struct LexicalHit {
    // Partition-independent lexical score. Kept in double: the shard-
    // local pool cut and the coordinator's merged cut must order by the
    // SAME precision, or two docs whose doubles differ but whose floats
    // tie could straddle the pool boundary differently at different
    // shard counts.
    double lex = 0;
    ServiceMatch match;  // match.score carries the cosine
  };
  struct AskPartial {
    std::vector<LexicalHit> lexical;   // (lex desc, id asc), <= pool
    std::vector<ServiceMatch> dense;   // unordered, live only
    size_t live = 0;                   // live tables in this shard
  };
  AskPartial AskCandidates(const std::vector<std::string>& query_terms,
                           VecView query_vec,
                           const std::vector<uint64_t>& tbl_keys,
                           int pool) const TABBIN_EXCLUDES(mu_);

  // --- Introspection ----------------------------------------------------

  size_t live_count() const TABBIN_EXCLUDES(mu_);
  size_t slot_count() const TABBIN_EXCLUDES(mu_);
  // includes tombstoned entries
  size_t indexed_columns() const TABBIN_EXCLUDES(mu_);
  size_t indexed_entities() const TABBIN_EXCLUDES(mu_);
  void AppendLiveIds(std::vector<std::string>* out) const
      TABBIN_EXCLUDES(mu_);

  /// \brief Copies every live table with its embedding rows
  /// (re-partitioning), in slot order. On a mapped shard this
  /// parses every lazy table JSON — ParseError if the mapped blob is
  /// corrupt, so the failure surfaces here instead of as a bad export.
  Status ExportLive(std::vector<LiveTableRows>* out) const
      TABBIN_EXCLUDES(mu_);

  // --- Paged store persistence (service/shard_store.cc) -----------------

  /// \brief Writes this shard's full state (slots incl. tombstones,
  /// refs, embedding blocks, inverse norms, LSH indexes, table JSON
  /// blob) as "<prefix>meta/json/norms/lsh/tbl/col/ent" sections. The
  /// embedding blocks land page-aligned so a reader can map them.
  void AppendStoreSections(PagedSnapshotWriter* w,
                           const std::string& prefix) const
      TABBIN_EXCLUDES(mu_);

  /// \brief Restores the state AppendStoreSections wrote, serving the
  /// embedding blocks zero-copy off the mapped snapshot: the matrices
  /// wrap the mapped row blocks (WrapExternal) and each slot's table
  /// JSON stays an unparsed pointer into the mapping. `keepalive` (the
  /// owning PagedSnapshotReader) is retained until Compact or
  /// destruction. Every cross-section invariant is validated; corrupt
  /// input is ParseError, never UB.
  Status RestoreFromStore(const PagedSnapshotReader& reader,
                          std::shared_ptr<const void> keepalive,
                          const std::string& prefix) TABBIN_EXCLUDES(mu_);

  /// \brief True when this shard serves embeddings off a mapped
  /// snapshot (observability / tests).
  bool is_mapped() const TABBIN_EXCLUDES(mu_);

 private:
  void InsertPreparedLocked(Table table, const std::string& id,
                            PreparedTable&& prepared, AddReport* report)
      TABBIN_REQUIRES(mu_);

  Status ExportLiveLocked(std::vector<LiveTableRows>* out) const
      TABBIN_REQUIRES_SHARED(mu_);

  /// \brief The slot's full table: a copy when loaded, otherwise parsed
  /// from the mapped JSON (no caching — parsing under a shared lock
  /// must not mutate the slot).
  Result<Table> MaterializeTableLocked(const TableSlot& s) const
      TABBIN_REQUIRES_SHARED(mu_);

  // `hnsw` is the task's graph generator (null when the graph path is
  // off); candidates come from the graph walk when
  // options_.index_kind == kIndexHnsw, from the LSH bucket probe
  // otherwise — everything after candidate generation is shared.
  template <typename Ref, typename Accept, typename TieLess,
            typename Emit>
  MatchSet RankLocked(const LshIndex& index, const HnswIndex* hnsw,
                      const EmbeddingMatrix& vecs,
                      const std::vector<Ref>& refs, VecView query_vec,
                      const std::vector<uint64_t>& keys, int k,
                      const Accept& accept, const TieLess& tie_less,
                      const Emit& emit) const TABBIN_REQUIRES_SHARED(mu_);

  /// \brief Builds the three HNSW graphs from the current matrix rows
  /// (in row order — deterministic), marking rows of tombstoned slots
  /// dead. Writer lock held by the caller.
  void BuildHnswLocked() TABBIN_REQUIRES(mu_);

  /// \brief Marks every index row owned by `s` dead in the graphs
  /// (no-op when the graph path is off).
  void MarkSlotDeadInHnswLocked(const TableSlot& s) TABBIN_REQUIRES(mu_);

  // The full per-query ranking bodies, shared verbatim by the one-lock-
  // per-query entry points above and the one-lock-per-batch variants —
  // the code identity that makes batched answers byte-equal.
  MatchSet TopColumnsLocked(VecView query, const std::vector<uint64_t>& keys,
                            int k, const std::string& exclude_id,
                            int exclude_col) const
      TABBIN_REQUIRES_SHARED(mu_);
  MatchSet TopTablesLocked(VecView query, const std::vector<uint64_t>& keys,
                           int k, const std::string& exclude_id) const
      TABBIN_REQUIRES_SHARED(mu_);
  MatchSet TopEntitiesLocked(VecView query,
                             const std::vector<uint64_t>& keys, int k,
                             const std::string& exclude_id, int exclude_row,
                             int exclude_col) const
      TABBIN_REQUIRES_SHARED(mu_);

  const TabBiNSystem* system_;

  mutable SharedMutex mu_;
  // options_ is guarded too: SetQuantizedScan mutates the scan knobs at
  // runtime while queries read them inside RankLocked/AskCandidates.
  ServiceOptions options_ TABBIN_GUARDED_BY(mu_);
  std::vector<TableSlot> slots_ TABBIN_GUARDED_BY(mu_);
  // live ids only
  std::unordered_map<std::string, int> id_to_slot_ TABBIN_GUARDED_BY(mu_);
  int live_count_ TABBIN_GUARDED_BY(mu_) = 0;

  LshIndex col_index_ TABBIN_GUARDED_BY(mu_);
  // row i ↔ col_refs_[i] ↔ LSH id i
  EmbeddingMatrix col_vecs_ TABBIN_GUARDED_BY(mu_);
  std::vector<ColumnRef> col_refs_ TABBIN_GUARDED_BY(mu_);

  LshIndex tbl_index_ TABBIN_GUARDED_BY(mu_);
  EmbeddingMatrix tbl_vecs_ TABBIN_GUARDED_BY(mu_);
  std::vector<int> tbl_refs_ TABBIN_GUARDED_BY(mu_);  // row i -> slot

  LshIndex ent_index_ TABBIN_GUARDED_BY(mu_);
  EmbeddingMatrix ent_vecs_ TABBIN_GUARDED_BY(mu_);
  std::vector<EntityRef> ent_refs_ TABBIN_GUARDED_BY(mu_);

  // HNSW graph candidate generators, one per task matrix. Null unless
  // options_.index_kind == kIndexHnsw (the LSH indexes are ALWAYS
  // maintained — they cost little and serve the Ask dense stage's key
  // probe). Node id i of a graph IS row i of its matrix.
  std::unique_ptr<HnswIndex> col_hnsw_ TABBIN_GUARDED_BY(mu_);
  std::unique_ptr<HnswIndex> tbl_hnsw_ TABBIN_GUARDED_BY(mu_);
  std::unique_ptr<HnswIndex> ent_hnsw_ TABBIN_GUARDED_BY(mu_);

  LexPostings lex_postings_ TABBIN_GUARDED_BY(mu_);

  // Keeps the mapped snapshot (and with it every json_ptr and every
  // WrapExternal base block) alive while this shard serves off it.
  // Dropped by Compact once all state has been materialized to heap.
  std::shared_ptr<const void> store_keepalive_ TABBIN_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Scatter-gather coordinator behind TabBinService. All functions are
// free of service state: they see the system/engine/options plus a
// stable view of the shard set, route id-addressed requests to the
// owning shard (ShardIndexFor), encode ad-hoc inputs outside every
// lock, fan the ranking out (across ThreadPool::Global() when there is
// more than one shard, inline otherwise), and merge with the
// partition-independent ServiceMatchOrder.
// ---------------------------------------------------------------------------

/// \brief Lock-free per-task hashers with the same geometry and seed as
/// every shard's indexes. Immutable after construction, so coordinators
/// hash each query vector once — no shard lock, no per-shard re-hash.
struct QueryHashers {
  LshIndex col, tbl, ent;
  QueryHashers(const TabBiNSystem& sys, const ServiceOptions& o)
      : col(ServiceColumnDim(sys), o.lsh_bits, o.lsh_tables, o.lsh_seed),
        tbl(ServiceTableDim(sys), o.lsh_bits, o.lsh_tables, o.lsh_seed),
        ent(ServiceEntityDim(sys), o.lsh_bits, o.lsh_tables, o.lsh_seed) {}
};

struct ServingCore {
  const TabBiNSystem* system = nullptr;
  EncoderEngine* engine = nullptr;
  const ServiceOptions* options = nullptr;
  const QueryHashers* hashers = nullptr;
  const std::vector<ServiceShard*>* shards = nullptr;
};

Result<AddReport> ScatterAddTables(const ServingCore& core,
                                   const std::vector<Table>& tables);
Status ScatterRemoveTable(const ServingCore& core, const std::string& id);
Status ScatterCompact(const ServingCore& core);

Result<QueryResponse> ScatterSimilarColumns(const ServingCore& core,
                                            const ColumnQueryRequest& req);
Result<QueryResponse> ScatterSimilarTables(const ServingCore& core,
                                           const TableQueryRequest& req);
Result<QueryResponse> ScatterSimilarEntities(const ServingCore& core,
                                             const EntityQueryRequest& req);
Result<AskResponse> ScatterAsk(const ServingCore& core,
                               const AskRequest& req);

// Batched variants (the async executor's coalesced path): out[i] is
// byte-identical to the matching single-query Scatter* call. Every
// request is planned (validated / encoded / hashed) through the SAME
// helpers as the single path, outside all locks; the ranking then
// takes ONE reader-lock hold per shard for the whole batch. A request
// that fails planning gets its own error Status without failing the
// rest of the batch.
std::vector<Result<QueryResponse>> ScatterSimilarColumnsBatch(
    const ServingCore& core, const std::vector<ColumnQueryRequest>& reqs);
std::vector<Result<QueryResponse>> ScatterSimilarTablesBatch(
    const ServingCore& core, const std::vector<TableQueryRequest>& reqs);
std::vector<Result<QueryResponse>> ScatterSimilarEntitiesBatch(
    const ServingCore& core, const std::vector<EntityQueryRequest>& reqs);

// The service's embedding accessors (engine-cached encode → composite;
// thread-safe, no shard locks).
std::vector<float> ServingColumnEmbedding(const ServingCore& core,
                                          const Table& table, int col);
std::vector<float> ServingTableEmbedding(const ServingCore& core,
                                         const Table& table);
std::vector<float> ServingEntityEmbedding(const ServingCore& core,
                                          const Table& table, int row,
                                          int col);

}  // namespace tabbin

#endif  // TABBIN_SERVICE_SHARD_H_
