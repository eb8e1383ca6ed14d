// ServiceShard — the unit of corpus ownership in the serving layer.
//
// A shard owns everything needed to answer similarity and grounding
// queries over its subset of the corpus: the table slots (live +
// tombstoned), one TaskIndex per serving task (tables, columns,
// entities: a flat embedding matrix, its refs, and ONE candidate
// generator — an LSH index or an HNSW graph, whichever is active), the
// lexical postings behind Ask (term -> (slot, count), the only copy of
// the doc-local term counts), and one SharedMutex (util/mutex.h, the
// annotated std::shared_mutex).
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

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/tabbin.h"
#include "index/hnsw_index.h"
#include "service/service_types.h"
#include "store/paged_snapshot.h"
#include "tasks/lsh.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbin {

/// \brief The three serving tasks, in the order every per-task loop and
/// every store section group (tbl, col, ent) runs.
enum ServiceTask : int {
  kTaskTable = 0,
  kTaskColumn = 1,
  kTaskEntity = 2,
};
inline constexpr int kNumServiceTasks = 3;

/// \brief Embedding width of a task, fixed by the composite
/// constructions (Fig. 5): the TC composite is row ⊕ HMD ⊕ VMD means,
/// the CC composite HMD ⊕ column mean, and entity embeddings come from
/// the column model.
int ServiceTaskDim(const TabBiNSystem& sys, int task);

/// \brief Task names as error messages spell them.
inline constexpr const char* kServiceTaskNames[kNumServiceTasks] = {
    "table", "column", "entity"};

/// \brief OutOfRange unless (row, col) addresses a queryable cell of a
/// rows x cols grid: a column query checks `col`, an entity query the
/// cell, a table query nothing. Shared by inline and id-addressed
/// queries so both report the same error.
Status CheckQueryCell(ServiceTask task, int rows, int cols, int row, int col);

/// \brief Total order on matches: score descending, then table id /
/// column / row ascending. Partition-independent — the property every
/// per-shard ranking and every cross-shard merge sorts by.
bool ServiceMatchOrder(const ServiceMatch& a, const ServiceMatch& b);

/// \brief A table's Ask document term counts: (term, count) pairs,
/// each term once, sorted by term when Prepare derives them (an export
/// reads them back from the postings unsorted; the postings do not
/// depend on the order). The exchange format between Prepare, export
/// and the shard's postings, which keep the only resident copy.
using DocTermCounts = std::vector<std::pair<std::string, int>>;

/// \brief Term counts of a table's Ask document text — THE lexical
/// recipe of the serving layer. Every site that derives doc stats
/// (insert, snapshot restore) must call this one function, or a
/// restored service would score the lexical gate differently from a
/// live-built one and silently break the equivalence guarantees.
DocTermCounts ServiceDocTermFrequencies(const Table& table);

/// \brief Writes / reads the "service.options" section (construction
/// knobs travel with the state so a restored service behaves
/// identically on later updates).
void AppendServiceOptions(const ServiceOptions& options,
                          PagedSnapshotWriter* snapshot);
Result<ServiceOptions> ReadServiceOptions(
    const PagedSnapshotReader& snapshot);

// --- Paged (v2) store plumbing (implemented in service/shard_store.cc) -----

/// \brief Writes / reads the "store.meta" section: the saved shard
/// count. Reading rejects a missing section (a model snapshot is not a
/// service store), a truncated one and a count outside [1, kMaxShards]
/// as ParseError.
void AppendStoreMeta(PagedSnapshotWriter* w, uint32_t shards);
Result<uint32_t> ReadStoreMeta(const PagedSnapshotReader& reader);

/// \brief Section prefix for shard i ("store.s<i>.").
std::string StoreShardPrefix(uint32_t shard);

class ServiceShard {
 public:
  /// \brief The owner of one index row: its slot, plus the grid cell
  /// the row embeds (-1 / empty where the task has none — a table row
  /// has neither row nor col, a column row no row and no surface).
  struct Ref {
    int slot = -1;
    int row = -1;
    int col = -1;
    std::string surface;  // entity rows only
  };

  /// \brief One index row: its owner, its embedding, and its LSH bucket
  /// keys (LshIndex::QueryKeys of `vec` on the service's hashers, so the
  /// insert does no hashing under the writer lock). Empty `keys` mean
  /// "hash on insert".
  struct Row {
    Ref ref;
    std::vector<float> vec;
    std::vector<uint64_t> keys;
  };

  /// \brief One task's index: row i of `vecs` ↔ refs[i] ↔ LSH id i (or
  /// graph node i).
  struct TaskIndex {
    /// Empty index with the service's LSH geometry; the int8 sidecar and
    /// the graph are set up when the options turn them on.
    TaskIndex(int dim, const ServiceOptions& options);

    /// Appends one row to the matrix, the refs and the active generator:
    /// the graph when one exists, the LSH index otherwise — never both.
    Status Append(Row row);

    /// The candidate generator: a graph walk with beam `beam` when the
    /// graph exists, the LSH bucket probe of `keys` otherwise. Both hand
    /// back row ids; everything downstream is shared.
    std::vector<int> Candidates(VecView query,
                                const std::vector<uint64_t>& keys,
                                int beam) const;

    // Holds every row while `hnsw` is null and stays empty (hyperplanes
    // only) while it is set: only the active generator is maintained.
    // Switching back to LSH rebuilds the buckets from the matrix rows in
    // row order, which reproduces the incrementally built index byte
    // for byte (same hyperplanes, same insertion order).
    LshIndex lsh;
    EmbeddingMatrix vecs;
    std::vector<Ref> refs;
    // Non-null exactly when options.index_kind == kIndexHnsw.
    std::unique_ptr<HnswIndex> hnsw;
  };

  struct RowRange {
    int begin = -1, end = -1;  // -1 / -1 when the slot owns no row
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
    // Eager mirrors of the table fields the query paths read (emit,
    // Resolve bounds checks) — valid in both storage modes.
    std::string caption;
    int grid_rows = 0, grid_cols = 0;
    // Index rows owned by this slot, per task, so id-addressed queries
    // are served from the stored embeddings instead of re-encoding:
    // exactly one table row (slot i owns table row i), a contiguous
    // column range, a contiguous entity range.
    std::array<RowRange, kNumServiceTasks> rows;
    // A slot's Ask term counts live only in the shard's LexPostings;
    // save and export read them back per slot (SlotTermsLocked).
  };

  /// \brief One posting: a slot whose Ask document contains the term,
  /// and how often (the doc-local term count the lexical score reads).
  struct Posting {
    int slot = -1;
    int count = 0;
  };

  /// \brief Shard-local inverted index for the Ask lexical stage, and
  /// the only copy of every slot's Ask term counts: term -> postings in
  /// slot order. Scoring runs term-at-a-time over the query's terms
  /// instead of scanning every live slot. Like the LSH indexes, entries
  /// for tombstoned slots linger (filtered by liveness at query time)
  /// until Compact rebuilds.
  using LexPostings = std::unordered_map<std::string, std::vector<Posting>>;

  /// \brief Everything an insert needs from one table, derived before
  /// any lock is taken: the table, its serving id, its Ask document term
  /// counts (ServiceDocTermFrequencies; the insert moves them into the
  /// postings) and its index rows per task, whose refs get their `slot`
  /// on insert. It is also the exchange format of Compact and
  /// re-partitioning, whose rows carry no keys and whose term counts are
  /// read back from the postings.
  struct PreparedTable {
    Table table;
    std::string id;
    DocTermCounts doc_tf;
    std::array<std::vector<Row>, kNumServiceTasks> rows;
  };

  ServiceShard(const TabBiNSystem* system, const ServiceOptions& options);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// \brief Derives one encoded table's PreparedTable: the table copy,
  /// the doc term counts, the embeddings for all three indexes and their
  /// bucket keys under `hashers` (indexed by ServiceTask, the geometry
  /// and seed of every shard's LSH indexes). Pure — no lock, no shard
  /// state touched — so AddTables runs it in the thread pool.
  static Result<PreparedTable> Prepare(const TabBiNSystem& sys,
                                       const ServiceOptions& options,
                                       const std::vector<LshIndex>& hashers,
                                       const Table& table, std::string id,
                                       const TableEncodings& enc);

  // --- Writes (exclusive lock, taken internally) ------------------------

  /// \brief Appends prepared tables as live slots (tombstoning previous
  /// holders of re-used ids), in batch order. Pure memory operation —
  /// encoding and hashing happened in Prepare, outside any lock.
  void InsertBatch(std::vector<PreparedTable> batch, AddReport* report)
      TABBIN_EXCLUDES(mu_);

  /// \brief Re-inserts one table from stored embedding rows
  /// (re-partitioning): validates widths and cells, then inserts
  /// without any encoder involvement. ParseError on a mismatch.
  Status InsertRows(PreparedTable&& rows, AddReport* report)
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
  /// already has them), then empties the LSH indexes; kIndexLsh
  /// rebuilds the LSH indexes from the stored rows in row order, then
  /// drops the graphs, which restores the reference bucket-probe path
  /// byte for byte. Writer lock.
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
  /// `row` / `col` address the query's cell (-1 where the task has
  /// none). NotFound for an id not live here, OutOfRange for a cell
  /// outside the table's grid.
  Result<Resolved> Resolve(ServiceTask task, const std::string& id,
                           int row, int col) const TABBIN_EXCLUDES(mu_);

  /// \brief One query against this shard. Views/pointers reference
  /// coordinator-owned storage that outlives the call. `keys` are the
  /// query's LSH bucket keys, hashed ONCE by the coordinator and probed
  /// into every shard — identical hyperplanes everywhere make the probe
  /// exact, and N shards cost one hash instead of N. A row is excluded
  /// when it belongs to `exclude_id`'s slot at (exclude_row,
  /// exclude_col); `exclude_id` must never be null (point it at an
  /// empty string to exclude nothing).
  struct Probe {
    ServiceTask task = kTaskTable;
    VecView query;
    const std::vector<uint64_t>* keys = nullptr;
    int k = 0;
    const std::string* exclude_id = nullptr;
    int exclude_row = -1;
    int exclude_col = -1;
  };

  /// \brief This shard's ranked contribution to one scattered query.
  struct MatchSet {
    std::vector<ServiceMatch> matches;  // ServiceMatchOrder, <= k
    int candidates = 0;  // generator (LSH or graph) candidates
  };

  /// \brief Ranks a batch of queries under ONE reader-lock hold. out[i]
  /// is byte-identical to ranking probes[i] alone: each probe runs the
  /// same locked ranking body, in probe order, against one consistent
  /// view of the shard. Batching is what lets the executor serialize
  /// read windows so the per-shard reader count actually reaches zero
  /// between batches — the writer-starvation fix (see src/exec/).
  std::vector<MatchSet> Rank(const std::vector<Probe>& probes) const
      TABBIN_EXCLUDES(mu_);

  /// \brief This shard's Ask candidates: the lexical top-`pool` of its
  /// live documents (doc-local saturated-tf score over the sorted
  /// distinct query terms) and the dense top-`pool` of the table task,
  /// each with their exact cosine against the question embedding.
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
    std::vector<ServiceMatch> dense;   // ServiceMatchOrder, <= pool
    size_t live = 0;                   // live tables in this shard
  };
  /// `dense` is a table-task probe with k = pool.
  AskPartial AskCandidates(const std::vector<std::string>& query_terms,
                           const Probe& dense) const TABBIN_EXCLUDES(mu_);

  // --- Introspection ----------------------------------------------------

  size_t live_count() const TABBIN_EXCLUDES(mu_);
  size_t slot_count() const TABBIN_EXCLUDES(mu_);
  // includes tombstoned entries
  size_t indexed_rows(ServiceTask task) const TABBIN_EXCLUDES(mu_);
  void AppendLiveIds(std::vector<std::string>* out) const
      TABBIN_EXCLUDES(mu_);

  /// \brief Copies every live table with its embedding rows
  /// (re-partitioning), in slot order. On a mapped shard this
  /// parses every lazy table JSON — ParseError if the mapped blob is
  /// corrupt, so the failure surfaces here instead of as a bad export.
  Status ExportLive(std::vector<PreparedTable>* out) const
      TABBIN_EXCLUDES(mu_);

  // --- Paged store persistence (service/shard_store.cc) -----------------

  /// \brief Writes this shard's full state (slots incl. tombstones,
  /// refs, embedding blocks, inverse norms, table JSON blob, and the
  /// active generator) as "<prefix>meta/json/norms/tbl/col/ent"
  /// sections plus "<prefix>lsh" (LSH shards) or the "<prefix>hnsw.*"
  /// graph sections (graph shards). The embedding blocks land
  /// page-aligned so a reader can map them.
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
  void InsertPreparedLocked(PreparedTable&& prepared, AddReport* report)
      TABBIN_REQUIRES(mu_);

  Status ExportLiveLocked(std::vector<PreparedTable>* out) const
      TABBIN_REQUIRES_SHARED(mu_);

  /// \brief The slot's full table: a copy when loaded, otherwise parsed
  /// from the mapped JSON (no caching — parsing under a shared lock
  /// must not mutate the slot).
  Result<Table> MaterializeTableLocked(const TableSlot& s) const
      TABBIN_REQUIRES_SHARED(mu_);

  /// \brief The one ranking body behind every read: candidates from the
  /// task's generator, the exclusion filter, an optional int8
  /// shortlist, the exact float rerank and the top-k cut, all in
  /// ServiceMatchOrder.
  MatchSet RankLocked(const Probe& probe) const TABBIN_REQUIRES_SHARED(mu_);

  /// \brief Builds the three HNSW graphs from the current matrix rows
  /// (in row order — deterministic), marking rows of tombstoned slots
  /// dead. Writer lock held by the caller.
  void BuildHnswLocked() TABBIN_REQUIRES(mu_);

  /// \brief Rebuilds the three LSH indexes from the current matrix rows
  /// in row order, tombstoned and mapped rows included — the buckets an
  /// LSH shard would have maintained incrementally. Writer lock held.
  void BuildLshLocked() TABBIN_REQUIRES(mu_);

  /// \brief Every live slot's Ask term counts read back from the
  /// postings, in no particular order (dead slots get an empty list).
  /// The term pointers point into lex_postings_'s keys.
  std::vector<std::vector<std::pair<const std::string*, int>>>
  SlotTermsLocked() const TABBIN_REQUIRES_SHARED(mu_);

  /// \brief Marks every index row owned by `s` dead in the graphs
  /// (no-op when the graph path is off).
  void MarkSlotDeadInHnswLocked(const TableSlot& s) TABBIN_REQUIRES(mu_);

  const TabBiNSystem* system_;

  mutable SharedMutex mu_;
  // options_ is guarded too: SetQuantizedScan mutates the scan knobs at
  // runtime while queries read them inside RankLocked.
  ServiceOptions options_ TABBIN_GUARDED_BY(mu_);
  std::vector<TableSlot> slots_ TABBIN_GUARDED_BY(mu_);
  // live ids only
  std::unordered_map<std::string, int> id_to_slot_ TABBIN_GUARDED_BY(mu_);
  int live_count_ TABBIN_GUARDED_BY(mu_) = 0;

  // Indexed by ServiceTask.
  std::array<TaskIndex, kNumServiceTasks> tasks_ TABBIN_GUARDED_BY(mu_);

  LexPostings lex_postings_ TABBIN_GUARDED_BY(mu_);

  // Keeps the mapped snapshot (and with it every json_ptr and every
  // WrapExternal base block) alive while this shard serves off it.
  // Dropped by Compact once all state has been materialized to heap.
  std::shared_ptr<const void> store_keepalive_ TABBIN_GUARDED_BY(mu_);
};

}  // namespace tabbin

#endif  // TABBIN_SERVICE_SHARD_H_
