// TabBinService — the serving facade over the whole encode → index →
// query lifecycle, scatter-gathered over N >= 1 hash-partitioned shards.
//
// Callers hold one object behind a Status/Result request/response API
// instead of hand-wiring TabBiNSystem + EncoderEngine + LshIndex:
//
//   auto sys = std::make_shared<TabBiNSystem>(
//       TabBiNSystem::Create(corpus, config));
//   sys->Pretrain(corpus);
//   TabBinService svc(sys);                          // one shard
//   auto report = svc.AddTables(corpus);             // incremental insert
//   auto similar = svc.SimilarTables({.table_id = "t-3", .k = 5});
//   auto grounded = svc.Ask({.question = "overall survival months"});
//   svc.Save("service.tbsn");                        // v2 paged store
//
// Sharding: the corpus is partitioned across N ServiceShards by a
// stable hash of the table id (ShardIndexFor: FNV-1a 64 mod N), each
// shard owning its own embedding rows, LSH indexes, Ask lexical stats,
// and SharedMutex — so a write to one shard never blocks reads on the
// others. Queries scatter across the shards (on ThreadPool::Global()
// when N > 1, inline when N == 1) and merge the per-shard top-k with
// the partition-independent ServiceMatchOrder (score desc, then table
// id / col / row). Because every shard builds its LSH indexes from the
// same seed and the Ask lexical gate is doc-local, the merged answer is
// byte-identical at every shard count (tests/sharded_service_test.cc
// pins N ∈ {3, 8} against N = 1).
//
// Incremental updates: AddTables encodes and prepares each new table in
// one thread-pool pass (embeddings, LSH keys, Ask term counts; a table
// already in the encoder cache is not re-encoded, and a fresh encoding
// is dropped once prepared rather than cached) and inserts into every
// owning shard in parallel — no full rebuild. RemoveTable tombstones; dead
// entries are filtered out of every response until Compact.
//
// Thread-safety: queries (Similar* / Ask and the *Embedding accessors)
// may run from any number of threads; AddTables / RemoveTable take the
// owning shards' writer locks. Each shard's ranking pass runs under one
// shared-lock hold. A multi-table AddTables batch is applied under each
// owning shard's writer lock, so a concurrent reader may observe shard
// A's part of the batch before shard B's — the price of independent
// shard locks. A query's vector resolution is a separate (earlier) lock
// hold: a write that lands between the two is visible to the ranking
// but not to the already-resolved query embedding.
//
// Persistence: Save writes the TBSN v2 paged store (store/paged_snapshot.h)
// — the model ("tabbin.*") and "service.options" sections, "store.meta"
// with the shard count, and one "store.s<i>.*" section group per shard.
// Load maps it back zero-copy at the saved shard count, or re-partitions
// onto a different one by re-inserting the stored embedding rows by hash
// (no encoder forward passes).
#ifndef TABBIN_SERVICE_SHARDED_SERVICE_H_
#define TABBIN_SERVICE_SHARDED_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "service/service_types.h"
#include "service/shard.h"
#include "util/status.h"

namespace tabbin {

class TabBinService : public TabBinServing {
 public:
  /// \param system Trained (or deterministically initialized) system;
  /// shared so callers may keep using it directly (e.g. baselines that
  /// borrow its vocabulary).
  /// \param num_shards Partition count; clamped to [1, kMaxShards]. More
  /// shards buy write concurrency at a small per-query merge cost.
  explicit TabBinService(std::shared_ptr<TabBiNSystem> system,
                         ServiceOptions options = {}, int num_shards = 1);

  TabBinService(const TabBinService&) = delete;
  TabBinService& operator=(const TabBinService&) = delete;

  // --- Corpus updates (per-shard writer locks) --------------------------

  /// \brief Validates, encodes (batched, outside every lock) and inserts
  /// tables into the live indexes. Atomic per shard: on a validation or
  /// encode error nothing was inserted. A table whose id is already live
  /// replaces the old entry. Tables with empty ids get a
  /// content-fingerprint id.
  Result<AddReport> AddTables(const std::vector<Table>& tables) override;

  /// \brief Tombstones a live table; its columns/entities stop appearing
  /// in responses. NotFound when no live table has the id.
  Status RemoveTable(const std::string& id) override;

  /// \brief Rebuilds every index over the live tables only, reclaiming
  /// the memory and bucket pollution that removals/replacements leave
  /// behind. Holds each shard's writer lock in turn — an admin
  /// operation, not a per-request call. Answers are unchanged.
  Status Compact() override;

  /// \brief Flips the int8 two-stage first-pass scorer on every shard
  /// (each under its own writer lock). Not persisted by Save. With the
  /// scan ON, per-shard shortlists are cut shard-locally, so answers
  /// may differ (only in shortlist membership, never in score
  /// arithmetic) across shard counts; the OFF default keeps the exact
  /// N-shard == 1-shard byte-identity.
  void SetQuantizedScan(bool on, int shortlist_multiplier = 4) override;

  /// \brief Switches the Similar* candidate generator on every shard
  /// (each under its own writer lock). The graphs persist as optional
  /// v2 store sections: Save after enabling writes them, and loading
  /// such a snapshot re-engages the graph path without this call.
  /// Graph walks are shard-local, so with hnsw ON the candidate pools —
  /// and therefore answers — may differ across shard counts (same
  /// caveat class as the quantized scan); the LSH default keeps the
  /// exact N-shard == 1-shard byte-identity.
  void SetIndexKind(IndexKind kind, int ef_search = 0) override;

  // --- Queries (scatter-gather; safe from many threads) -----------------

  Result<QueryResponse> SimilarColumns(
      const ColumnQueryRequest& req) const override;
  Result<QueryResponse> SimilarTables(
      const TableQueryRequest& req) const override;
  Result<QueryResponse> SimilarEntities(
      const EntityQueryRequest& req) const override;
  Result<AskResponse> Ask(const AskRequest& req) const override;

  std::vector<Result<QueryResponse>> SimilarColumnsBatch(
      const std::vector<ColumnQueryRequest>& reqs) const override;
  std::vector<Result<QueryResponse>> SimilarTablesBatch(
      const std::vector<TableQueryRequest>& reqs) const override;
  std::vector<Result<QueryResponse>> SimilarEntitiesBatch(
      const std::vector<EntityQueryRequest>& reqs) const override;

  // --- Embedding accessors ----------------------------------------------
  // The exact embedding path the indexes are built from, cached through
  // the engine; thread-safe. Benchmarks and evaluation pipelines route
  // through these so paper numbers exercise the serving code.

  std::vector<float> ColumnEmbedding(const Table& table,
                                     int col) const override;
  std::vector<float> TableEmbedding(const Table& table) const override;
  std::vector<float> EntityEmbedding(const Table& table, int row,
                                     int col) const override;

  // --- Introspection ----------------------------------------------------

  size_t NumLiveTables() const override;
  size_t NumIndexedColumns() const override;  // includes tombstones
  size_t NumIndexedEntities() const override;
  std::vector<std::string> LiveTableIds() const override;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// \brief Live tables in one shard (observability / tests).
  size_t ShardLiveCount(int shard) const;

  TabBiNSystem& system() override { return *system_; }
  const TabBiNSystem& system() const { return *system_; }
  EncoderEngine& engine() override { return *engine_; }
  std::shared_ptr<TabBiNSystem> shared_system() const { return system_; }
  const ServiceOptions& options() const { return options_; }

  // --- Persistence ------------------------------------------------------

  /// \brief Appends the service as a TBSN v2 paged store: the model
  /// and options sections, the store meta, and per-shard full state
  /// ("store.s<i>.*", embedding blocks page-aligned). The encoder cache
  /// is deliberately omitted — encodes are deterministic, so a cold
  /// cache re-derives identical bits. Shards are written one at a time
  /// (each under its own reader lock); snapshot a write-quiesced
  /// service when cross-shard point-in-time consistency matters.
  void AppendStore(PagedSnapshotWriter* w) const;

  /// \brief Restores a paged store, serving each shard zero-copy off the
  /// mapped snapshot (`reader` is retained as the keepalive). With
  /// `num_shards_override` == 0 (or == the saved count) the restore is
  /// byte-identical to the saved service, including tombstones and
  /// candidates counts. A differing override re-partitions: the mapped
  /// state is materialized and re-inserted by hash (heap-backed).
  /// Corrupt input — shard-count/section-group mismatch, a table id live
  /// in two shards, bad embedding widths — is ParseError, never UB; an
  /// override outside [0, kMaxShards] is InvalidArgument.
  static Result<std::unique_ptr<TabBinService>> FromStore(
      std::shared_ptr<const PagedSnapshotReader> reader,
      int num_shards_override = 0);

  /// \brief Saves in the v2 paged format: to a single snapshot file
  /// (atomic replace), or — when `path` is an existing directory — as a
  /// new generation behind its MANIFEST (store/generation.h).
  Status Save(const std::string& path) const override;

  /// \brief Loads a v2 paged store (directories resolve through the
  /// generation manifest) via FromStore. A v1 stream file and a model
  /// snapshot (no "store.meta") are ParseError: rebuild with
  /// build-service.
  static Result<std::unique_ptr<TabBinService>> Load(
      const std::string& path, int num_shards_override = 0);

  /// \brief True when any shard serves off a mapped snapshot.
  bool IsMapped() const;

 private:
  // The scatter-gather coordinator. Id-addressed queries route to the
  // owning shard (ShardIndexFor); ad-hoc inputs encode outside every
  // lock; ranking fans out across the shards (ForEachShard) and merges
  // with the partition-independent ServiceMatchOrder.

  // One similarity request of any task (defined in the .cc).
  struct Query;
  // A query after planning: its vector, LSH keys and excluded id.
  struct Plan;

  /// \brief The engine-cached embedding a task's index holds for cell
  /// (row, col) of `table` (-1 where the task has no row / col).
  std::vector<float> Embed(ServiceTask task, const Table& table, int row,
                           int col) const;

  /// \brief Validates a query, produces its vector (inline encode or
  /// stored-row resolve) and hashes it ONCE — all outside every lock.
  Result<Plan> PlanQuery(const Query& query) const;

  /// \brief Plans every query, ranks the planned ones under ONE reader-
  /// lock hold per shard, and merges per query. A query that fails
  /// planning gets its own error without failing the rest; a single
  /// Similar* call is a batch of one, so out[i] is byte-identical to
  /// the sequential answer by construction.
  std::vector<Result<QueryResponse>> RankBatch(
      const std::vector<Query>& queries) const;

  /// \brief Runs fn(i) for every shard index: shards 1..N-1 on
  /// ThreadPool::Global() and shard 0 inline when there is parallelism
  /// to use, all inline otherwise; joins before returning.
  template <typename Fn>
  void ForEachShard(const Fn& fn) const;

  std::shared_ptr<TabBiNSystem> system_;
  std::unique_ptr<EncoderEngine> engine_;
  // Not TABBIN_GUARDED_BY anything: the service level holds no mutex —
  // all mutable corpus state lives inside the shards behind their
  // annotated SharedMutex. The scan knobs SetQuantizedScan writes here
  // are service-level copies read only by later admin/config calls on
  // the caller's thread; the copies queries actually consult are the
  // per-shard ones, which ARE guarded (ServiceShard::options_).
  ServiceOptions options_;
  // Per-task query hashers (indexed by ServiceTask) with the geometry
  // and seed of every shard's LSH indexes. Immutable after
  // construction, so each query vector is hashed once, lock-free.
  std::vector<LshIndex> hashers_;
  std::vector<std::unique_ptr<ServiceShard>> shards_;
};

/// \brief Factory for the `--shards=N` knob: a TabBinService over
/// `num_shards` shards (clamped to [1, kMaxShards]).
std::unique_ptr<TabBinServing> MakeServing(
    std::shared_ptr<TabBiNSystem> system, int num_shards,
    ServiceOptions options = {});

/// \brief TabBinService::Load behind the TabBinServing interface.
/// `num_shards_override` > 0 re-partitions onto that many shards; 0
/// keeps the saved layout.
Result<std::unique_ptr<TabBinServing>> LoadServing(
    const std::string& path, int num_shards_override = 0);

}  // namespace tabbin

#endif  // TABBIN_SERVICE_SHARDED_SERVICE_H_
