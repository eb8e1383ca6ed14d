// Request/response vocabulary of the serving layer, plus the
// TabBinServing interface that TabBinService (service/sharded_service.h)
// implements, so callers (CLI, benchmarks, tests) hold the service — or
// a wrapper around it — behind one handle.
#ifndef TABBIN_SERVICE_SERVICE_TYPES_H_
#define TABBIN_SERVICE_SERVICE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace tabbin {

class TabBiNSystem;
class EncoderEngine;

/// \brief Upper bound on a service's shard count: the constructor clamp,
/// the Load / LoadServing override bound, and the store.meta check.
/// Far above any sane deployment; it keeps outside input (a CLI flag, a
/// hostile file) from allocating millions of shards.
inline constexpr int kMaxShards = 4096;

/// \brief Construction knobs of the serving layer.
struct ServiceOptions {
  /// EncoderEngine LRU capacity; 0 means auto — the cache grows with
  /// the corpus (every AddTables reserves room for all live tables).
  /// The cache holds token-level encodings (about 51 KB per table,
  /// serialized, at the serving bench's geometry) and fills only from
  /// reads that encode: inline query tables and id-addressed queries
  /// whose stored vector must be re-derived. AddTables reads it (a
  /// prewarmed table skips its forward passes) but never inserts, so a
  /// large corpus does not need a large cache. Persisted in the service
  /// store and re-applied on load.
  size_t encoder_cache_capacity = 1024;
  /// LSH blocking geometry shared by the three per-task indexes. The
  /// seed is part of the service identity: every shard builds its
  /// indexes from the same seed, so a vector hashes into the same
  /// buckets regardless of which shard owns it — the property that
  /// makes scattered candidate generation equal to the single-index
  /// candidate set.
  int lsh_bits = 8;
  int lsh_tables = 12;
  uint64_t lsh_seed = 1234;
  /// Index textual data cells as entities (the EC task surface).
  bool index_entities = true;
  /// Cap on entity cells indexed per table (bounds index growth on wide
  /// tables).
  int max_entities_per_table = 64;
  /// Two-stage quantized candidate scoring: when true, ranking passes
  /// first scan LSH candidates through the int8 code sidecar
  /// (approximate, 4x less bandwidth), keep the top
  /// (k * quantized_shortlist_multiplier) shortlist, and rerank ONLY the
  /// shortlist with the exact float cosine kernels — final scores are
  /// always float-exact; only shortlist membership is approximate. Off
  /// by default: the exact full scan remains the reference behavior.
  /// Runtime scoring knobs, deliberately NOT serialized (the
  /// "service.options" section predates them; re-apply via
  /// SetQuantizedScan after load).
  bool quantized_scan = false;
  /// Shortlist size as a multiple of k; clamped to >= 1. Larger r
  /// trades scan speedup for recall (r where recall@10 saturates is
  /// established by the perf_report sweep; 4 is the measured default).
  int quantized_shortlist_multiplier = 4;
  /// Candidate generator for the Similar* endpoints (see IndexKind
  /// below). kLsh is the default and the reference behavior: byte-
  /// identical answers to every pre-graph release. kHnsw swaps the
  /// bucket probe for a graph walk over an HNSW-style neighbor index —
  /// sub-linear candidate generation with ef_search as the recall/QPS
  /// knob. Candidates from either generator go through the SAME
  /// accept → (optional int8 shortlist) → exact float rerank pipeline,
  /// so final ordering is always ServiceMatchOrder. Only the active
  /// generator is maintained and stored: under kHnsw the graph takes
  /// every insert, the LSH indexes stay empty and a save writes no
  /// "lsh" sections; switching back to kLsh rebuilds the LSH indexes
  /// from the stored rows, byte-identical to maintained ones. Like the
  /// quantized knobs, these are runtime scoring knobs and deliberately
  /// NOT serialized into the "service.options" section; the graph
  /// itself persists as optional v2 store sections, and SetIndexKind
  /// after load (or a snapshot carrying the sections) re-enables the
  /// graph path.
  int index_kind = 0;  // IndexKind; int keeps the struct aggregate-simple
  /// HNSW degree bound (level 0 keeps 2*m) and build beam width. Build
  /// parameters are part of the graph's identity: the persisted
  /// sections record them, and a rebuild with the same values over the
  /// same rows reproduces the graph bit for bit.
  int hnsw_m = 16;
  int hnsw_ef_construction = 100;
  /// Query-time beam width (clamped to >= k at query time). The
  /// recall@10-vs-QPS frontier over this knob is in BENCH_PR10.json.
  int hnsw_ef_search = 96;
};

/// \brief Candidate-generator selector for ServiceOptions::index_kind.
enum IndexKind : int {
  kIndexLsh = 0,
  kIndexHnsw = 1,
};

/// \brief Outcome of one AddTables batch.
struct AddReport {
  int tables_added = 0;
  int tables_replaced = 0;  // same id re-added: old entry tombstoned
  int columns_indexed = 0;
  int entities_indexed = 0;
};

/// \brief One retrieved item. `col`/`row` are -1 when not applicable to
/// the task (e.g. table matches have neither).
struct ServiceMatch {
  std::string table_id;
  std::string caption;
  int col = -1;
  int row = -1;
  std::string entity;  // surface form, entity matches only
  float score = 0;
};

/// \brief Response shared by the three similarity endpoints.
struct QueryResponse {
  std::vector<ServiceMatch> matches;  // best first
  // Generator candidates before ranking: LSH bucket hits, or graph-walk
  // results under kIndexHnsw.
  int candidates = 0;
};

/// \brief Column similarity request: either a corpus table by id, or an
/// ad-hoc table supplied inline (encoded on the fly, not inserted).
struct ColumnQueryRequest {
  std::string table_id;
  const Table* table = nullptr;  // overrides table_id when set
  int col = 0;                   // grid column index
  int k = 10;
};

struct TableQueryRequest {
  std::string table_id;
  const Table* table = nullptr;
  int k = 10;
};

struct EntityQueryRequest {
  std::string table_id;
  const Table* table = nullptr;
  int row = 0;
  int col = 0;
  int k = 10;
};

/// \brief Free-text RAG grounding request (the paper's Sycamore-style
/// front end): a lexical candidate stage unioned with dense cosine
/// candidates, ranked by embedding similarity.
struct AskRequest {
  std::string question;
  int k = 5;
};

struct AskResponse {
  std::vector<ServiceMatch> tables;  // grounding set, best first
  std::string answer;                // one-line grounded summary
};

/// \brief The serving contract: corpus updates, similarity queries,
/// free-text grounding, embedding accessors, and persistence.
/// TabBinService (N >= 1 hash-partitioned shards, scatter-gather) is the
/// implementation; given the same system, options, and corpus it
/// answers every query byte-identically at any shard count
/// (tests/sharded_service_test.cc is the proof). Tests wrap it through
/// this interface (e.g. to hold the executor's dispatcher).
class TabBinServing {
 public:
  virtual ~TabBinServing() = default;

  // Corpus updates.
  virtual Result<AddReport> AddTables(const std::vector<Table>& tables) = 0;
  virtual Status RemoveTable(const std::string& id) = 0;
  virtual Status Compact() = 0;

  /// \brief Flips the two-stage quantized first-pass scorer at runtime
  /// (see ServiceOptions::quantized_scan). Enabling builds the int8
  /// code sidecars from the stored float rows (snapshots never carry
  /// codes); disabling frees them and restores the exact full scan —
  /// and with it byte-identity with a service that never quantized.
  /// Takes each shard's writer lock; not a per-request call.
  virtual void SetQuantizedScan(bool on, int shortlist_multiplier = 4) = 0;

  /// \brief Switches the Similar* candidate generator at runtime (see
  /// ServiceOptions::index_kind). Enabling kIndexHnsw builds the
  /// neighbor graphs from the stored rows when no persisted graph is
  /// present (a fresh corpus or an LSH-saved store) and empties the
  /// LSH indexes; switching back to kIndexLsh rebuilds the LSH indexes
  /// from the stored rows, drops the graphs, and so restores the
  /// reference bucket-probe behavior byte for byte. `ef_search <= 0`
  /// keeps the current value.
  /// Takes each shard's writer lock; not a per-request call.
  virtual void SetIndexKind(IndexKind kind, int ef_search = 0) = 0;

  // Queries.
  virtual Result<QueryResponse> SimilarColumns(
      const ColumnQueryRequest& req) const = 0;
  virtual Result<QueryResponse> SimilarTables(
      const TableQueryRequest& req) const = 0;
  virtual Result<QueryResponse> SimilarEntities(
      const EntityQueryRequest& req) const = 0;
  virtual Result<AskResponse> Ask(const AskRequest& req) const = 0;

  // Batched queries — the async executor's coalesced path. out[i] is
  // byte-identical to the matching single-query call; a request that
  // fails validation gets its own error entry without failing the
  // batch. The whole batch ranks under ONE reader-lock hold per shard,
  // which is what lets a serialized stream of batches leave writer-
  // sized gaps between lock holds (see src/exec/executor.h).
  virtual std::vector<Result<QueryResponse>> SimilarColumnsBatch(
      const std::vector<ColumnQueryRequest>& reqs) const = 0;
  virtual std::vector<Result<QueryResponse>> SimilarTablesBatch(
      const std::vector<TableQueryRequest>& reqs) const = 0;
  virtual std::vector<Result<QueryResponse>> SimilarEntitiesBatch(
      const std::vector<EntityQueryRequest>& reqs) const = 0;

  // Embedding accessors (the exact path the indexes are built from).
  virtual std::vector<float> ColumnEmbedding(const Table& table,
                                             int col) const = 0;
  virtual std::vector<float> TableEmbedding(const Table& table) const = 0;
  virtual std::vector<float> EntityEmbedding(const Table& table, int row,
                                             int col) const = 0;

  // Introspection.
  virtual size_t NumLiveTables() const = 0;
  virtual size_t NumIndexedColumns() const = 0;
  virtual size_t NumIndexedEntities() const = 0;
  virtual std::vector<std::string> LiveTableIds() const = 0;

  virtual TabBiNSystem& system() = 0;
  virtual EncoderEngine& engine() = 0;

  // Persistence.
  virtual Status Save(const std::string& path) const = 0;
};

/// \brief Serializes a table the way the serving Ask endpoint sees it
/// (caption + tuple text), shared with the Table 14 benchmark.
std::string ServiceDocumentText(const Table& table);

/// \brief The id a table is served under: its own id, or a content
/// fingerprint when the id is empty.
std::string CanonicalTableId(const Table& table);

/// \brief Stable table-id → shard assignment (FNV-1a 64 over the id
/// bytes, mod num_shards). Deterministic across platforms and sessions,
/// so a snapshot re-partitions identically wherever it is loaded.
size_t ShardIndexFor(const std::string& id, size_t num_shards);

}  // namespace tabbin

#endif  // TABBIN_SERVICE_SERVICE_TYPES_H_
