#include "service/sharded_service.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "store/generation.h"
#include "store/paged_snapshot.h"
#include "text/wordpiece.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace tabbin {

struct TabBinService::Query {
  Query(const ColumnQueryRequest& req)
      : task(kTaskColumn), table_id(&req.table_id), table(req.table),
        col(req.col), k(req.k) {}
  Query(const TableQueryRequest& req)
      : task(kTaskTable), table_id(&req.table_id), table(req.table),
        k(req.k) {}
  Query(const EntityQueryRequest& req)
      : task(kTaskEntity), table_id(&req.table_id), table(req.table),
        row(req.row), col(req.col), k(req.k) {}

  ServiceTask task;
  const std::string* table_id;
  const Table* table;  // overrides table_id when set
  // The query cell, -1 where the task has none; it is also the cell the
  // id-addressed query excludes from its own answers.
  int row = -1;
  int col = -1;
  int k;
};

struct TabBinService::Plan {
  std::vector<float> qvec;
  std::vector<uint64_t> keys;
  std::string exclude_id;  // empty for inline queries
};

namespace {

// Indexed by ServiceTask.
constexpr const char* kEndpoint[kNumServiceTasks] = {
    "SimilarTables", "SimilarColumns", "SimilarEntities"};

// A free-text question enters the embedding space as a minimal table:
// the question is both caption and single data cell, so TableComposite1
// places it where topically similar tables live.
Table QuestionTable(const std::string& question) {
  Table t(1, 1, /*hmd_rows=*/0, /*vmd_cols=*/0);
  t.SetValue(0, 0, Value::String(question));
  t.set_caption(question);
  return t;
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

// The first non-OK status in shard order, or OK: the error a serial
// loop over the shards would have stopped at.
Status FirstError(const std::vector<Status>& per_shard) {
  for (const Status& st : per_shard) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

TabBinService::TabBinService(std::shared_ptr<TabBiNSystem> system,
                             ServiceOptions options, int num_shards)
    : system_(std::move(system)), options_(options) {
  for (int t = 0; t < kNumServiceTasks; ++t) {
    hashers_.emplace_back(ServiceTaskDim(*system_, t), options_.lsh_bits,
                          options_.lsh_tables, options_.lsh_seed);
  }
  const size_t n = static_cast<size_t>(std::clamp(num_shards, 1, kMaxShards));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<ServiceShard>(system_.get(), options_));
  }
  // Auto mode starts small; AddTables reserves capacity for the whole
  // corpus as it grows.
  const size_t capacity = options_.encoder_cache_capacity == 0
                              ? 256
                              : options_.encoder_cache_capacity;
  engine_ = std::make_unique<EncoderEngine>(system_.get(), capacity);
}

template <typename Fn>
void TabBinService::ForEachShard(const Fn& fn) const {
  // Inline on a single shard or a single-core pool (per-shard ranking is
  // cheap; submit/join would only serialize queries behind the one
  // worker), and inline when called FROM a pool worker: submitting
  // shard chunks back into the same global pool and blocking on their
  // futures wedges permanently once every worker is blocked in exactly
  // this spot. fn writes only to its own slot of any result vector, so
  // no synchronization is needed beyond the join.
  const size_t n = shards_.size();
  if (n <= 1 || ThreadPool::Global().num_threads() <= 1 ||
      ThreadPool::InPoolWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    futures.push_back(ThreadPool::Global().Submit([&fn, i] { fn(i); }));
  }
  fn(0);
  for (auto& f : futures) f.get();
}

// --- Corpus updates -------------------------------------------------------

Result<AddReport> TabBinService::AddTables(const std::vector<Table>& tables) {
  AddReport report;
  if (tables.empty()) return report;
  const size_t count = tables.size();
  std::vector<Status> valid(count);
  std::vector<std::string> ids(count);
  ParallelFor(
      0, count,
      [&](size_t i) {
        valid[i] = tables[i].Validate();
        if (valid[i].ok()) ids[i] = CanonicalTableId(tables[i]);
      },
      /*grain=*/8);
  for (size_t i = 0; i < count; ++i) {
    if (!valid[i].ok()) {
      return Status::InvalidArgument("AddTables: table '" + tables[i].id() +
                                     "': " + valid[i].message());
    }
  }

  if (options_.encoder_cache_capacity == 0) {
    // Documented auto mode: the cache grows with the corpus so steady-
    // state queries never re-run forward passes once they have encoded
    // a table.
    size_t slots = 0;
    for (const auto& shard : shards_) slots += shard->slot_count();
    engine_->Reserve(slots + count);
  }

  // Encode and prepare each table in one pass, before any shard lock is
  // taken: forward passes are the expensive part, so readers keep being
  // served while new tables encode. Embeddings, bucket keys, doc term
  // counts and the table copy are derived outside the locks too; each
  // shard's writer critical section is appends only. A table's token
  // states live only until its PreparedTable is derived, so at most one
  // per worker is alive, and the cache is only read here: it fills from
  // the queries that use it, not from the corpus. A prewarmed (or warm-
  // started) cache still saves the forward passes.
  std::vector<Result<ServiceShard::PreparedTable>> prepared(
      count, Status::Internal("AddTables: table not prepared"));
  ParallelFor(
      0, count,
      [&](size_t i) {
        std::optional<TableEncodings> fresh;
        auto cached = engine_->Find(tables[i]);
        if (!cached) fresh = system_->EncodeAll(tables[i]);
        prepared[i] = ServiceShard::Prepare(*system_, options_, hashers_,
                                            tables[i], std::move(ids[i]),
                                            cached ? *cached : *fresh);
      },
      /*grain=*/1);

  // Group by owning shard, preserving batch order within each group so
  // same-id replacement semantics inside one batch are unchanged.
  const size_t n = shards_.size();
  std::vector<std::vector<ServiceShard::PreparedTable>> batches(n);
  for (auto& p : prepared) {
    if (!p.ok()) return p.status();
    const size_t s = ShardIndexFor(p.value().id, n);
    batches[s].push_back(std::move(p).value());
  }
  // Each shard's batch is applied atomically under that shard's writer
  // lock, all shards at once; cross-shard visibility is per-shard (a
  // reader may observe shard A's half of a batch before shard B's).
  std::vector<AddReport> reports(n);
  ForEachShard([&](size_t s) {
    if (!batches[s].empty()) {
      shards_[s]->InsertBatch(std::move(batches[s]), &reports[s]);
    }
  });
  for (const AddReport& r : reports) {
    report.tables_added += r.tables_added;
    report.tables_replaced += r.tables_replaced;
    report.columns_indexed += r.columns_indexed;
    report.entities_indexed += r.entities_indexed;
  }
  return report;
}

Status TabBinService::RemoveTable(const std::string& id) {
  return shards_[ShardIndexFor(id, shards_.size())]->Remove(id);
}

Status TabBinService::Compact() {
  // Shards compact independently, all at once; every shard runs even
  // when another fails, and the lowest failing index reports, so the
  // error does not depend on thread timing.
  std::vector<Status> done(shards_.size(), Status::OK());
  ForEachShard([&](size_t s) { done[s] = shards_[s]->Compact(); });
  return FirstError(done);
}

void TabBinService::SetQuantizedScan(bool on, int shortlist_multiplier) {
  options_.quantized_scan = on;
  options_.quantized_shortlist_multiplier = std::max(1, shortlist_multiplier);
  // Each shard (re-)quantizes its own three matrices on its own thread.
  ForEachShard([&](size_t s) {
    shards_[s]->SetQuantizedScan(on, shortlist_multiplier);
  });
}

void TabBinService::SetIndexKind(IndexKind kind, int ef_search) {
  options_.index_kind = kind;
  if (ef_search > 0) options_.hnsw_ef_search = ef_search;
  ForEachShard([&](size_t s) { shards_[s]->SetIndexKind(kind, ef_search); });
}

// --- Queries --------------------------------------------------------------

std::vector<float> TabBinService::Embed(ServiceTask task, const Table& table,
                                        int row, int col) const {
  auto enc = engine_->Encode(table);
  switch (task) {
    case kTaskColumn:
      return system_->ColumnComposite(*enc, col);
    case kTaskEntity:
      return system_->EntityEmbedding(*enc, row, col);
    default:
      return system_->TableComposite1(*enc);
  }
}

Result<TabBinService::Plan> TabBinService::PlanQuery(
    const Query& query) const {
  if (query.k <= 0) {
    return Status::InvalidArgument(std::string(kEndpoint[query.task]) +
                                   ": k <= 0");
  }
  Plan plan;
  if (query.table != nullptr) {
    Status st = query.table->Validate();
    if (!st.ok()) {
      return Status::InvalidArgument("query table invalid: " + st.message());
    }
    TABBIN_RETURN_IF_ERROR(CheckQueryCell(query.task, query.table->rows(),
                                          query.table->cols(), query.row,
                                          query.col));
    // Inline query tables encode before any lock is taken: forward
    // passes must never stall writers behind a held reader lock.
    plan.qvec = Embed(query.task, *query.table, query.row, query.col);
  } else {
    const std::string& id = *query.table_id;
    plan.exclude_id = id;
    TABBIN_ASSIGN_OR_RETURN(
        ServiceShard::Resolved r,
        shards_[ShardIndexFor(id, shards_.size())]->Resolve(
            query.task, id, query.row, query.col));
    plan.qvec = r.needs_encode
                    ? Embed(query.task, r.table_copy, query.row, query.col)
                    : std::move(r.vec);
  }
  plan.keys = hashers_[query.task].QueryKeys(plan.qvec);
  return plan;
}

std::vector<Result<QueryResponse>> TabBinService::RankBatch(
    const std::vector<Query>& queries) const {
  std::vector<Result<Plan>> plans;
  plans.reserve(queries.size());
  for (const Query& query : queries) plans.push_back(PlanQuery(query));
  // Probes point into `plans`, which is fully built (and never resized
  // again) before the first pointer is taken.
  std::vector<ServiceShard::Probe> probes;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!plans[i].ok()) continue;
    const Plan& plan = plans[i].value();
    const Query& query = queries[i];
    probes.push_back({query.task, plan.qvec, &plan.keys, query.k,
                      &plan.exclude_id, query.row, query.col});
  }
  std::vector<std::vector<ServiceShard::MatchSet>> per_shard(shards_.size());
  ForEachShard([&](size_t s) { per_shard[s] = shards_[s]->Rank(probes); });
  std::vector<Result<QueryResponse>> out;
  out.reserve(queries.size());
  size_t vi = 0;  // position within the planned (probe) subsequence
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!plans[i].ok()) {
      out.push_back(plans[i].status());
      continue;
    }
    std::vector<ServiceShard::MatchSet> partials;
    partials.reserve(shards_.size());
    for (auto& shard_sets : per_shard) {
      partials.push_back(std::move(shard_sets[vi]));
    }
    out.push_back(MergeMatchSets(std::move(partials), queries[i].k));
    ++vi;
  }
  return out;
}

Result<QueryResponse> TabBinService::SimilarColumns(
    const ColumnQueryRequest& req) const {
  return std::move(RankBatch({req}).front());
}

Result<QueryResponse> TabBinService::SimilarTables(
    const TableQueryRequest& req) const {
  return std::move(RankBatch({req}).front());
}

Result<QueryResponse> TabBinService::SimilarEntities(
    const EntityQueryRequest& req) const {
  return std::move(RankBatch({req}).front());
}

std::vector<Result<QueryResponse>> TabBinService::SimilarColumnsBatch(
    const std::vector<ColumnQueryRequest>& reqs) const {
  return RankBatch({reqs.begin(), reqs.end()});
}

std::vector<Result<QueryResponse>> TabBinService::SimilarTablesBatch(
    const std::vector<TableQueryRequest>& reqs) const {
  return RankBatch({reqs.begin(), reqs.end()});
}

std::vector<Result<QueryResponse>> TabBinService::SimilarEntitiesBatch(
    const std::vector<EntityQueryRequest>& reqs) const {
  return RankBatch({reqs.begin(), reqs.end()});
}

Result<AskResponse> TabBinService::Ask(const AskRequest& req) const {
  if (req.question.empty()) {
    return Status::InvalidArgument("Ask: empty question");
  }
  if (req.k <= 0) return Status::InvalidArgument("Ask: k <= 0");
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
      system_->TableComposite1(system_->EncodeAll(pseudo));

  // Sorted distinct query terms: the lexical scores sum term
  // contributions in one fixed order, so every shard — and the
  // single-shard service — computes bit-identical scores.
  std::vector<std::string> terms = PreTokenize(req.question);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const std::vector<uint64_t> keys = hashers_[kTaskTable].QueryKeys(qvec);
  const std::string no_exclusion;
  const ServiceShard::Probe dense{kTaskTable, qvec, &keys, pool,
                                  &no_exclusion};
  std::vector<ServiceShard::AskPartial> partials(shards_.size());
  ForEachShard([&](size_t i) {
    partials[i] = shards_[i]->AskCandidates(terms, dense);
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

  // Candidate pool: lexical cut ∪ dense top-pool, deduplicated by table
  // id, then exact cosine ranking — the same lexical ∪ dense recipe the
  // Table 14 grounding uses.
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

// --- Embedding accessors --------------------------------------------------

std::vector<float> TabBinService::ColumnEmbedding(const Table& table,
                                                  int col) const {
  return Embed(kTaskColumn, table, -1, col);
}

std::vector<float> TabBinService::TableEmbedding(const Table& table) const {
  return Embed(kTaskTable, table, -1, -1);
}

std::vector<float> TabBinService::EntityEmbedding(const Table& table, int row,
                                                  int col) const {
  return Embed(kTaskEntity, table, row, col);
}

// --- Introspection --------------------------------------------------------

size_t TabBinService::NumLiveTables() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->live_count();
  return n;
}

size_t TabBinService::NumIndexedColumns() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->indexed_rows(kTaskColumn);
  return n;
}

size_t TabBinService::NumIndexedEntities() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->indexed_rows(kTaskEntity);
  return n;
}

std::vector<std::string> TabBinService::LiveTableIds() const {
  std::vector<std::string> ids;
  for (const auto& shard : shards_) shard->AppendLiveIds(&ids);
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t TabBinService::ShardLiveCount(int shard) const {
  if (shard < 0 || shard >= num_shards()) return 0;
  return shards_[static_cast<size_t>(shard)]->live_count();
}

// --- Persistence ----------------------------------------------------------

void TabBinService::AppendStore(PagedSnapshotWriter* w) const {
  // The encoder cache is deliberately NOT saved — encodes are
  // deterministic, so a cold cache re-derives identical bits, and
  // omitting it is a large share of the cold-start win.
  system_->AppendTo(w);
  AppendServiceOptions(options_, w);
  AppendStoreMeta(w, static_cast<uint32_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->AppendStoreSections(
        w, StoreShardPrefix(static_cast<uint32_t>(i)));
  }
}

Result<std::unique_ptr<TabBinService>> TabBinService::FromStore(
    std::shared_ptr<const PagedSnapshotReader> reader,
    int num_shards_override) {
  if (num_shards_override < 0 || num_shards_override > kMaxShards) {
    return Status::InvalidArgument(
        "shard count override " + std::to_string(num_shards_override) +
        " outside [0, " + std::to_string(kMaxShards) + "]");
  }
  TABBIN_ASSIGN_OR_RETURN(uint32_t saved, ReadStoreMeta(*reader));
  // The meta's shard count and the section groups must agree in both
  // directions: a missing group loses tables silently, an extra one
  // means the meta undercounts.
  for (uint32_t i = 0; i < saved; ++i) {
    if (!reader->HasSection(StoreShardPrefix(i) + "meta")) {
      return Status::ParseError(
          "paged store: meta declares " + std::to_string(saved) +
          " shards but group '" + StoreShardPrefix(i) + "' is missing");
    }
  }
  if (reader->HasSection(StoreShardPrefix(saved) + "meta")) {
    return Status::ParseError(
        "paged store: more shard section groups than the meta's " +
        std::to_string(saved));
  }
  TABBIN_ASSIGN_OR_RETURN(TabBiNSystem sys,
                          TabBiNSystem::FromSnapshot(*reader));
  TABBIN_ASSIGN_OR_RETURN(ServiceOptions options,
                          ReadServiceOptions(*reader));
  std::shared_ptr<TabBiNSystem> system =
      std::make_shared<TabBiNSystem>(std::move(sys));

  // Restore at the SAVED count first: with a matching (or absent)
  // override that mapped service is the answer, byte-identical to the
  // saved one (tombstones, bucket pollution and all).
  auto service = std::make_unique<TabBinService>(system, options,
                                                 static_cast<int>(saved));
  // The shards' section groups are independent, so they restore all at
  // once; the lowest failing shard reports, as a serial restore would.
  std::vector<Status> restored(saved, Status::OK());
  service->ForEachShard([&](size_t i) {
    restored[i] = service->shards_[i]->RestoreFromStore(
        *reader, reader, StoreShardPrefix(static_cast<uint32_t>(i)));
  });
  TABBIN_RETURN_IF_ERROR(FirstError(restored));
  size_t total_slots = 0;
  for (const auto& shard : service->shards_) {
    total_slots += shard->slot_count();
  }
  // A table must be live in exactly one shard; duplicates would leave
  // an unremovable ghost answering under the same id.
  {
    std::vector<std::string> ids;
    for (const auto& shard : service->shards_) shard->AppendLiveIds(&ids);
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end()) {
      return Status::ParseError(
          "paged store: duplicate table id '" + *dup + "' across shards");
    }
  }
  const int target = num_shards_override > 0 ? num_shards_override
                                             : static_cast<int>(saved);
  if (target == static_cast<int>(saved)) {
    if (options.encoder_cache_capacity == 0) {
      // Auto capacity must cover the restored corpus, or cold encodes
      // of it would evict each other.
      service->engine_->Reserve(total_slots);
    }
    return service;
  }

  // Re-partition: materialize the mapped state (parses the lazy table
  // JSON) and re-insert by hash into a fresh heap-backed service.
  std::vector<ServiceShard::PreparedTable> rows;
  for (const auto& shard : service->shards_) {
    TABBIN_RETURN_IF_ERROR(shard->ExportLive(&rows));
  }
  service.reset();  // drop the mapping before the heap rebuild
  auto repart =
      std::make_unique<TabBinService>(std::move(system), options, target);
  if (options.encoder_cache_capacity == 0) {
    repart->engine_->Reserve(rows.size());
  }
  // Canonical re-insert order: sorted by id. Insertion order only
  // shapes internal row ids, which the partition-independent ranking
  // never consults — so the result answers identically at any count.
  std::sort(rows.begin(), rows.end(),
            [](const ServiceShard::PreparedTable& a,
               const ServiceShard::PreparedTable& b) { return a.id < b.id; });
  AddReport discard;
  for (auto& row : rows) {
    const size_t shard = ShardIndexFor(row.id, repart->shards_.size());
    TABBIN_RETURN_IF_ERROR(
        repart->shards_[shard]->InsertRows(std::move(row), &discard));
  }
  return repart;
}

Status TabBinService::Save(const std::string& path) const {
  PagedSnapshotWriter w;
  AppendStore(&w);
  return WriteStoreSnapshot(path, w);
}

Result<std::unique_ptr<TabBinService>> TabBinService::Load(
    const std::string& path, int num_shards_override) {
  TABBIN_ASSIGN_OR_RETURN(std::string file, ResolveSnapshotPath(path));
  TABBIN_ASSIGN_OR_RETURN(PagedSnapshotReader r,
                          PagedSnapshotReader::Open(file));
  return FromStore(std::make_shared<const PagedSnapshotReader>(std::move(r)),
                   num_shards_override);
}

bool TabBinService::IsMapped() const {
  for (const auto& shard : shards_) {
    if (shard->is_mapped()) return true;
  }
  return false;
}

// --- Factories ------------------------------------------------------------

std::unique_ptr<TabBinServing> MakeServing(
    std::shared_ptr<TabBiNSystem> system, int num_shards,
    ServiceOptions options) {
  return std::make_unique<TabBinService>(std::move(system), options,
                                         num_shards);
}

Result<std::unique_ptr<TabBinServing>> LoadServing(const std::string& path,
                                                   int num_shards_override) {
  TABBIN_ASSIGN_OR_RETURN(std::unique_ptr<TabBinService> service,
                          TabBinService::Load(path, num_shards_override));
  return std::unique_ptr<TabBinServing>(std::move(service));
}

}  // namespace tabbin
