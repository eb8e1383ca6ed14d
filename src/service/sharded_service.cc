#include "service/sharded_service.h"

#include <algorithm>
#include <utility>

#include "store/paged_snapshot.h"
#include "store/snapshot_bridge.h"
#include "util/logging.h"

namespace tabbin {

TabBinService::TabBinService(std::shared_ptr<TabBiNSystem> system,
                             ServiceOptions options, int num_shards)
    : system_(std::move(system)),
      options_(options),
      hashers_(*system_, options_) {
  const size_t n = static_cast<size_t>(std::clamp(num_shards, 1, kMaxShards));
  shards_.reserve(n);
  shard_view_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<ServiceShard>(system_.get(), options_));
    shard_view_.push_back(shards_.back().get());
  }
  // Auto mode starts small; AddTables reserves capacity for the whole
  // corpus as it grows.
  const size_t capacity = options_.encoder_cache_capacity == 0
                              ? 256
                              : options_.encoder_cache_capacity;
  engine_ = std::make_unique<EncoderEngine>(system_.get(), capacity);
}

// --- Corpus updates -------------------------------------------------------

Result<AddReport> TabBinService::AddTables(const std::vector<Table>& tables) {
  return ScatterAddTables(core(), tables);
}

Status TabBinService::RemoveTable(const std::string& id) {
  return ScatterRemoveTable(core(), id);
}

Status TabBinService::Compact() { return ScatterCompact(core()); }

void TabBinService::SetQuantizedScan(bool on, int shortlist_multiplier) {
  options_.quantized_scan = on;
  options_.quantized_shortlist_multiplier = std::max(1, shortlist_multiplier);
  for (auto& shard : shards_) {
    shard->SetQuantizedScan(on, shortlist_multiplier);
  }
}

void TabBinService::SetIndexKind(IndexKind kind, int ef_search) {
  options_.index_kind = kind;
  if (ef_search > 0) options_.hnsw_ef_search = ef_search;
  for (auto& shard : shards_) {
    shard->SetIndexKind(kind, ef_search);
  }
}

// --- Queries --------------------------------------------------------------

Result<QueryResponse> TabBinService::SimilarColumns(
    const ColumnQueryRequest& req) const {
  return ScatterSimilarColumns(core(), req);
}

Result<QueryResponse> TabBinService::SimilarTables(
    const TableQueryRequest& req) const {
  return ScatterSimilarTables(core(), req);
}

Result<QueryResponse> TabBinService::SimilarEntities(
    const EntityQueryRequest& req) const {
  return ScatterSimilarEntities(core(), req);
}

std::vector<Result<QueryResponse>> TabBinService::SimilarColumnsBatch(
    const std::vector<ColumnQueryRequest>& reqs) const {
  return ScatterSimilarColumnsBatch(core(), reqs);
}

std::vector<Result<QueryResponse>> TabBinService::SimilarTablesBatch(
    const std::vector<TableQueryRequest>& reqs) const {
  return ScatterSimilarTablesBatch(core(), reqs);
}

std::vector<Result<QueryResponse>> TabBinService::SimilarEntitiesBatch(
    const std::vector<EntityQueryRequest>& reqs) const {
  return ScatterSimilarEntitiesBatch(core(), reqs);
}

Result<AskResponse> TabBinService::Ask(const AskRequest& req) const {
  return ScatterAsk(core(), req);
}

// --- Embedding accessors --------------------------------------------------

std::vector<float> TabBinService::ColumnEmbedding(const Table& table,
                                                  int col) const {
  return ServingColumnEmbedding(core(), table, col);
}

std::vector<float> TabBinService::TableEmbedding(const Table& table) const {
  return ServingTableEmbedding(core(), table);
}

std::vector<float> TabBinService::EntityEmbedding(const Table& table, int row,
                                                  int col) const {
  return ServingEntityEmbedding(core(), table, row, col);
}

// --- Introspection --------------------------------------------------------

size_t TabBinService::NumLiveTables() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->live_count();
  return n;
}

size_t TabBinService::NumIndexedColumns() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->indexed_columns();
  return n;
}

size_t TabBinService::NumIndexedEntities() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->indexed_entities();
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
  // The model sections keep their v1 serializers: they are metadata-
  // sized, so the paged store just carries their bytes verbatim. The
  // encoder cache is deliberately NOT bridged — encodes are
  // deterministic, so a cold cache re-derives identical bits, and
  // omitting it is a large share of the cold-start win.
  SnapshotWriter bridge;
  system_->AppendTo(&bridge);
  AppendServiceOptions(options_, &bridge);
  AppendBridgeSections(bridge, w);
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
  TABBIN_ASSIGN_OR_RETURN(SnapshotReader bridge,
                          ExtractBridgeSections(*reader));
  TABBIN_ASSIGN_OR_RETURN(TabBiNSystem sys,
                          TabBiNSystem::FromSnapshot(bridge));
  TABBIN_ASSIGN_OR_RETURN(ServiceOptions options, ReadServiceOptions(bridge));
  std::shared_ptr<TabBiNSystem> system =
      std::make_shared<TabBiNSystem>(std::move(sys));

  // Restore at the SAVED count first: with a matching (or absent)
  // override that mapped service is the answer, byte-identical to the
  // saved one (tombstones, bucket pollution and all).
  auto service = std::make_unique<TabBinService>(system, options,
                                                 static_cast<int>(saved));
  size_t total_slots = 0;
  for (uint32_t i = 0; i < saved; ++i) {
    TABBIN_RETURN_IF_ERROR(service->shards_[i]->RestoreFromStore(
        *reader, reader, StoreShardPrefix(i)));
    total_slots += service->shards_[i]->slot_count();
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
  std::vector<ServiceShard::LiveTableRows> rows;
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
            [](const ServiceShard::LiveTableRows& a,
               const ServiceShard::LiveTableRows& b) { return a.id < b.id; });
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
  TABBIN_ASSIGN_OR_RETURN(uint32_t version, PeekSnapshotVersion(file));
  if (version < 2) {
    return Status::ParseError(
        "v1 service snapshot; rebuild with build-service");
  }
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
