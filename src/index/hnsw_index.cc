#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <string>

#include "tensor/kernels.h"
#include "util/serialize.h"

namespace tabbin {
namespace {

// Hard cap on the level ladder: with M >= 2 the hash-geometric level
// distribution reaches 16 with probability ~2^-16 per node, so real
// graphs never hit the cap; it exists so hostile snapshot bytes cannot
// claim absurd ladders.
constexpr int kMaxHnswLevel = 16;

}  // namespace

struct HnswIndex::Scratch {
  explicit Scratch(size_t nodes) : epoch_of(nodes, 0) {}
  bool Visited(uint32_t id) const { return epoch_of[id] == epoch; }
  void Mark(uint32_t id) { epoch_of[id] = epoch; }
  void NextLayer() { ++epoch; }

  std::vector<uint32_t> epoch_of;
  uint32_t epoch = 1;
  // Reused neighbor-batch buffers (one kernel call per expansion).
  std::vector<int> batch;
  std::vector<float> sims;
};

HnswIndex::HnswIndex(int dim, HnswOptions options)
    : dim_(dim), opts_(options) {
  if (opts_.m < 2) opts_.m = 2;
  if (opts_.ef_construction < opts_.m) opts_.ef_construction = opts_.m;
  m0_ = static_cast<uint32_t>(2 * opts_.m);
  stride_ = 1 + static_cast<size_t>(m0_);
  inv_log_m_ = 1.0 / std::log(static_cast<double>(opts_.m));
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept { *this = std::move(other); }

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
  if (this == &other) return *this;
  dim_ = other.dim_;
  opts_ = other.opts_;
  m0_ = other.m0_;
  stride_ = other.stride_;
  inv_log_m_ = other.inv_log_m_;
  nodes_ = other.nodes_;
  entry_ = other.entry_;
  max_level_ = other.max_level_;
  base_links_ = other.base_links_;
  base_nodes_ = other.base_nodes_;
  keepalive_ = std::move(other.keepalive_);
  links0_ = std::move(other.links0_);
  upper_ = std::move(other.upper_);
  dead_ = std::move(other.dead_);
  dead_count_ = other.dead_count_;
  stat_queries_.store(other.stat_queries_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  stat_visited_.store(other.stat_visited_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  stat_scored_.store(other.stat_scored_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  other.base_links_ = nullptr;
  other.base_nodes_ = 0;
  other.nodes_ = 0;
  other.entry_ = -1;
  other.max_level_ = -1;
  other.dead_count_ = 0;
  return *this;
}

int HnswIndex::NodeLevel(uint32_t id) const {
  uint8_t buf[sizeof(uint64_t) + sizeof(uint32_t)];
  std::memcpy(buf, &opts_.seed, sizeof(uint64_t));
  std::memcpy(buf + sizeof(uint64_t), &id, sizeof(uint32_t));
  const uint64_t h = Fnv1a64(buf, sizeof(buf));
  // Top 53 hash bits -> u in (0, 1]; floor(-ln(u) / ln(M)) is the
  // standard geometric level draw, derived from (seed, id) alone so a
  // rebuild from the same rows reproduces the same ladder bit for bit.
  const double u = (static_cast<double>(h >> 11) + 1.0) *
                   (1.0 / 9007199254740992.0);
  const int level = static_cast<int>(-std::log(u) * inv_log_m_);
  return level < kMaxHnswLevel ? level : kMaxHnswLevel;
}

void HnswIndex::EnsureOwnedLinks() {
  if (base_links_ == nullptr) return;
  std::vector<uint32_t> owned(nodes_ * stride_);
  std::memcpy(owned.data(), base_links_,
              base_nodes_ * stride_ * sizeof(uint32_t));
  if (!links0_.empty()) {
    std::memcpy(owned.data() + base_nodes_ * stride_, links0_.data(),
                links0_.size() * sizeof(uint32_t));
  }
  links0_ = std::move(owned);
  base_links_ = nullptr;
  base_nodes_ = 0;
  keepalive_.reset();
}

uint32_t* HnswIndex::MutableLinkRow(size_t id) {
  EnsureOwnedLinks();
  return links0_.data() + id * stride_;
}

const std::vector<uint32_t>* HnswIndex::UpperLinks(uint32_t id,
                                                   int level) const {
  auto it = upper_.find(id);
  if (it == upper_.end()) return nullptr;
  const size_t idx = static_cast<size_t>(level) - 1;
  if (idx >= it->second.size()) return nullptr;
  return &it->second[idx];
}

std::vector<uint32_t>* HnswIndex::MutableUpperLinks(uint32_t id, int level) {
  auto& levels = upper_[id];
  const size_t idx = static_cast<size_t>(level) - 1;
  if (levels.size() <= idx) levels.resize(idx + 1);
  return &levels[idx];
}

void HnswIndex::SearchLayer(const EmbeddingMatrix& vecs, const float* q,
                            float inv_q, int level, int ef, bool only_live,
                            const std::vector<Cand>& entries,
                            std::vector<Cand>* out, Scratch* scratch,
                            HnswSearchStats* stats) const {
  scratch->NextLayer();
  // frontier: closest unexpanded node first; results: worst kept node
  // on top, bounded at ef. Cand's (dist, id) ordering makes both heaps
  // (and therefore the walk) deterministic under score ties.
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> frontier;
  std::priority_queue<Cand> results;
  const size_t ef_bound = static_cast<size_t>(ef < 1 ? 1 : ef);
  for (const Cand& e : entries) {
    if (scratch->Visited(e.id)) continue;
    scratch->Mark(e.id);
    frontier.push(e);
    if (!only_live || dead_[e.id] == 0) {
      results.push(e);
      if (results.size() > ef_bound) results.pop();
    }
  }
  std::vector<int>& batch = scratch->batch;
  std::vector<float>& sims = scratch->sims;
  while (!frontier.empty()) {
    const Cand c = frontier.top();
    frontier.pop();
    if (results.size() >= ef_bound && c.dist > results.top().dist) break;
    ++stats->visited;
    batch.clear();
    if (level == 0) {
      const uint32_t* row = LinkRow(c.id);
      const uint32_t count = row[0];
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t n = row[1 + i];
        if (scratch->Visited(n)) continue;
        scratch->Mark(n);
        batch.push_back(static_cast<int>(n));
      }
    } else if (const std::vector<uint32_t>* links = UpperLinks(c.id, level)) {
      for (uint32_t n : *links) {
        if (scratch->Visited(n)) continue;
        scratch->Mark(n);
        batch.push_back(static_cast<int>(n));
      }
    }
    if (batch.empty()) continue;
    sims.resize(batch.size());
    vecs.CosineRows(q, inv_q, batch.data(), batch.size(), sims.data());
    stats->scored += batch.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      const Cand n{-sims[i], static_cast<uint32_t>(batch[i])};
      const bool full = results.size() >= ef_bound;
      if (full && n.dist >= results.top().dist) continue;
      frontier.push(n);
      if (!only_live || dead_[n.id] == 0) {
        results.push(n);
        if (results.size() > ef_bound) results.pop();
      }
    }
  }
  out->resize(results.size());
  for (size_t i = results.size(); i-- > 0;) {
    (*out)[i] = results.top();
    results.pop();
  }
}

std::vector<HnswIndex::Cand> HnswIndex::SelectNeighbors(
    const EmbeddingMatrix& vecs, const std::vector<Cand>& sorted,
    size_t m) const {
  std::vector<Cand> kept;
  if (sorted.empty() || m == 0) return kept;
  kept.reserve(m);
  std::vector<int> kept_ids;
  std::vector<float> sims;
  // Heuristic pass (HNSW paper alg. 4): keep a candidate only if it is
  // closer to the query than to every neighbor already kept — spreads
  // links across clusters instead of piling onto the nearest one. The
  // candidate-to-kept distances are one batched kernel call each.
  for (const Cand& c : sorted) {
    if (kept.size() >= m) break;
    bool keep = true;
    if (!kept.empty()) {
      sims.resize(kept.size());
      vecs.CosineRows(vecs.row_ptr(c.id), vecs.inv_norm(c.id),
                      kept_ids.data(), kept_ids.size(), sims.data());
      for (float s : sims) {
        if (-s < c.dist) {
          keep = false;
          break;
        }
      }
    }
    if (keep) {
      kept.push_back(c);
      kept_ids.push_back(static_cast<int>(c.id));
    }
  }
  // Backfill with the closest pruned candidates so sparse regions
  // still get their full degree (keepPrunedConnections).
  if (kept.size() < m) {
    for (const Cand& c : sorted) {
      if (kept.size() >= m) break;
      bool present = false;
      for (const Cand& k : kept) {
        if (k.id == c.id) {
          present = true;
          break;
        }
      }
      if (!present) kept.push_back(c);
    }
    std::sort(kept.begin(), kept.end());
  }
  return kept;
}

void HnswIndex::ShrinkLinks(const EmbeddingMatrix& vecs, uint32_t id,
                            int level, std::vector<uint32_t>* links,
                            uint32_t extra) {
  const size_t cap =
      level == 0 ? static_cast<size_t>(m0_) : static_cast<size_t>(opts_.m);
  std::vector<int> ids;
  if (level == 0) {
    const uint32_t* row = LinkRow(id);
    ids.reserve(row[0] + 1);
    for (uint32_t i = 0; i < row[0]; ++i) ids.push_back(row[1 + i]);
  } else {
    ids.reserve(links->size() + 1);
    for (uint32_t n : *links) ids.push_back(static_cast<int>(n));
  }
  ids.push_back(static_cast<int>(extra));
  std::vector<float> sims(ids.size());
  vecs.CosineRows(vecs.row_ptr(id), vecs.inv_norm(id), ids.data(), ids.size(),
                  sims.data());
  std::vector<Cand> cands(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    cands[i] = Cand{-sims[i], static_cast<uint32_t>(ids[i])};
  }
  std::sort(cands.begin(), cands.end());
  const std::vector<Cand> chosen = SelectNeighbors(vecs, cands, cap);
  if (level == 0) {
    uint32_t* row = MutableLinkRow(id);
    row[0] = static_cast<uint32_t>(chosen.size());
    for (size_t i = 0; i < chosen.size(); ++i) row[1 + i] = chosen[i].id;
  } else {
    links->clear();
    for (const Cand& c : chosen) links->push_back(c.id);
  }
}

Status HnswIndex::Insert(const EmbeddingMatrix& vecs, int id) {
  if (dim_ <= 0) {
    return Status::InvalidArgument("HnswIndex: index is default-constructed");
  }
  if (vecs.cols() != static_cast<size_t>(dim_)) {
    return Status::InvalidArgument(
        "HnswIndex::Insert: matrix width " + std::to_string(vecs.cols()) +
        " does not match index dim " + std::to_string(dim_));
  }
  if (id < 0 || static_cast<size_t>(id) != nodes_ ||
      static_cast<size_t>(id) >= vecs.rows()) {
    return Status::InvalidArgument(
        "HnswIndex::Insert: id " + std::to_string(id) +
        " is not the next dense row (have " + std::to_string(nodes_) +
        " nodes, matrix has " + std::to_string(vecs.rows()) + " rows)");
  }
  // Linking mutates existing rows, so a borrowed level-0 block goes
  // copy-on-write on the first post-load insert.
  EnsureOwnedLinks();
  links0_.resize(links0_.size() + stride_, 0);
  dead_.push_back(0);
  nodes_ = static_cast<size_t>(id) + 1;
  const int level = NodeLevel(static_cast<uint32_t>(id));
  if (level > 0) {
    upper_[static_cast<uint32_t>(id)].resize(static_cast<size_t>(level));
  }
  if (entry_ < 0) {
    entry_ = id;
    max_level_ = level;
    return Status::OK();
  }

  const float* q = vecs.row_ptr(static_cast<size_t>(id));
  const float inv_q = vecs.inv_norm(static_cast<size_t>(id));
  Scratch scratch(nodes_);
  HnswSearchStats st;
  std::vector<Cand> eps;
  {
    const int entry_row = entry_;
    float sim = 0.0f;
    vecs.CosineRows(q, inv_q, &entry_row, 1, &sim);
    eps.push_back(Cand{-sim, static_cast<uint32_t>(entry_)});
  }
  std::vector<Cand> res;
  for (int l = max_level_; l > level; --l) {
    SearchLayer(vecs, q, inv_q, l, 1, false, eps, &res, &scratch, &st);
    if (!res.empty()) {
      eps.assign(1, res.front());
    }
  }
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    SearchLayer(vecs, q, inv_q, l, opts_.ef_construction, false, eps, &res,
                &scratch, &st);
    const std::vector<Cand> neighbors =
        SelectNeighbors(vecs, res, static_cast<size_t>(opts_.m));
    if (l == 0) {
      uint32_t* row = MutableLinkRow(static_cast<size_t>(id));
      row[0] = static_cast<uint32_t>(neighbors.size());
      for (size_t i = 0; i < neighbors.size(); ++i) {
        row[1 + i] = neighbors[i].id;
      }
    } else {
      std::vector<uint32_t>* links =
          MutableUpperLinks(static_cast<uint32_t>(id), l);
      links->clear();
      for (const Cand& n : neighbors) links->push_back(n.id);
    }
    for (const Cand& n : neighbors) {
      if (l == 0) {
        uint32_t* nrow = MutableLinkRow(n.id);
        if (nrow[0] < m0_) {
          nrow[1 + nrow[0]] = static_cast<uint32_t>(id);
          ++nrow[0];
        } else {
          ShrinkLinks(vecs, n.id, 0, nullptr, static_cast<uint32_t>(id));
        }
      } else {
        std::vector<uint32_t>* nlinks = MutableUpperLinks(n.id, l);
        if (nlinks->size() < static_cast<size_t>(opts_.m)) {
          nlinks->push_back(static_cast<uint32_t>(id));
        } else {
          ShrinkLinks(vecs, n.id, l, nlinks, static_cast<uint32_t>(id));
        }
      }
    }
    eps = std::move(res);
    res = std::vector<Cand>();
  }
  if (level > max_level_) {
    entry_ = id;
    max_level_ = level;
  }
  return Status::OK();
}

void HnswIndex::MarkDead(int id) {
  if (id < 0 || static_cast<size_t>(id) >= nodes_) return;
  if (dead_[static_cast<size_t>(id)] == 0) {
    dead_[static_cast<size_t>(id)] = 1;
    ++dead_count_;
  }
}

std::vector<int> HnswIndex::Search(const EmbeddingMatrix& vecs, VecView query,
                                   int ef, HnswSearchStats* stats) const {
  std::vector<int> out;
  if (nodes_ == 0 || entry_ < 0) return out;
  if (static_cast<int>(query.size()) != dim_ ||
      vecs.cols() != static_cast<size_t>(dim_) || vecs.rows() < nodes_) {
    return out;
  }
  if (ef < 1) ef = 1;
  const float inv_q = kernels::InvNorm(query.data(), query.size());
  Scratch scratch(nodes_);
  HnswSearchStats st;
  std::vector<Cand> eps;
  {
    const int entry_row = entry_;
    float sim = 0.0f;
    vecs.CosineRows(query.data(), inv_q, &entry_row, 1, &sim);
    ++st.scored;
    eps.push_back(Cand{-sim, static_cast<uint32_t>(entry_)});
  }
  std::vector<Cand> res;
  for (int l = max_level_; l >= 1; --l) {
    SearchLayer(vecs, query.data(), inv_q, l, 1, false, eps, &res, &scratch,
                &st);
    if (!res.empty()) {
      eps.assign(1, res.front());
    }
  }
  SearchLayer(vecs, query.data(), inv_q, 0, ef, true, eps, &res, &scratch,
              &st);
  out.reserve(res.size());
  for (const Cand& c : res) out.push_back(static_cast<int>(c.id));
  // Ascending-id candidate order, matching LshIndex::Query, so the
  // downstream accept/rerank pipeline is byte-for-byte shared.
  std::sort(out.begin(), out.end());
  stat_queries_.fetch_add(1, std::memory_order_relaxed);
  stat_visited_.fetch_add(st.visited, std::memory_order_relaxed);
  stat_scored_.fetch_add(st.scored, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->visited += st.visited;
    stats->scored += st.scored;
  }
  return out;
}

HnswIndex::QueryStats HnswIndex::query_stats() const {
  QueryStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.visited = stat_visited_.load(std::memory_order_relaxed);
  s.scored = stat_scored_.load(std::memory_order_relaxed);
  return s;
}

void HnswIndex::ResetQueryStats() const {
  stat_queries_.store(0, std::memory_order_relaxed);
  stat_visited_.store(0, std::memory_order_relaxed);
  stat_scored_.store(0, std::memory_order_relaxed);
}

size_t HnswIndex::edge_count() const {
  size_t edges = 0;
  for (size_t i = 0; i < nodes_; ++i) edges += LinkRow(i)[0];
  for (const auto& [id, levels] : upper_) {
    (void)id;
    for (const auto& links : levels) edges += links.size();
  }
  return edges;
}

std::vector<size_t> HnswIndex::LevelHistogram() const {
  if (max_level_ < 0) return {};
  std::vector<size_t> hist(static_cast<size_t>(max_level_) + 1, 0);
  hist[0] = nodes_;
  for (const auto& [id, levels] : upper_) {
    (void)id;
    const size_t top = std::min(levels.size(), hist.size() - 1);
    for (size_t l = 1; l <= top; ++l) ++hist[l];
  }
  return hist;
}

void HnswIndex::SerializeMeta(BinaryWriter* w) const {
  w->WriteI32(dim_);
  w->WriteI32(opts_.m);
  w->WriteI32(opts_.ef_construction);
  w->WriteU64(opts_.seed);
  w->WriteU64(nodes_);
  w->WriteI64(entry_);
  w->WriteI32(max_level_);
  w->WriteBytes(dead_.data(), dead_.size());
  // Upper levels, ids sorted so the byte stream is deterministic.
  std::vector<uint32_t> ids;
  ids.reserve(upper_.size());
  for (const auto& [id, levels] : upper_) {
    (void)levels;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  w->WriteU64(ids.size());
  for (uint32_t id : ids) {
    const auto& levels = upper_.at(id);
    w->WriteU32(id);
    w->WriteU32(static_cast<uint32_t>(levels.size()));
    for (const auto& links : levels) {
      w->WriteU32(static_cast<uint32_t>(links.size()));
      w->WriteBytes(links.data(), links.size() * sizeof(uint32_t));
    }
  }
}

void HnswIndex::AppendLevel0Bytes(BinaryWriter* w) const {
  if (base_links_ != nullptr) {
    w->WriteBytes(base_links_, base_nodes_ * stride_ * sizeof(uint32_t));
  }
  w->WriteBytes(links0_.data(), links0_.size() * sizeof(uint32_t));
}

Result<HnswIndex> HnswIndex::Restore(BinaryReader* meta, const uint8_t* l0,
                                     size_t l0_bytes,
                                     std::shared_ptr<const void> keepalive) {
  TABBIN_ASSIGN_OR_RETURN(int32_t dim, meta->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(int32_t m, meta->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(int32_t ef_construction, meta->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(uint64_t seed, meta->ReadU64());
  TABBIN_ASSIGN_OR_RETURN(uint64_t nodes, meta->ReadU64());
  TABBIN_ASSIGN_OR_RETURN(int64_t entry, meta->ReadI64());
  TABBIN_ASSIGN_OR_RETURN(int32_t max_level, meta->ReadI32());
  if (dim <= 0 || m < 2 || m > 4096 || ef_construction < m ||
      ef_construction > (1 << 20)) {
    return Status::ParseError("HnswIndex: invalid geometry");
  }
  if (max_level < -1 || max_level > kMaxHnswLevel) {
    return Status::ParseError("HnswIndex: max level out of range");
  }
  if (entry < -1 || (entry >= 0 && static_cast<uint64_t>(entry) >= nodes) ||
      (entry < 0 && nodes != 0)) {
    return Status::ParseError("HnswIndex: entry point out of range");
  }
  HnswOptions opts;
  opts.m = m;
  opts.ef_construction = ef_construction;
  opts.seed = seed;
  HnswIndex index(dim, opts);
  // The dense level-0 block must be exactly nodes * stride rows; any
  // other length means a truncated or padded section.
  if (nodes > std::numeric_limits<size_t>::max() /
                  (index.stride_ * sizeof(uint32_t)) ||
      l0_bytes != nodes * index.stride_ * sizeof(uint32_t)) {
    return Status::ParseError("HnswIndex: level-0 block size mismatch");
  }
  if (nodes > meta->remaining()) {
    return Status::ParseError("HnswIndex: dead bitmap past end of stream");
  }
  TABBIN_ASSIGN_OR_RETURN(std::vector<uint8_t> dead, meta->ReadBytes(nodes));
  size_t dead_count = 0;
  for (uint8_t& d : dead) {
    if (d != 0) {
      d = 1;
      ++dead_count;
    }
  }
  const uint32_t* links = reinterpret_cast<const uint32_t*>(l0);
  for (uint64_t i = 0; i < nodes; ++i) {
    const uint32_t* row = links + i * index.stride_;
    if (row[0] > index.m0_) {
      return Status::ParseError("HnswIndex: level-0 degree past bound");
    }
    for (uint32_t j = 0; j < row[0]; ++j) {
      if (row[1 + j] >= nodes) {
        return Status::ParseError("HnswIndex: level-0 neighbor out of range");
      }
    }
  }
  TABBIN_ASSIGN_OR_RETURN(uint64_t n_upper, meta->ReadU64());
  // Each upper entry is at least (id, n_levels) = 8 bytes.
  if (n_upper > nodes || n_upper > meta->remaining() / 8) {
    return Status::ParseError("HnswIndex: upper-level count past stream");
  }
  index.upper_.reserve(static_cast<size_t>(n_upper));
  for (uint64_t i = 0; i < n_upper; ++i) {
    TABBIN_ASSIGN_OR_RETURN(uint32_t id, meta->ReadU32());
    TABBIN_ASSIGN_OR_RETURN(uint32_t n_levels, meta->ReadU32());
    if (id >= nodes || n_levels == 0 ||
        n_levels > static_cast<uint32_t>(kMaxHnswLevel)) {
      return Status::ParseError("HnswIndex: upper-level entry out of range");
    }
    auto& levels = index.upper_[id];
    if (!levels.empty()) {
      return Status::ParseError("HnswIndex: duplicate upper-level entry");
    }
    levels.resize(n_levels);
    for (uint32_t l = 0; l < n_levels; ++l) {
      TABBIN_ASSIGN_OR_RETURN(uint32_t count, meta->ReadU32());
      if (count > static_cast<uint32_t>(m) ||
          count > meta->remaining() / sizeof(uint32_t)) {
        return Status::ParseError("HnswIndex: upper-level degree past bound");
      }
      TABBIN_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                              meta->ReadBytes(count * sizeof(uint32_t)));
      auto& out = levels[l];
      out.resize(count);
      // A zero-degree level leaves out.data() null, which memcpy must
      // never receive, even for zero bytes.
      if (count > 0) std::memcpy(out.data(), raw.data(), raw.size());
      for (uint32_t n : out) {
        if (n >= nodes) {
          return Status::ParseError(
              "HnswIndex: upper-level neighbor out of range");
        }
      }
    }
  }
  if (!meta->AtEnd()) {
    return Status::ParseError("HnswIndex: trailing bytes after upper levels");
  }
  index.nodes_ = static_cast<size_t>(nodes);
  index.entry_ = static_cast<int>(entry);
  index.max_level_ = max_level;
  index.dead_ = std::move(dead);
  index.dead_count_ = dead_count;
  if (keepalive != nullptr) {
    index.base_links_ = links;
    index.base_nodes_ = static_cast<size_t>(nodes);
    index.keepalive_ = std::move(keepalive);
  } else {
    index.links0_.resize(static_cast<size_t>(nodes) * index.stride_);
    std::memcpy(index.links0_.data(), l0, l0_bytes);
  }
  return index;
}

}  // namespace tabbin
