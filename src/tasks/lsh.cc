#include "tasks/lsh.h"

#include <algorithm>
#include <string>

#include "tensor/kernels.h"

namespace tabbin {

LshIndex::LshIndex(int dim, int num_bits, int num_tables, uint64_t seed)
    : dim_(dim),
      num_bits_(num_bits),
      num_tables_(num_tables),
      hyperplanes_(static_cast<size_t>(num_bits) * num_tables,
                   static_cast<size_t>(dim)) {
  Rng rng(seed);
  float* h = hyperplanes_.data();
  for (size_t i = 0; i < hyperplanes_.size(); ++i) {
    h[i] = static_cast<float>(rng.Gaussian());
  }
  tables_.resize(static_cast<size_t>(num_tables));
}

LshIndex::LshIndex(LshIndex&& other) noexcept
    : dim_(other.dim_),
      num_bits_(other.num_bits_),
      num_tables_(other.num_tables_),
      count_(other.count_),
      hyperplanes_(std::move(other.hyperplanes_)),
      tables_(std::move(other.tables_)),
      stat_queries_(other.stat_queries_.load(std::memory_order_relaxed)),
      stat_candidates_(
          other.stat_candidates_.load(std::memory_order_relaxed)) {}

LshIndex& LshIndex::operator=(LshIndex&& other) noexcept {
  if (this != &other) {
    dim_ = other.dim_;
    num_bits_ = other.num_bits_;
    num_tables_ = other.num_tables_;
    count_ = other.count_;
    hyperplanes_ = std::move(other.hyperplanes_);
    tables_ = std::move(other.tables_);
    stat_queries_.store(other.stat_queries_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    stat_candidates_.store(
        other.stat_candidates_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return *this;
}

LshIndex::PoolStats LshIndex::pool_stats() const {
  PoolStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.candidates = stat_candidates_.load(std::memory_order_relaxed);
  return s;
}

void LshIndex::ResetPoolStats() const {
  stat_queries_.store(0, std::memory_order_relaxed);
  stat_candidates_.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> LshIndex::HashAllTables(VecView vec) const {
  // One kernel matrix-vector product against the whole flat hyperplane
  // block instead of num_tables * num_bits scalar dot loops; the sign of
  // each dot is that hyperplane's bit. Callers guarantee
  // vec.size() == dim_ (Insert rejects, QueryKeys returns empty).
  const size_t planes = hyperplanes_.rows();
  std::vector<float> dots(planes);
  kernels::MatVec(hyperplanes_.data(), planes,
                  static_cast<size_t>(dim_), vec.data(), dots.data());
  std::vector<uint64_t> keys(static_cast<size_t>(num_tables_));
  size_t p = 0;
  for (int t = 0; t < num_tables_; ++t) {
    uint64_t code = 0;
    for (int b = 0; b < num_bits_; ++b, ++p) {
      code = (code << 1) | (dots[p] >= 0.0f ? 1u : 0u);
    }
    keys[static_cast<size_t>(t)] = code;
  }
  return keys;
}

Status LshIndex::Insert(int id, VecView vec) {
  if (static_cast<int>(vec.size()) != dim_) {
    return Status::InvalidArgument(
        "LshIndex::Insert: vector size " + std::to_string(vec.size()) +
        " does not match index dim " + std::to_string(dim_) + " (id " +
        std::to_string(id) + ")");
  }
  return InsertKeys(id, HashAllTables(vec));
}

Status LshIndex::InsertKeys(int id, const std::vector<uint64_t>& keys) {
  if (static_cast<int>(keys.size()) != num_tables_) {
    return Status::InvalidArgument(
        "LshIndex::InsertKeys: " + std::to_string(keys.size()) +
        " keys for " + std::to_string(num_tables_) + " tables (id " +
        std::to_string(id) + ")");
  }
  // Ids are dense row numbers: QueryByKeys dedups through a bitmap over
  // [0, size()), so an id outside that range would index past it.
  if (id != count_) {
    return Status::InvalidArgument(
        "LshIndex::Insert: id " + std::to_string(id) +
        " is not the next dense id " + std::to_string(count_));
  }
  for (int t = 0; t < num_tables_; ++t) {
    tables_[static_cast<size_t>(t)][keys[static_cast<size_t>(t)]]
        .push_back(id);
  }
  ++count_;
  return Status::OK();
}

void LshIndex::Clear() {
  tables_.assign(static_cast<size_t>(num_tables_), {});
  count_ = 0;
}

void LshIndex::Serialize(BinaryWriter* w) const {
  w->WriteI32(dim_);
  w->WriteI32(num_bits_);
  w->WriteI32(num_tables_);
  w->WriteI32(count_);
  hyperplanes_.Serialize(w);
  for (const auto& table : tables_) {
    w->WriteU64(table.size());
    std::vector<uint64_t> keys;
    keys.reserve(table.size());
    for (const auto& [key, ids] : table) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (uint64_t key : keys) {
      const auto& ids = table.at(key);
      w->WriteU64(key);
      w->WriteU64(ids.size());
      for (int id : ids) w->WriteI32(id);
    }
  }
}

Result<LshIndex> LshIndex::Deserialize(BinaryReader* r) {
  TABBIN_ASSIGN_OR_RETURN(int32_t dim, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(int32_t num_bits, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(int32_t num_tables, r->ReadI32());
  TABBIN_ASSIGN_OR_RETURN(int32_t count, r->ReadI32());
  if (dim <= 0 || num_bits <= 0 || num_bits > 64 || num_tables <= 0 ||
      count < 0) {
    return Status::ParseError("LshIndex: invalid geometry");
  }
  TABBIN_ASSIGN_OR_RETURN(EmbeddingMatrix planes,
                          EmbeddingMatrix::Deserialize(r));
  if (planes.rows() != static_cast<size_t>(num_bits) *
                           static_cast<size_t>(num_tables) ||
      planes.cols() != static_cast<size_t>(dim)) {
    return Status::ParseError("LshIndex: hyperplane block mismatch");
  }
  LshIndex index(dim, num_bits, num_tables);
  index.hyperplanes_ = std::move(planes);
  index.count_ = count;
  for (int t = 0; t < num_tables; ++t) {
    TABBIN_ASSIGN_OR_RETURN(uint64_t buckets, r->ReadU64());
    // A bucket is at least (key, count) = 16 bytes; a count past that
    // bound is hostile, and checking it before reserve() keeps a forged
    // header from turning into a giant allocation.
    if (buckets > r->remaining() / 16) {
      return Status::ParseError("LshIndex: bucket count past end of stream");
    }
    auto& table = index.tables_[static_cast<size_t>(t)];
    table.reserve(static_cast<size_t>(buckets));
    // Every id lands in exactly one bucket per table, so a table's
    // bucket sizes sum to count; each id must lie in [0, count) or the
    // query bitmap would index past its end.
    uint64_t ids_in_table = 0;
    for (uint64_t b = 0; b < buckets; ++b) {
      TABBIN_ASSIGN_OR_RETURN(uint64_t key, r->ReadU64());
      TABBIN_ASSIGN_OR_RETURN(uint64_t n_ids, r->ReadU64());
      if (n_ids > r->remaining() / sizeof(int32_t)) {
        return Status::ParseError("LshIndex: bucket past end of stream");
      }
      ids_in_table += n_ids;
      std::vector<int>& ids = table[key];
      ids.resize(static_cast<size_t>(n_ids));
      static_assert(sizeof(int) == sizeof(int32_t),
                    "bulk id read assumes 32-bit int");
      TABBIN_RETURN_IF_ERROR(
          r->ReadI32Into(ids.data(), n_ids));
      for (int id : ids) {
        if (id < 0 || id >= count) {
          return Status::ParseError("LshIndex: bucket id " +
                                    std::to_string(id) + " outside [0, " +
                                    std::to_string(count) + ")");
        }
      }
    }
    if (ids_in_table != static_cast<uint64_t>(count)) {
      return Status::ParseError("LshIndex: table " + std::to_string(t) +
                                " holds " + std::to_string(ids_in_table) +
                                " ids, expected " + std::to_string(count));
    }
  }
  return index;
}

std::vector<uint64_t> LshIndex::QueryKeys(VecView vec) const {
  // A mis-sized probe would hash through truncated dot products and
  // return candidates that are noise; an empty key set is the honest
  // answer.
  if (static_cast<int>(vec.size()) != dim_) return {};
  return HashAllTables(vec);
}

std::vector<int> LshIndex::QueryByKeys(
    const std::vector<uint64_t>& keys) const {
  std::vector<int> out;
  if (keys.size() != static_cast<size_t>(num_tables_)) return out;
  // Mark every bucket hit in a bitmap over the dense id space, then read
  // the set bits back low to high: the result is sorted and
  // deduplicated in O(total hits + size() / 64). Ascending order keeps
  // candidate order — and everything ranked after it — independent of
  // hash-map iteration order across standard libraries.
  std::vector<uint64_t> bits((static_cast<size_t>(count_) + 63) / 64);
  size_t total = 0;
  for (int t = 0; t < num_tables_; ++t) {
    const auto& table = tables_[static_cast<size_t>(t)];
    auto it = table.find(keys[static_cast<size_t>(t)]);
    if (it == table.end()) continue;
    for (int id : it->second) {
      bits[static_cast<size_t>(id) >> 6] |= uint64_t{1} << (id & 63);
    }
    total += it->second.size();
  }
  out.reserve(std::min(total, static_cast<size_t>(count_)));
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      out.push_back(static_cast<int>(w * 64) + __builtin_ctzll(word));
    }
  }
  stat_queries_.fetch_add(1, std::memory_order_relaxed);
  stat_candidates_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::vector<int> LshIndex::Query(VecView vec) const {
  return QueryByKeys(QueryKeys(vec));
}

}  // namespace tabbin
