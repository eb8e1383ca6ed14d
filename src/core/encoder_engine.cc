#include "core/encoder_engine.h"

#include <deque>
#include <future>
#include <string>
#include <utility>

#include "util/threadpool.h"

namespace tabbin {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashString(const std::string& s, uint64_t* h) {
  uint64_t len = s.size();
  HashBytes(&len, sizeof(len), h);
  HashBytes(s.data(), s.size(), h);
}

void HashInt(int64_t v, uint64_t* h) { HashBytes(&v, sizeof(v), h); }

void HashTable(const Table& t, uint64_t* h) {
  HashString(t.id(), h);
  HashString(t.caption(), h);
  HashString(t.topic(), h);
  HashInt(t.rows(), h);
  HashInt(t.cols(), h);
  HashInt(t.hmd_rows(), h);
  HashInt(t.vmd_cols(), h);
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < t.cols(); ++c) {
      const Cell& cell = t.cell(r, c);
      if (cell.is_empty()) continue;
      // Position must enter the hash: the same value in a different cell
      // is a different table.
      HashInt(r, h);
      HashInt(c, h);
      if (!cell.value.is_empty()) {
        // The kind must enter too: String("3") and Number(3) stringify
        // alike but encode completely differently.
        HashInt(static_cast<int64_t>(cell.value.kind()), h);
        HashString(cell.value.ToString(), h);
      }
      if (cell.has_nested()) {
        HashInt(-1, h);  // nesting marker
        HashTable(*cell.nested, h);
      }
    }
  }
}

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  uint64_t h = kFnvOffset;
  HashTable(table, &h);
  return h;
}

EncoderEngine::EncoderEngine(const TabBiNSystem* system, size_t capacity)
    : system_(system), capacity_(capacity == 0 ? 1 : capacity) {}

size_t EncoderEngine::size() const {
  MutexLock lock(&mu_);
  return cache_.size();
}

size_t EncoderEngine::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

size_t EncoderEngine::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

size_t EncoderEngine::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

void EncoderEngine::Reserve(size_t capacity) {
  MutexLock lock(&mu_);
  if (capacity > capacity_) capacity_ = capacity;
}

void EncoderEngine::Clear() {
  MutexLock lock(&mu_);
  cache_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::shared_ptr<const TableEncodings> EncoderEngine::LookupLocked(
    uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.enc;
}

void EncoderEngine::InsertLocked(uint64_t key,
                                 std::shared_ptr<const TableEncodings> enc) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent caller already filled this key; keep the existing entry
    // (identical content) and just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(key);
  cache_[key] = Entry{std::move(enc), lru_.begin()};
  while (cache_.size() > capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void EncoderEngine::AppendCacheTo(PagedSnapshotWriter* snapshot) const {
  BinaryWriter* w = snapshot->AddSection("encoder.cache");
  MutexLock lock(&mu_);
  w->WriteU64(cache_.size());
  // Back of lru_ = least recently used; writing in that order means a
  // straight re-insert reproduces today's recency ranking.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    w->WriteU64(*it);
    SerializeTableEncodings(*cache_.at(*it).enc, w);
  }
}

Result<size_t> EncoderEngine::WarmStart(
    const PagedSnapshotReader& snapshot) {
  if (!snapshot.HasSection("encoder.cache")) return static_cast<size_t>(0);
  TABBIN_ASSIGN_OR_RETURN(BinaryReader r, snapshot.Section("encoder.cache"));
  TABBIN_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  const size_t hidden = static_cast<size_t>(system_->hidden());
  size_t loaded = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TABBIN_ASSIGN_OR_RETURN(uint64_t key, r.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(TableEncodings enc, DeserializeTableEncodings(&r));
    // Downstream composites index seq.tokens through hidden-row bounds
    // and concatenate hidden-width blocks: a persisted encoding must
    // agree with this engine's system exactly or it is unusable.
    for (const SegmentEncoding* seg : {&enc.row, &enc.col, &enc.hmd,
                                       &enc.vmd}) {
      if (seg->seq.empty()) {
        if (!seg->hidden.empty()) {
          return Status::ParseError(
              "encoder cache: hidden states for an empty sequence");
        }
        continue;
      }
      if (seg->hidden.rows() != seg->seq.tokens.size() ||
          seg->hidden.cols() != hidden) {
        return Status::InvalidArgument(
            "encoder cache: encoding geometry does not match the system "
            "(was the snapshot written by a different model?)");
      }
    }
    MutexLock lock(&mu_);
    InsertLocked(key, std::make_shared<const TableEncodings>(std::move(enc)));
    ++loaded;
  }
  return loaded;
}

std::shared_ptr<const TableEncodings> EncoderEngine::Encode(
    const Table& table) {
  const uint64_t key = TableFingerprint(table);
  std::promise<std::shared_ptr<const TableEncodings>> promise;
  EncodingFuture flight;
  bool owner = false;
  {
    MutexLock lock(&mu_);
    if (auto hit = LookupLocked(key)) {
      ++hits_;
      return hit;
    }
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      ++misses_;
      owner = true;
      flight = promise.get_future().share();
      inflight_.emplace(key, flight);
    }
  }
  if (!owner) {
    // Single-flight: another thread is already running the forward
    // passes for this key; wait for its result instead of duplicating
    // the work.
    auto enc = flight.get();
    MutexLock lock(&mu_);
    ++hits_;
    return enc;
  }
  // Encode outside the lock so cache hits on other keys proceed.
  std::shared_ptr<const TableEncodings> enc;
  try {
    enc = std::make_shared<const TableEncodings>(system_->EncodeAll(table));
  } catch (...) {
    // Un-poison the key: joiners get this failure, later callers retry.
    {
      MutexLock lock(&mu_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    MutexLock lock(&mu_);
    InsertLocked(key, enc);
    inflight_.erase(key);
  }
  promise.set_value(enc);
  return enc;
}

std::shared_ptr<const TableEncodings> EncoderEngine::Find(
    const Table& table) {
  const uint64_t key = TableFingerprint(table);
  MutexLock lock(&mu_);
  auto hit = LookupLocked(key);
  if (hit) ++hits_;
  return hit;
}

std::vector<std::shared_ptr<const TableEncodings>> EncoderEngine::EncodeBatch(
    const std::vector<Table>& tables) {
  std::vector<const Table*> ptrs;
  ptrs.reserve(tables.size());
  for (const Table& t : tables) ptrs.push_back(&t);
  return EncodeBatch(ptrs);
}

std::vector<std::shared_ptr<const TableEncodings>> EncoderEngine::EncodeBatch(
    const std::vector<const Table*>& tables) {
  const size_t n = tables.size();
  std::vector<uint64_t> keys(n);
  std::vector<std::shared_ptr<const TableEncodings>> out(n);

  // Fingerprinting is pure — keep it outside the cache lock, in the pool.
  ParallelFor(
      0, n, [&](size_t i) { keys[i] = TableFingerprint(*tables[i]); },
      /*grain=*/32);

  // Resolve hits, join encodes already in flight on other threads, and
  // deduplicate misses (same table requested twice in one batch must
  // encode once).
  std::vector<size_t> miss_slots;  // first slot per unique owned key
  std::vector<std::pair<size_t, EncodingFuture>> joins;
  std::deque<std::promise<std::shared_ptr<const TableEncodings>>> promises;
  std::unordered_map<uint64_t, size_t> first_slot;
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < n; ++i) {
      if (first_slot.count(keys[i])) continue;
      if (auto hit = LookupLocked(keys[i])) {
        ++hits_;
        out[i] = std::move(hit);
      } else if (auto it = inflight_.find(keys[i]); it != inflight_.end()) {
        joins.emplace_back(i, it->second);
      } else {
        ++misses_;
        promises.emplace_back();
        inflight_.emplace(keys[i], promises.back().get_future().share());
        miss_slots.push_back(i);
      }
      first_slot.emplace(keys[i], i);
    }
  }

  // Encode all misses in parallel; each table is independent, so the
  // result is bitwise identical to a serial loop.
  std::vector<std::shared_ptr<const TableEncodings>> encoded(
      miss_slots.size());
  ThreadPool& pool = ThreadPool::Global();
  std::vector<std::future<void>> futures;
  futures.reserve(miss_slots.size());
  for (size_t m = 0; m < miss_slots.size(); ++m) {
    const Table* t = tables[miss_slots[m]];
    futures.push_back(pool.Submit([this, t, m, &encoded] {
      encoded[m] = std::make_shared<TableEncodings>(system_->EncodeAll(*t));
    }));
  }
  // Drain every future even on failure (tasks reference `encoded`), then
  // un-poison the owned keys so this batch's failure doesn't wedge later
  // encodes of the same tables.
  std::exception_ptr encode_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!encode_error) encode_error = std::current_exception();
    }
  }
  if (encode_error) {
    {
      MutexLock lock(&mu_);
      for (size_t m = 0; m < miss_slots.size(); ++m) {
        inflight_.erase(keys[miss_slots[m]]);
      }
    }
    for (auto& p : promises) p.set_exception(encode_error);
    std::rethrow_exception(encode_error);
  }

  {
    MutexLock lock(&mu_);
    for (size_t m = 0; m < miss_slots.size(); ++m) {
      out[miss_slots[m]] = encoded[m];
      InsertLocked(keys[miss_slots[m]], encoded[m]);
      inflight_.erase(keys[miss_slots[m]]);
    }
  }
  // Publish only after the in-flight entries are gone so a joiner that
  // wakes up and misses the cache re-encodes rather than deadlocks.
  for (size_t m = 0; m < miss_slots.size(); ++m) {
    promises[m].set_value(encoded[m]);
  }
  for (auto& [slot, future] : joins) {
    out[slot] = future.get();
    MutexLock lock(&mu_);
    ++hits_;
  }
  // Duplicate requests within the batch resolve to the first occurrence.
  for (size_t i = 0; i < n; ++i) {
    if (!out[i]) out[i] = out[first_slot[keys[i]]];
  }
  return out;
}

}  // namespace tabbin
