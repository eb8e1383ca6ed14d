// EncoderEngine — batched, cached table encoding.
//
// Every downstream task (CC/TC/EC pipelines, the benchmarks, the CLI)
// needs the four-segment TableEncodings of the same tables over and over.
// Running TabBiNSystem::EncodeAll per query re-does four transformer
// forward passes per table; the engine instead
//
//   * memoizes encodings in a bounded LRU cache keyed by table identity
//     (a content fingerprint, so logically equal tables share an entry
//     regardless of where they live in memory), and
//   * encodes batches of tables in parallel across ThreadPool::Global().
//
// Encoding is inference-only (NoGradGuard is thread_local) and every
// table is encoded independently, so batched results are bitwise
// identical to serial EncodeAll calls.
#ifndef TABBIN_CORE_ENCODER_ENGINE_H_
#define TABBIN_CORE_ENCODER_ENGINE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/tabbin.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbin {

/// \brief Deterministic 64-bit content fingerprint of a table (id,
/// caption, geometry, cell values, nested tables). Cache key for
/// EncoderEngine.
uint64_t TableFingerprint(const Table& table);

class EncoderEngine {
 public:
  /// \param system Borrowed; must outlive the engine.
  /// \param capacity Maximum number of cached TableEncodings.
  explicit EncoderEngine(const TabBiNSystem* system, size_t capacity = 256);

  /// \brief Cached EncodeAll. The returned shared_ptr stays valid even if
  /// the entry is later evicted.
  ///
  /// Concurrent misses on the same table are single-flight: the first
  /// caller runs the four forward passes, later callers block on that
  /// in-flight result (counted as hits) instead of re-encoding.
  std::shared_ptr<const TableEncodings> Encode(const Table& table)
      TABBIN_EXCLUDES(mu_);

  /// \brief Non-inserting lookup: the cached encoding of `table` (counted
  /// as a hit and refreshed in the LRU), or nullptr. A miss runs no
  /// forward pass and is not counted; callers that encode the table
  /// themselves keep the result out of the cache.
  std::shared_ptr<const TableEncodings> Find(const Table& table)
      TABBIN_EXCLUDES(mu_);

  /// \brief Encodes all tables, computing cache misses in parallel on the
  /// global thread pool. Results are positionally aligned with `tables`
  /// and bitwise identical to serial Encode calls.
  std::vector<std::shared_ptr<const TableEncodings>> EncodeBatch(
      const std::vector<const Table*>& tables) TABBIN_EXCLUDES(mu_);

  /// \brief Convenience overload over an owned table container.
  std::vector<std::shared_ptr<const TableEncodings>> EncodeBatch(
      const std::vector<Table>& tables) TABBIN_EXCLUDES(mu_);

  size_t hits() const TABBIN_EXCLUDES(mu_);
  size_t misses() const TABBIN_EXCLUDES(mu_);
  size_t size() const TABBIN_EXCLUDES(mu_);
  size_t capacity() const TABBIN_EXCLUDES(mu_);

  /// \brief Raises the LRU capacity to at least `capacity` (never
  /// shrinks; shrinking mid-serve would evict live entries).
  void Reserve(size_t capacity) TABBIN_EXCLUDES(mu_);
  const TabBiNSystem& system() const { return *system_; }

  void Clear() TABBIN_EXCLUDES(mu_);

  // --- Warm start -------------------------------------------------------

  /// \brief Appends every cached encoding (fingerprint + TableEncodings)
  /// to the snapshot (section "encoder.cache"), least recently used
  /// first so a reload reproduces the recency order.
  void AppendCacheTo(PagedSnapshotWriter* snapshot) const
      TABBIN_EXCLUDES(mu_);

  /// \brief Prepopulates the LRU from a snapshot's "encoder.cache"
  /// section; subsequent Encode calls on the same tables are cache hits
  /// (no forward passes). Entries whose geometry does not match this
  /// engine's system (hidden width, token/hidden row agreement) are a
  /// Status error. Returns the number of entries loaded; a snapshot
  /// without the section loads 0.
  Result<size_t> WarmStart(const PagedSnapshotReader& snapshot)
      TABBIN_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const TableEncodings> enc;
    std::list<uint64_t>::iterator lru_pos;
  };
  using EncodingFuture =
      std::shared_future<std::shared_ptr<const TableEncodings>>;

  // Returns nullptr on miss. Does not touch the hit/miss counters:
  // callers account for them (a caller joining an in-flight encode is a
  // hit, not a second miss).
  std::shared_ptr<const TableEncodings> LookupLocked(uint64_t key)
      TABBIN_REQUIRES(mu_);
  // Inserts (or refreshes) and evicts past capacity.
  void InsertLocked(uint64_t key, std::shared_ptr<const TableEncodings> enc)
      TABBIN_REQUIRES(mu_);

  const TabBiNSystem* system_;
  size_t capacity_ TABBIN_GUARDED_BY(mu_);

  mutable Mutex mu_;
  // front = most recently used
  std::list<uint64_t> lru_ TABBIN_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, Entry> cache_ TABBIN_GUARDED_BY(mu_);
  // Keys currently being encoded; joiners wait on the future instead of
  // running their own forward passes. Only the map is guarded — the
  // shared_futures handed out are waited on OUTSIDE mu_ (blocking on a
  // forward pass under the cache lock would stall every cache hit).
  std::unordered_map<uint64_t, EncodingFuture> inflight_
      TABBIN_GUARDED_BY(mu_);
  size_t hits_ TABBIN_GUARDED_BY(mu_) = 0;
  size_t misses_ TABBIN_GUARDED_BY(mu_) = 0;
};

}  // namespace tabbin

#endif  // TABBIN_CORE_ENCODER_ENGINE_H_
