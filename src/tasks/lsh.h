// Random-hyperplane LSH index for cosine similarity, used as the blocking
// stage of column/entity clustering (paper §4.1: "We use LSH-based
// blocking [28] to avoid quadratic complexity").
#ifndef TABBIN_TASKS_LSH_H_
#define TABBIN_TASKS_LSH_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/embedding_matrix.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace tabbin {

/// \brief Multi-table random-hyperplane LSH over dense float vectors.
class LshIndex {
 public:
  /// \param dim Vector dimensionality.
  /// \param num_bits Hash bits per table (bucket granularity).
  /// \param num_tables Independent hash tables (recall knob).
  LshIndex(int dim, int num_bits, int num_tables, uint64_t seed = 1234);

  // The atomic telemetry counters are not movable by default; moves
  // transfer them as plain loads (no concurrent movers by contract:
  // indexes move only during construction/rebuild, under the owning
  // shard's writer lock). Copies were never generated anyway — the
  // hyperplane matrix is move-only in practice.
  LshIndex(LshIndex&& other) noexcept;
  LshIndex& operator=(LshIndex&& other) noexcept;
  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;

  /// \brief Adds a vector under the next dense id, which must equal
  /// size(): ids are row numbers 0, 1, 2, ... in insertion order, the
  /// id space the query bitmap spans. Any other id is InvalidArgument.
  /// Also rejects vectors whose size differs from the index
  /// dimensionality with InvalidArgument — a mis-sized vector would hash
  /// against truncated hyperplanes and silently poison every bucket it
  /// lands in.
  Status Insert(int id, VecView vec);

  /// \brief Insert by precomputed bucket keys: identical to
  /// Insert(id, vec) when `keys` came from QueryKeys(vec) on a
  /// same-geometry index, so callers can hash outside a lock. Same id
  /// rule as Insert; a key count other than num_tables is
  /// InvalidArgument.
  Status InsertKeys(int id, const std::vector<uint64_t>& keys);

  /// \brief Ids colliding with `vec` in at least one table (candidates
  /// for exact cosine ranking), in ascending id order so that blocking —
  /// and everything ranked after it — is deterministic across platforms.
  /// The query id itself may be included. A vector whose size differs
  /// from the index dimensionality matches nothing (empty result).
  std::vector<int> Query(VecView vec) const;

  /// \brief The per-table bucket keys `vec` hashes to (empty on a
  /// dimensionality mismatch). Two indexes built with the same geometry
  /// and seed share hyperplanes bit for bit, so keys computed once can
  /// probe them all — the sharded serving core hashes each query once
  /// and scatters the keys instead of re-hashing per shard.
  std::vector<uint64_t> QueryKeys(VecView vec) const;

  /// \brief Query by precomputed keys: identical to Query(vec) when
  /// `keys` came from QueryKeys(vec) on a same-geometry index. A key
  /// count that does not match num_tables matches nothing. Linear in the
  /// bucket hits plus size() / 64 (a bitmap over the dense ids).
  std::vector<int> QueryByKeys(const std::vector<uint64_t>& keys) const;

  /// \brief Drops every bucket and resets size() to 0; the hyperplanes
  /// (and so every key a vector hashes to) stay as they are.
  void Clear();

  int dim() const { return dim_; }

  int size() const { return count_; }

  /// \brief Cumulative candidate-pool telemetry across QueryByKeys
  /// calls (relaxed atomics, so concurrent readers under a shared lock
  /// can count). `candidates` sums the deduplicated pool sizes — the
  /// rows the bucket probe hands to exact reranking — which is the
  /// number bench compares against the HNSW walk's visited count.
  struct PoolStats {
    uint64_t queries = 0;
    uint64_t candidates = 0;
  };
  PoolStats pool_stats() const;
  void ResetPoolStats() const;

  /// \brief Writes geometry, hyperplanes, and buckets (keys sorted, so
  /// the byte stream is deterministic across platforms).
  void Serialize(BinaryWriter* w) const;

  /// \brief Inverse of Serialize; validates geometry and bucket contents
  /// so corrupt streams return a Status error: every id must lie in
  /// [0, count) and each table's bucket sizes must sum to count, else
  /// ParseError. The restored index answers
  /// Query identically to the one serialized — when writer and reader
  /// hash identically: same kernel dispatch level AND both post-PR-5
  /// (which moved hashing from double-accumulated scalar dots to float
  /// kernel dots). Bucket keys are insert-time hashes, so across a
  /// dispatch-level change or the PR-5 transition the rare vector whose
  /// hyperplane dot sits within rounding of zero can land on a flipped
  /// key bit, costing that vector one table's worth of candidate recall
  /// (never a crash or a wrong score — candidates are always
  /// exact-cosine re-ranked). The sharded service snapshot is immune:
  /// it stores embedding rows and re-inserts (re-hashes) on load.
  static Result<LshIndex> Deserialize(BinaryReader* r);

 private:
  // All per-table bucket keys of `vec` in one kernel matrix-vector pass
  // over the flat hyperplane block. Requires vec.size() == dim_.
  std::vector<uint64_t> HashAllTables(VecView vec) const;

  int dim_, num_bits_, num_tables_;
  int count_ = 0;
  // Row (t * num_bits + b) is the dim-sized normal of hyperplane b in
  // table t — one flat block instead of num_tables * num_bits vectors.
  EmbeddingMatrix hyperplanes_;
  std::vector<std::unordered_map<uint64_t, std::vector<int>>> tables_;

  // Telemetry: mutable so const query paths can count under a shared
  // lock (same discipline as HnswIndex's walk counters).
  mutable std::atomic<uint64_t> stat_queries_{0};
  mutable std::atomic<uint64_t> stat_candidates_{0};
};

}  // namespace tabbin

#endif  // TABBIN_TASKS_LSH_H_
