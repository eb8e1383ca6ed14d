// BoundedQueue — the admission-controlled MPMC queue under the async
// executor's two lanes (exec/executor.h).
//
// Capacity is fixed at construction and enqueue NEVER blocks: TryEnqueue
// returns false on a full (or closed) queue and the caller turns that
// into Status::ResourceExhausted immediately — load sheds at the edge
// instead of building an invisible backlog whose tail latency grows
// without bound. This is the repo-wide rule the `unbounded-exec-queue`
// lint enforces: executor-layer work may only ever be staged in a
// BoundedQueue, and only through TryEnqueue.
//
// Close() is the shutdown handshake: producers start failing fast while
// consumers drain every item already admitted (WaitDequeue returns them
// until the queue is empty, then nullopt), so an admitted job's promise
// is always satisfied — by a result, never by abandonment.
#ifndef TABBIN_EXEC_BOUNDED_QUEUE_H_
#define TABBIN_EXEC_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <optional>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbin {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Admits `item` unless the queue is full or closed. Never
  /// blocks; on false the item is left untouched so the caller can
  /// still satisfy its promise with a rejection status.
  bool TryEnqueue(T&& item) TABBIN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// \brief Blocks for the next item; nullopt once closed AND drained
  /// (items admitted before Close are always delivered).
  std::optional<T> WaitDequeue() TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (items_.empty() && !closed_) cv_.wait(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// \brief Coalescing dequeue: blocks for the next item, then also
  /// takes the items queued directly behind it while
  /// `joins(first, next)` holds, `max` in all (at least one). It never
  /// waits for more to arrive — a run is what was already queued — and
  /// the first declined item stays at the front as the head of the next
  /// run. Empty once closed AND drained.
  template <typename Joins>
  std::vector<T> WaitDequeueRun(size_t max, const Joins& joins)
      TABBIN_EXCLUDES(mu_) {
    std::vector<T> run;
    MutexLock lock(&mu_);
    while (items_.empty() && !closed_) cv_.wait(mu_);
    while (!items_.empty() &&
           (run.empty() ||
            (run.size() < max && joins(run.front(), items_.front())))) {
      run.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return run;
  }

  /// \brief Stops admissions (TryEnqueue fails from now on) and wakes
  /// every blocked consumer. Idempotent.
  void Close() TABBIN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable Mutex mu_;
  // _any variant: waits on the annotated Mutex directly, keeping the
  // blocked wait inside one analyzed MutexLock region.
  std::condition_variable_any cv_;
  std::deque<T> items_ TABBIN_GUARDED_BY(mu_);
  bool closed_ TABBIN_GUARDED_BY(mu_) = false;
  const size_t capacity_;
};

}  // namespace tabbin

#endif  // TABBIN_EXEC_BOUNDED_QUEUE_H_
