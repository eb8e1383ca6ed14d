// Fixed-size thread pool plus a ParallelFor helper used by the tensor
// library and the dataset generators.
#ifndef TABBIN_UTIL_THREADPOOL_H_
#define TABBIN_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbin {

/// \brief A simple fixed-size worker pool.
class ThreadPool {
 public:
  /// \param num_threads Number of workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task and returns a future for its completion.
  ///
  /// Once Shutdown() has run (or is racing with this call and won), no
  /// worker will ever drain the queue again, so instead of enqueueing a
  /// task nobody runs — which would hang the returned future forever —
  /// the task executes inline on the calling thread and the future
  /// comes back already satisfied.
  std::future<void> Submit(std::function<void()> task)
      TABBIN_EXCLUDES(mu_);

  /// \brief Stops accepting queued work and joins every worker.
  /// Tasks already enqueued are drained first. Idempotent; the
  /// destructor calls it. Must not be called from a pool worker.
  void Shutdown() TABBIN_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// \brief True when the calling thread is a pool worker (any pool's).
  /// Fan-out helpers consult this to run inline instead of submitting
  /// chunks back into the pool and blocking on them — with every worker
  /// blocked the same way, the queued chunks could never run and the
  /// pool would wedge permanently.
  static bool InPoolWorker();

  /// \brief Process-wide shared pool (lazily constructed).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  // _any variant: it waits on the annotated Mutex directly, so the
  // worker's blocked wait stays inside one analyzed MutexLock region.
  std::condition_variable_any cv_;
  std::queue<std::packaged_task<void()>> tasks_ TABBIN_GUARDED_BY(mu_);
  bool shutdown_ TABBIN_GUARDED_BY(mu_) = false;
};

/// \brief Runs fn(i) for i in [begin, end) across the global pool.
///
/// Each worker claims `grain`-sized blocks of the range (grain 0 counts
/// as 1) from one shared cursor until the range is exhausted, so uneven
/// per-index costs balance across the workers. Every index runs exactly
/// once; which thread runs it depends on the schedule.
///
/// Falls back to a serial loop for ranges of at most one block, when
/// called from a pool worker (nested fan-out would deadlock once every
/// worker blocks on tasks only the pool could run), or when the pool has
/// one worker. If fn throws, the rest of that block is skipped, every
/// other block still runs, and the lowest failing block's exception
/// propagates once all workers are done — they reference fn, so
/// unwinding while they still run would leave them invoking a dangling
/// reference.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 size_t grain = 1024);

/// \brief Same, over an explicit pool (tests exercise the fan-out,
/// drain, and nested-worker paths deterministically on machines whose
/// global pool has a single worker).
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 size_t grain = 1024);

}  // namespace tabbin

#endif  // TABBIN_UTIL_THREADPOOL_H_
