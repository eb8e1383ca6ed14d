#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace tabbin {

namespace {
// Set for the lifetime of a worker thread (any ThreadPool's). Checked
// by fan-out helpers: a worker that submits chunks to its own pool and
// blocks on their futures deadlocks once every worker is blocked the
// same way, so fan-out from a worker runs inline instead. Deliberately
// pool-agnostic — a worker of pool A fanning out onto pool B is still
// one blocked-worker cycle away from the same wedge when B's workers
// fan out onto A.
thread_local bool t_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;  // idempotent: workers already joined (below)
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::InPoolWorker() { return t_in_pool_worker; }

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    MutexLock lock(&mu_);
    if (!shutdown_) {
      tasks_.push(std::move(pt));
      cv_.notify_one();
      return fut;
    }
  }
  // Shutdown already observed: the workers have drained the queue (or
  // are about to, without ever seeing this task). Run inline so the
  // future is satisfied instead of hanging its waiter forever; the
  // packaged_task still routes any exception into the future.
  pt();
  return fut;
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mu_);
      // Explicit predicate loop instead of the lambda-predicate wait
      // overload: a lambda body is analyzed as its own function, which
      // cannot see that the lock is held here.
      while (!shutdown_ && tasks_.empty()) cv_.wait(mu_);
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  ParallelFor(ThreadPool::Global(), begin, end, fn, grain);
}

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  if (end <= begin) return;
  grain = std::max<size_t>(grain, 1);
  const size_t n = end - begin;
  const size_t workers = pool.num_threads();
  if (n <= grain || workers <= 1 || ThreadPool::InPoolWorker()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // One task per worker; each claims the next grain-sized block from a
  // shared cursor until none is left, so a slow index holds up only its
  // own block instead of a fixed share of the range.
  const size_t blocks = (n + grain - 1) / grain;
  const size_t tasks = std::min(workers, blocks);
  std::atomic<size_t> cursor{0};
  // Per task: the first (so lowest) block that threw, and its exception.
  // A throw ends only its own block; the task keeps claiming, so every
  // other block still runs.
  std::vector<std::pair<size_t, std::exception_ptr>> failed(tasks);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (size_t t = 0; t < tasks; ++t) {
    futures.push_back(pool.Submit([&, t] {
      for (;;) {
        const size_t b = cursor.fetch_add(1);
        if (b >= blocks) return;
        const size_t lo = begin + b * grain;
        const size_t hi = std::min(end, lo + grain);
        try {
          for (size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          if (!failed[t].second) failed[t] = {b, std::current_exception()};
        }
      }
    }));
  }
  // Join EVERY task before letting any exception escape: the tasks hold
  // fn, the cursor and `failed` by reference, so unwinding past this
  // frame (and the caller's, which typically owns the std::function)
  // while tasks still run would leave them on dangling references. The
  // lowest failing block's exception propagates, whatever the schedule.
  for (auto& f : futures) f.get();
  const std::pair<size_t, std::exception_ptr>* first = nullptr;
  for (const auto& f : failed) {
    if (f.second && (first == nullptr || f.first < first->first)) first = &f;
  }
  if (first != nullptr) std::rethrow_exception(first->second);
}

}  // namespace tabbin
