// AsyncExecutor — admission-controlled, micro-batching front end over
// any TabBinServing.
//
//   AsyncExecutor exec(&serving, {.read_queue_depth = 256});
//   auto f = exec.SubmitSimilarTables({.table_id = "t-3", .k = 5});
//   ...
//   Result<QueryResponse> r = f.get();   // byte-identical to a direct call
//
// Three mechanisms, one per serving-layer pathology:
//
//  * Admission control. Both lanes sit behind fixed-depth BoundedQueues
//    (exec/bounded_queue.h). A full lane rejects the submit IMMEDIATELY
//    with Status::ResourceExhausted — Submit never blocks — so overload
//    sheds at the edge instead of accumulating an unbounded backlog
//    whose tail latency grows until everything times out.
//
//  * Micro-batching. One dispatcher thread drains the read lane,
//    coalescing the same-kind Similar* jobs queued consecutively at the
//    head of the lane (up to `max_batch`) into ONE batched ranking
//    pass (TabBinServing::Similar*Batch): one reader-lock hold and one
//    stacked scoring sweep per shard for the whole batch, instead of
//    per-query lock churn. The dispatcher never lingers for stragglers:
//    a lone request runs at once, and under load the jobs that queued
//    while the previous batch ran form the next one. Answers stay
//    byte-identical to sequential single-query calls — batching shares
//    the lock hold, never the per-query candidate sets or score
//    arithmetic.
//
//  * Write fairness. Writes ride a DEDICATED lane with their own
//    thread. Because reads execute as a serialized stream of batches,
//    every shard's reader count actually reaches zero between batches —
//    the gap a writer needs to acquire a reader-preferring rwlock. This
//    retires the PR-3 workaround of sleep-throttling readers to let
//    writers through: under a 100%-duty read load the write lane still
//    makes progress (tests/exec_test.cc proves it with no sleeps).
//
// Shutdown closes both lanes (subsequent submits are rejected), drains
// every admitted job — each promise is satisfied, never abandoned —
// and joins both threads. The destructor calls it.
#ifndef TABBIN_EXEC_EXECUTOR_H_
#define TABBIN_EXEC_EXECUTOR_H_

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "exec/bounded_queue.h"
#include "exec/job.h"
#include "service/service_types.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbin {

struct ExecutorOptions {
  /// Admission bound of the read lane (queries). A full lane rejects
  /// with ResourceExhausted; it never blocks the submitter.
  size_t read_queue_depth = 256;
  /// Admission bound of the write lane (AddTables / RemoveTable).
  size_t write_queue_depth = 64;
  /// Most Similar* jobs coalesced into one batched ranking pass (0
  /// acts as 1: a batch always holds its head job).
  size_t max_batch = 16;
};

class AsyncExecutor {
 public:
  /// \param serving Borrowed; must outlive the executor.
  explicit AsyncExecutor(TabBinServing* serving, ExecutorOptions options = {});
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  // --- Read lane ---------------------------------------------------------
  // Inline query tables (req.table) are copied into the job; the
  // caller's pointer only needs to outlive the Submit call. Each future
  // resolves to exactly what the matching direct serving call would
  // have returned — or ResourceExhausted if the lane was full.

  std::future<Result<QueryResponse>> SubmitSimilarColumns(
      const ColumnQueryRequest& req);
  std::future<Result<QueryResponse>> SubmitSimilarTables(
      const TableQueryRequest& req);
  std::future<Result<QueryResponse>> SubmitSimilarEntities(
      const EntityQueryRequest& req);
  std::future<Result<AskResponse>> SubmitAsk(const AskRequest& req);

  // --- Write lane --------------------------------------------------------

  std::future<Result<AddReport>> SubmitAddTables(std::vector<Table> tables);
  std::future<Status> SubmitRemoveTable(const std::string& id);

  /// \brief Closes both lanes, drains every admitted job, joins both
  /// threads. Further submits are rejected with ResourceExhausted.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  struct Stats {
    uint64_t submitted = 0;     // jobs admitted to either lane
    uint64_t rejected = 0;      // submits refused (lane full / shut down)
    uint64_t batches = 0;       // batched ranking passes executed
    uint64_t batched_jobs = 0;  // read jobs executed across those passes
    uint64_t writes = 0;        // write jobs executed
    uint64_t max_batch_seen = 0;
  };
  Stats stats() const TABBIN_EXCLUDES(stats_mu_);

  size_t read_queue_capacity() const { return read_queue_.capacity(); }

 private:
  void DispatcherLoop();
  void WriterLoop();
  void ExecuteReadBatch(std::vector<Job> batch);
  void ExecuteWrite(Job job);

  TabBinServing* serving_;
  const ExecutorOptions options_;

  BoundedQueue<Job> read_queue_;
  BoundedQueue<Job> write_queue_;

  mutable Mutex stats_mu_;
  Stats stats_ TABBIN_GUARDED_BY(stats_mu_);

  Mutex shutdown_mu_;
  bool shutdown_ TABBIN_GUARDED_BY(shutdown_mu_) = false;

  std::thread dispatcher_;
  std::thread writer_;
};

}  // namespace tabbin

#endif  // TABBIN_EXEC_EXECUTOR_H_
