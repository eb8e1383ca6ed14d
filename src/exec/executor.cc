#include "exec/executor.h"

#include <algorithm>
#include <utility>

namespace tabbin {

namespace {

bool Coalescable(JobKind kind) {
  return kind == JobKind::kSimilarColumns ||
         kind == JobKind::kSimilarTables ||
         kind == JobKind::kSimilarEntities;
}

Status Rejected(const char* lane) {
  return Status::ResourceExhausted(
      std::string(lane) + " lane rejected: queue at capacity or shut down");
}

}  // namespace

AsyncExecutor::AsyncExecutor(TabBinServing* serving, ExecutorOptions options)
    : serving_(serving),
      options_(options),
      read_queue_(options_.read_queue_depth),
      write_queue_(options_.write_queue_depth) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  writer_ = std::thread([this] { WriterLoop(); });
}

AsyncExecutor::~AsyncExecutor() { Shutdown(); }

void AsyncExecutor::Shutdown() {
  {
    MutexLock lock(&shutdown_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Closing stops admissions; both loops drain what was already
  // admitted (every promise gets satisfied), then exit.
  read_queue_.Close();
  write_queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (writer_.joinable()) writer_.join();
}

// --- Submits ---------------------------------------------------------------

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarColumns(
    const ColumnQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarColumns;
  job.col = req;
  if (req.table != nullptr) {
    // Own the inline table: the caller's pointer need not outlive this
    // call. The stored request keeps table = nullptr; the dispatcher
    // re-points it at the owned copy when the batch is built.
    job.query_table = *req.table;
    job.has_query_table = true;
    job.col.table = nullptr;
  }
  std::future<Result<QueryResponse>> fut = job.query_promise.get_future();
  if (read_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.query_promise.set_value(Rejected("read"));
  }
  return fut;
}

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarTables(
    const TableQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarTables;
  job.tbl = req;
  if (req.table != nullptr) {
    job.query_table = *req.table;
    job.has_query_table = true;
    job.tbl.table = nullptr;
  }
  std::future<Result<QueryResponse>> fut = job.query_promise.get_future();
  if (read_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.query_promise.set_value(Rejected("read"));
  }
  return fut;
}

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarEntities(
    const EntityQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarEntities;
  job.ent = req;
  if (req.table != nullptr) {
    job.query_table = *req.table;
    job.has_query_table = true;
    job.ent.table = nullptr;
  }
  std::future<Result<QueryResponse>> fut = job.query_promise.get_future();
  if (read_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.query_promise.set_value(Rejected("read"));
  }
  return fut;
}

std::future<Result<AskResponse>> AsyncExecutor::SubmitAsk(
    const AskRequest& req) {
  Job job;
  job.kind = JobKind::kAsk;
  job.ask = req;
  std::future<Result<AskResponse>> fut = job.ask_promise.get_future();
  if (read_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.ask_promise.set_value(Rejected("read"));
  }
  return fut;
}

std::future<Result<AddReport>> AsyncExecutor::SubmitAddTables(
    std::vector<Table> tables) {
  Job job;
  job.kind = JobKind::kAddTables;
  job.add_tables = std::move(tables);
  std::future<Result<AddReport>> fut = job.add_promise.get_future();
  if (write_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.add_promise.set_value(Rejected("write"));
  }
  return fut;
}

std::future<Status> AsyncExecutor::SubmitRemoveTable(const std::string& id) {
  Job job;
  job.kind = JobKind::kRemoveTable;
  job.remove_id = id;
  std::future<Status> fut = job.remove_promise.get_future();
  if (write_queue_.TryEnqueue(std::move(job))) {
    MutexLock lock(&stats_mu_);
    ++stats_.submitted;
  } else {
    {
      MutexLock lock(&stats_mu_);
      ++stats_.rejected;
    }
    job.remove_promise.set_value(Rejected("write"));
  }
  return fut;
}

AsyncExecutor::Stats AsyncExecutor::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

// --- Dispatcher (read lane) ------------------------------------------------

void AsyncExecutor::DispatcherLoop() {
  for (;;) {
    // Blocks on the queue's own condition variable until a job arrives
    // or the lane closes. The batch is the head plus the same-kind
    // Similar* jobs queued right behind it; an incompatible job ends it
    // and stays queued as the next head — jobs are never reordered, so
    // a caller that observed response A before submitting B still sees
    // A's effects ordered before B.
    std::vector<Job> batch = read_queue_.WaitDequeueRun(
        options_.max_batch, [](const Job& head, const Job& next) {
          return Coalescable(head.kind) && next.kind == head.kind;
        });
    if (batch.empty()) return;  // closed AND drained
    ExecuteReadBatch(std::move(batch));
    // Batches execute strictly one after another, so every shard's
    // reader count returns to zero between batches — the gap a writer
    // on the dedicated lane needs to acquire a reader-preferring
    // rwlock under 100%-duty read load.
  }
}

void AsyncExecutor::ExecuteReadBatch(std::vector<Job> batch) {
  if (Coalescable(batch.front().kind)) {
    // Counted BEFORE any promise is satisfied: a caller that observed
    // its future resolve must also observe the batch in stats().
    MutexLock lock(&stats_mu_);
    ++stats_.batches;
    stats_.batched_jobs += batch.size();
    stats_.max_batch_seen =
        std::max<uint64_t>(stats_.max_batch_seen, batch.size());
  }
  switch (batch.front().kind) {
    case JobKind::kSimilarColumns: {
      std::vector<ColumnQueryRequest> reqs;
      reqs.reserve(batch.size());
      for (Job& j : batch) {
        if (j.has_query_table) j.col.table = &j.query_table;
        reqs.push_back(j.col);
      }
      std::vector<Result<QueryResponse>> results =
          serving_->SimilarColumnsBatch(reqs);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].query_promise.set_value(std::move(results[i]));
      }
      break;
    }
    case JobKind::kSimilarTables: {
      std::vector<TableQueryRequest> reqs;
      reqs.reserve(batch.size());
      for (Job& j : batch) {
        if (j.has_query_table) j.tbl.table = &j.query_table;
        reqs.push_back(j.tbl);
      }
      std::vector<Result<QueryResponse>> results =
          serving_->SimilarTablesBatch(reqs);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].query_promise.set_value(std::move(results[i]));
      }
      break;
    }
    case JobKind::kSimilarEntities: {
      std::vector<EntityQueryRequest> reqs;
      reqs.reserve(batch.size());
      for (Job& j : batch) {
        if (j.has_query_table) j.ent.table = &j.query_table;
        reqs.push_back(j.ent);
      }
      std::vector<Result<QueryResponse>> results =
          serving_->SimilarEntitiesBatch(reqs);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].query_promise.set_value(std::move(results[i]));
      }
      break;
    }
    case JobKind::kAsk:
      batch.front().ask_promise.set_value(serving_->Ask(batch.front().ask));
      break;
    case JobKind::kAddTables:
    case JobKind::kRemoveTable:
      break;  // write kinds never enter the read lane
  }
}

// --- Writer lane -----------------------------------------------------------

void AsyncExecutor::WriterLoop() {
  for (;;) {
    std::optional<Job> job = write_queue_.WaitDequeue();
    if (!job.has_value()) return;  // closed AND drained
    ExecuteWrite(std::move(*job));
  }
}

void AsyncExecutor::ExecuteWrite(Job job) {
  {
    // Before the promise, for the same visibility reason as the read
    // batch counters.
    MutexLock lock(&stats_mu_);
    ++stats_.writes;
  }
  switch (job.kind) {
    case JobKind::kAddTables:
      // The encode forward passes run HERE, on the writer thread —
      // never on the dispatcher, so a heavy insert cannot stall the
      // read lane's batching cadence.
      job.add_promise.set_value(serving_->AddTables(job.add_tables));
      break;
    case JobKind::kRemoveTable:
      job.remove_promise.set_value(serving_->RemoveTable(job.remove_id));
      break;
    default:
      break;  // read kinds never enter the write lane
  }
}

}  // namespace tabbin
