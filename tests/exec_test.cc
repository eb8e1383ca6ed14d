// Tests for the async executor stack (src/exec/): BoundedQueue
// admission semantics, byte-identity of single and coalesced answers
// against direct serving calls (1 and 8 shards), deterministic
// admission-overflow rejection, writer-lane progress under 100%-duty
// readers with NO sleep throttling, and drain-on-shutdown. Run under
// ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/corpus_gen.h"
#include "exec/bounded_queue.h"
#include "exec/executor.h"
#include "service/sharded_service.h"

namespace tabbin {
namespace {

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 96;
  return cfg;
}

const LabeledCorpus& SharedCorpus() {
  static const LabeledCorpus* corpus = [] {
    GeneratorOptions gen;
    gen.num_tables = 18;
    gen.seed = 23;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
}

/// A loaded serving instance over `shards` shards.
std::unique_ptr<TabBinServing> MakeLoadedServing(int shards) {
  std::unique_ptr<TabBinServing> svc =
      std::make_unique<TabBinService>(SharedSystem(), ServiceOptions{}, shards);
  auto report = svc->AddTables(SharedCorpus().corpus.tables);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return svc;
}

// Full byte-identity: every field of every match, plus the candidate
// count, must agree — "close enough" would hide a changed candidate
// set or a reordered tie.
void ExpectIdenticalResponse(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].table_id, b.matches[i].table_id);
    EXPECT_EQ(a.matches[i].caption, b.matches[i].caption);
    EXPECT_EQ(a.matches[i].col, b.matches[i].col);
    EXPECT_EQ(a.matches[i].row, b.matches[i].row);
    EXPECT_EQ(a.matches[i].entity, b.matches[i].entity);
    EXPECT_EQ(a.matches[i].score, b.matches[i].score);  // bitwise
  }
}

void ExpectIdenticalResult(const Result<QueryResponse>& a,
                           const Result<QueryResponse>& b) {
  ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                            << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status(), b.status());
    return;
  }
  ExpectIdenticalResponse(a.value(), b.value());
}

// A serving that can hold the executor's dispatcher inside a read call.
// Plug() submits one query and returns once the dispatcher is parked on
// it: every read job submitted from then on stays queued until
// Release(), so a test can fill the lane to exactly its capacity, or
// line up the jobs a batch is built from. Everything else forwards to
// the wrapped serving, so answers are the wrapped serving's.
class GatedServing : public TabBinServing {
 public:
  explicit GatedServing(TabBinServing* inner) : inner_(inner) {}

  std::future<Result<QueryResponse>> Plug(AsyncExecutor& exec,
                                          const std::string& id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = true;
    }
    auto plug = exec.SubmitSimilarTables({id, nullptr, 3});
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
    return plug;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }

  /// Read calls the dispatcher made, in order, with their batch sizes
  /// (Ask counts as 1).
  std::vector<size_t> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

  Result<AddReport> AddTables(const std::vector<Table>& tables) override {
    return inner_->AddTables(tables);
  }
  Status RemoveTable(const std::string& id) override {
    return inner_->RemoveTable(id);
  }
  Status Compact() override { return inner_->Compact(); }
  void SetQuantizedScan(bool on, int shortlist_multiplier) override {
    inner_->SetQuantizedScan(on, shortlist_multiplier);
  }
  void SetIndexKind(IndexKind kind, int ef_search) override {
    inner_->SetIndexKind(kind, ef_search);
  }
  Result<QueryResponse> SimilarColumns(
      const ColumnQueryRequest& req) const override {
    return inner_->SimilarColumns(req);
  }
  Result<QueryResponse> SimilarTables(
      const TableQueryRequest& req) const override {
    return inner_->SimilarTables(req);
  }
  Result<QueryResponse> SimilarEntities(
      const EntityQueryRequest& req) const override {
    return inner_->SimilarEntities(req);
  }
  Result<AskResponse> Ask(const AskRequest& req) const override {
    Gate(1);
    return inner_->Ask(req);
  }
  std::vector<Result<QueryResponse>> SimilarColumnsBatch(
      const std::vector<ColumnQueryRequest>& reqs) const override {
    Gate(reqs.size());
    return inner_->SimilarColumnsBatch(reqs);
  }
  std::vector<Result<QueryResponse>> SimilarTablesBatch(
      const std::vector<TableQueryRequest>& reqs) const override {
    Gate(reqs.size());
    return inner_->SimilarTablesBatch(reqs);
  }
  std::vector<Result<QueryResponse>> SimilarEntitiesBatch(
      const std::vector<EntityQueryRequest>& reqs) const override {
    Gate(reqs.size());
    return inner_->SimilarEntitiesBatch(reqs);
  }
  std::vector<float> ColumnEmbedding(const Table& table,
                                     int col) const override {
    return inner_->ColumnEmbedding(table, col);
  }
  std::vector<float> TableEmbedding(const Table& table) const override {
    return inner_->TableEmbedding(table);
  }
  std::vector<float> EntityEmbedding(const Table& table, int row,
                                     int col) const override {
    return inner_->EntityEmbedding(table, row, col);
  }
  size_t NumLiveTables() const override { return inner_->NumLiveTables(); }
  size_t NumIndexedColumns() const override {
    return inner_->NumIndexedColumns();
  }
  size_t NumIndexedEntities() const override {
    return inner_->NumIndexedEntities();
  }
  std::vector<std::string> LiveTableIds() const override {
    return inner_->LiveTableIds();
  }
  TabBiNSystem& system() override { return inner_->system(); }
  EncoderEngine& engine() override { return inner_->engine(); }
  Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

 private:
  void Gate(size_t batch) const {
    std::unique_lock<std::mutex> lock(mu_);
    calls_.push_back(batch);
    if (!held_) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !held_; });
    parked_ = false;
  }

  TabBinServing* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool held_ = false;
  mutable bool parked_ = false;
  mutable std::vector<size_t> calls_;
};

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueueTest, TryEnqueueShedsAtCapacityWithoutBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryEnqueue(1));
  EXPECT_TRUE(q.TryEnqueue(2));
  EXPECT_FALSE(q.TryEnqueue(3));  // full: immediate false, no block
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.WaitDequeue().value(), 1);
  EXPECT_TRUE(q.TryEnqueue(4));  // capacity freed
  EXPECT_EQ(q.WaitDequeue().value(), 2);
  EXPECT_EQ(q.WaitDequeue().value(), 4);
}

TEST(BoundedQueueTest, CloseStopsAdmissionButDrainsAdmitted) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.TryEnqueue(1));
  EXPECT_TRUE(q.TryEnqueue(2));
  q.Close();
  q.Close();  // idempotent
  EXPECT_FALSE(q.TryEnqueue(3));
  EXPECT_EQ(q.WaitDequeue().value(), 1);  // admitted items still delivered
  EXPECT_EQ(q.WaitDequeue().value(), 2);
  EXPECT_FALSE(q.WaitDequeue().has_value());  // drained: nullopt, no block
}

TEST(BoundedQueueTest, WaitDequeueRunTakesOnlyTheQueuedRun) {
  BoundedQueue<int> q(8);
  const auto same_parity = [](int head, int next) {
    return head % 2 == next % 2;
  };
  for (int v : {1, 3, 5, 7, 2, 4, 9}) ASSERT_TRUE(q.TryEnqueue(std::move(v)));
  // The run stops at `max`; the rest of it heads the next run.
  EXPECT_EQ(q.WaitDequeueRun(3, same_parity), (std::vector<int>{1, 3, 5}));
  // The run stops at the first declined item, which stays queued.
  EXPECT_EQ(q.WaitDequeueRun(8, same_parity), (std::vector<int>{7}));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.WaitDequeueRun(8, same_parity), (std::vector<int>{2, 4}));
  // max == 0 still takes the head.
  EXPECT_EQ(q.WaitDequeueRun(0, same_parity), (std::vector<int>{9}));

  // An empty queue blocks until an item arrives; the run is what is
  // queued at that moment, never a wait for company.
  std::thread producer([&q] { EXPECT_TRUE(q.TryEnqueue(11)); });
  EXPECT_EQ(q.WaitDequeueRun(8, same_parity), (std::vector<int>{11}));
  producer.join();

  ASSERT_TRUE(q.TryEnqueue(13));
  q.Close();
  EXPECT_EQ(q.WaitDequeueRun(8, same_parity),
            (std::vector<int>{13}));  // close still drains
  // Closed and drained: empty.
  EXPECT_TRUE(q.WaitDequeueRun(8, same_parity).empty());
}

TEST(BoundedQueueTest, CloseReleasesABlockedRunConsumer) {
  BoundedQueue<int> q(2);
  std::thread closer([&q] { q.Close(); });
  EXPECT_TRUE(q.WaitDequeueRun(4, [](int, int) { return true; }).empty());
  closer.join();
}

// --- Byte-identity through the executor ------------------------------------

TEST(AsyncExecutorTest, SingleQueriesByteIdenticalToDirectCalls) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const auto& tables = SharedCorpus().corpus.tables;
  for (size_t i = 0; i < 4; ++i) {
    const std::string id = tables[i].id();
    ColumnQueryRequest creq{id, nullptr, 0, 5};
    TableQueryRequest treq{id, nullptr, 5};
    EntityQueryRequest ereq{id, nullptr, 0, 0, 5};
    ExpectIdenticalResult(exec.SubmitSimilarColumns(creq).get(),
                          svc->SimilarColumns(creq));
    ExpectIdenticalResult(exec.SubmitSimilarTables(treq).get(),
                          svc->SimilarTables(treq));
    ExpectIdenticalResult(exec.SubmitSimilarEntities(ereq).get(),
                          svc->SimilarEntities(ereq));
  }
  // Ask routes through the executor unbatched but still async.
  AskRequest ask{"overall survival months", 3};
  auto via_exec = exec.SubmitAsk(ask).get();
  auto direct = svc->Ask(ask);
  ASSERT_TRUE(via_exec.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_exec.value().answer, direct.value().answer);
  ASSERT_EQ(via_exec.value().tables.size(), direct.value().tables.size());
  for (size_t i = 0; i < direct.value().tables.size(); ++i) {
    EXPECT_EQ(via_exec.value().tables[i].table_id,
              direct.value().tables[i].table_id);
    EXPECT_EQ(via_exec.value().tables[i].score,
              direct.value().tables[i].score);
  }
  // Invalid requests come back as the same per-query error.
  ColumnQueryRequest bad{tables[0].id(), nullptr, 0, 0};  // k == 0
  auto bad_exec = exec.SubmitSimilarColumns(bad).get();
  auto bad_direct = svc->SimilarColumns(bad);
  EXPECT_FALSE(bad_exec.ok());
  EXPECT_EQ(bad_exec.status(), bad_direct.status());
}

TEST(AsyncExecutorTest, CoalescedBatchesByteIdenticalToSequential) {
  for (int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto svc = MakeLoadedServing(shards);
    GatedServing gated(svc.get());
    AsyncExecutor exec(&gated);
    const auto& tables = SharedCorpus().corpus.tables;

    // Hold the dispatcher on a plug query, queue 12 same-kind jobs,
    // then release: the 12 queued jobs form ONE batched ranking pass.
    auto plug = gated.Plug(exec, tables[0].id());
    std::vector<TableQueryRequest> reqs;
    std::vector<std::future<Result<QueryResponse>>> futs;
    for (size_t i = 0; i < 12; ++i) {
      TableQueryRequest req{tables[i % tables.size()].id(), nullptr,
                            3 + static_cast<int>(i % 4)};
      reqs.push_back(req);
      futs.push_back(exec.SubmitSimilarTables(req));
    }
    gated.Release();
    ExpectIdenticalResult(plug.get(),
                          svc->SimilarTables({tables[0].id(), nullptr, 3}));
    for (size_t i = 0; i < reqs.size(); ++i) {
      ExpectIdenticalResult(futs[i].get(), svc->SimilarTables(reqs[i]));
    }
    EXPECT_EQ(gated.calls(), (std::vector<size_t>{1, 12}));
    const auto stats = exec.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.batched_jobs, 13u);
    EXPECT_EQ(stats.max_batch_seen, 12u);

    // Interleaved kinds split into per-kind batches at the boundaries
    // (jobs are never reordered) and still answer identically.
    auto plug2 = gated.Plug(exec, tables[0].id());
    std::vector<ColumnQueryRequest> creqs;
    std::vector<EntityQueryRequest> ereqs;
    std::vector<std::future<Result<QueryResponse>>> cfuts, efuts;
    for (size_t i = 0; i < 4; ++i) {
      ColumnQueryRequest c{tables[i].id(), nullptr, 0, 4};
      EntityQueryRequest e{tables[i].id(), nullptr, 0, 0, 4};
      creqs.push_back(c);
      ereqs.push_back(e);
      cfuts.push_back(exec.SubmitSimilarColumns(c));
      efuts.push_back(exec.SubmitSimilarEntities(e));
    }
    gated.Release();
    EXPECT_TRUE(plug2.get().ok());
    for (size_t i = 0; i < 4; ++i) {
      ExpectIdenticalResult(cfuts[i].get(), svc->SimilarColumns(creqs[i]));
      ExpectIdenticalResult(efuts[i].get(), svc->SimilarEntities(ereqs[i]));
    }
    EXPECT_EQ(gated.calls().size(), 2u + 1u + 8u);
  }
}

// A batch is the run of same-kind Similar* jobs queued at the head of
// the lane: an Ask ends the run and executes alone, and a lone request
// is a batch of one.
TEST(AsyncExecutorTest, BatchesAreTheQueuedSameKindRuns) {
  auto svc = MakeLoadedServing(1);
  GatedServing gated(svc.get());
  AsyncExecutor exec(&gated);
  const auto& tables = SharedCorpus().corpus.tables;
  auto plug = gated.Plug(exec, tables[0].id());
  // Queued behind the running plug: a Similar* run broken by an Ask.
  auto a = exec.SubmitSimilarTables({tables[1].id(), nullptr, 3});
  auto b = exec.SubmitSimilarTables({tables[2].id(), nullptr, 3});
  auto ask = exec.SubmitAsk({"overall survival months", 3});
  auto c = exec.SubmitSimilarTables({tables[3].id(), nullptr, 3});
  gated.Release();
  for (auto* f : {&plug, &a, &b, &c}) EXPECT_TRUE(f->get().ok());
  EXPECT_TRUE(ask.get().ok());
  EXPECT_EQ(gated.calls(), (std::vector<size_t>{1, 2, 1, 1}));
  // Idle again: a lone request is dispatched by itself.
  EXPECT_TRUE(exec.SubmitSimilarTables({tables[4].id(), nullptr, 3})
                  .get()
                  .ok());
  EXPECT_EQ(gated.calls().back(), 1u);
}

TEST(AsyncExecutorTest, InlineQueryTablesAreCopiedIntoTheJob) {
  auto svc = MakeLoadedServing(1);
  GatedServing gated(svc.get());
  AsyncExecutor exec(&gated);
  auto plug = gated.Plug(exec, SharedCorpus().corpus.tables[0].id());
  std::future<Result<QueryResponse>> fut;
  Result<QueryResponse> direct = Status::Internal("unset");
  {
    // The inline table dies before the dispatcher ever runs the job;
    // the executor must have copied it at submit time.
    Table probe = SharedCorpus().corpus.tables[2];
    probe.set_caption("ephemeral inline probe");
    direct = svc->SimilarTables({"", &probe, 5});
    fut = exec.SubmitSimilarTables({"", &probe, 5});
  }
  gated.Release();
  EXPECT_TRUE(plug.get().ok());
  ExpectIdenticalResult(fut.get(), direct);
}

// --- Admission control ------------------------------------------------------

TEST(AsyncExecutorTest, OverflowRejectsImmediatelyWithResourceExhausted) {
  auto svc = MakeLoadedServing(1);
  GatedServing gated(svc.get());
  ExecutorOptions opts;
  opts.read_queue_depth = 4;
  AsyncExecutor exec(&gated, opts);
  // While the dispatcher is held on the plug no job leaves the queue,
  // so exactly `depth` submits are admitted and the next MUST be shed.
  const std::string id = SharedCorpus().corpus.tables[0].id();
  std::vector<std::future<Result<QueryResponse>>> admitted;
  admitted.push_back(gated.Plug(exec, id));
  for (size_t i = 0; i < 4; ++i) {
    admitted.push_back(exec.SubmitSimilarTables({id, nullptr, 3}));
  }
  auto shed = exec.SubmitSimilarTables({id, nullptr, 3});
  // The rejection is synchronous — the future is ready the moment
  // Submit returns, without waiting on the (held!) dispatcher.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto r = shed.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exec.stats().rejected, 1u);
  // The admitted jobs were not harmed by the shed one.
  gated.Release();
  for (auto& f : admitted) {
    auto ar = f.get();
    EXPECT_TRUE(ar.ok()) << ar.status().ToString();
  }
  EXPECT_EQ(exec.stats().submitted, 5u);  // the plug and 4 queued
}

// --- Write fairness ---------------------------------------------------------

// The PR-3 starvation scenario, now with NO sleep throttling anywhere:
// readers submit queries at 100% duty while a writer streams insert
// batches through the dedicated write lane. Because the dispatcher
// serializes read batches, every shard's reader count reaches zero
// between batches, and the writer finishes — pre-executor, 100%-duty
// readers on a reader-preferring rwlock could starve writers
// indefinitely (the old test had to sleep 200us per read to let the
// writer through).
TEST(AsyncExecutorTest, WriterLaneProgressesUnderFullDutyReaders) {
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t base = 8;  // always-live probe set; the rest streams in
  auto svc = std::make_unique<TabBinService>(SharedSystem(), ServiceOptions{},
                                             /*num_shards=*/4);
  ASSERT_TRUE(svc->AddTables(std::vector<Table>(tables.begin(),
                                                tables.begin() + base))
                  .ok());
  AsyncExecutor exec(svc.get());

  std::atomic<bool> writes_done{false};
  std::atomic<uint64_t> reads_ok{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t) % base;
      while (!writes_done.load(std::memory_order_acquire)) {
        auto r =
            exec.SubmitSimilarTables({tables[i].id(), nullptr, 3}).get();
        // Full-duty load may legitimately shed at the admission edge;
        // any other failure is a real bug.
        if (r.ok()) {
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        }
        i = (i + 1) % base;
      }
    });
  }

  // Stream the remaining tables through the write lane, one batch at a
  // time; every batch must complete despite the full-duty read load.
  uint64_t write_batches = 0;
  for (size_t i = base; i < tables.size(); i += 2) {
    const size_t end = std::min(i + 2, tables.size());
    auto report = exec.SubmitAddTables(std::vector<Table>(
                                           tables.begin() + i,
                                           tables.begin() + end))
                      .get();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ++write_batches;
  }
  writes_done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(svc->NumLiveTables(), tables.size());
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(exec.stats().writes, write_batches);
}

// --- Shutdown ---------------------------------------------------------------

TEST(AsyncExecutorTest, ShutdownDrainsAdmittedJobsThenRejects) {
  auto svc = MakeLoadedServing(1);
  GatedServing gated(svc.get());
  auto exec = std::make_unique<AsyncExecutor>(&gated);
  const std::string id = SharedCorpus().corpus.tables[0].id();
  std::vector<std::future<Result<QueryResponse>>> futs;
  futs.push_back(gated.Plug(*exec, id));
  for (size_t i = 0; i < 6; ++i) {
    futs.push_back(exec->SubmitSimilarTables({id, nullptr, 3}));
  }
  // Close the lanes while the dispatcher is held with six jobs queued:
  // the first submit that is refused shows the close has happened
  // (ones admitted before it join the drain).
  std::thread closer([&exec] { exec->Shutdown(); });
  for (;;) {
    auto f = exec->SubmitSimilarTables({id, nullptr, 3});
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(f.get().status().code(), StatusCode::kResourceExhausted);
      break;
    }
    futs.push_back(std::move(f));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shutdown drains every queued job before it joins — an admitted
  // job's promise is never abandoned.
  gated.Release();
  closer.join();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  // Post-shutdown submits shed immediately on both lanes.
  auto late_read = exec->SubmitSimilarTables({id, nullptr, 3}).get();
  EXPECT_EQ(late_read.status().code(), StatusCode::kResourceExhausted);
  auto late_write = exec->SubmitRemoveTable(id).get();
  EXPECT_EQ(late_write.code(), StatusCode::kResourceExhausted);
  exec->Shutdown();  // idempotent
}

TEST(AsyncExecutorTest, RemoveTableRoutesThroughWriteLane) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  EXPECT_TRUE(exec.SubmitRemoveTable(id).get().ok());
  EXPECT_EQ(exec.SubmitRemoveTable(id).get().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc->NumLiveTables(), SharedCorpus().corpus.tables.size() - 1);
}

}  // namespace
}  // namespace tabbin
