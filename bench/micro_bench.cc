// Microbenchmarks (google-benchmark) for the hot paths of the library:
// tokenization, sequence building, visibility-matrix construction,
// encoder forward passes, LSH queries, cosine ranking, and the
// TabBinService serving paths (query QPS, incremental vs rebuild).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include <map>
#include <mutex>

#include "bench/common.h"
#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "tasks/clustering.h"
#include "tasks/lsh.h"
#include "tensor/kernels.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "text/wordpiece.h"
#include "util/threadpool.h"

namespace tabbin {
namespace {

const LabeledCorpus& SharedCorpus() {
  static const LabeledCorpus* corpus = [] {
    GeneratorOptions opts;
    opts.num_tables = 40;
    return new LabeledCorpus(GenerateDataset("cancerkg", opts));
  }();
  return *corpus;
}

TabBiNSystem& SharedSystem() {
  static TabBiNSystem* sys = [] {
    TabBiNConfig cfg;
    cfg.hidden = 36;
    cfg.num_layers = 1;
    cfg.num_heads = 2;
    cfg.intermediate = 72;
    cfg.max_seq_len = 96;
    return new TabBiNSystem(
        TabBiNSystem::Create(SharedCorpus().corpus.tables, cfg));
  }();
  return *sys;
}

void BM_Tokenize(benchmark::State& state) {
  Vocab vocab = TrainWordPieceVocab(
      {"median overall survival months progression free"}, 500, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TokenizeToIds("median overall survival 20.3 months", vocab));
  }
}
BENCHMARK(BM_Tokenize);

void BM_BuildSequence(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const Table& t = SharedCorpus().corpus.tables[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSequence(t, TabBiNVariant::kDataRow,
                                           sys.vocab(), *sys.typer(),
                                           sys.config()));
  }
}
BENCHMARK(BM_BuildSequence);

void BM_VisibilityMatrix(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const Table& t = SharedCorpus().corpus.tables[0];
  EncodedSequence seq = BuildSequence(t, TabBiNVariant::kDataRow, sys.vocab(),
                                      *sys.typer(), sys.config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSequenceVisibility(seq));
  }
  state.SetLabel("seq_len=" + std::to_string(seq.size()));
}
BENCHMARK(BM_VisibilityMatrix);

void BM_EncoderForward(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const Table& t = SharedCorpus().corpus.tables[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.EncodeSegment(t, TabBiNVariant::kDataRow));
  }
}
BENCHMARK(BM_EncoderForward);

void BM_ColumnComposite(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const Table& t = SharedCorpus().corpus.tables[0];
  TableEncodings enc = sys.EncodeAll(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.ColumnComposite(enc, t.vmd_cols()));
  }
}
BENCHMARK(BM_ColumnComposite);

// Serial baseline: EncodeAll per table, one after another.
void BM_EncodeAllSerial(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t n = std::min<size_t>(tables.size(), 8);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(sys.EncodeAll(tables[i]));
    }
  }
  state.SetLabel("tables=" + std::to_string(n));
}
BENCHMARK(BM_EncodeAllSerial)->Unit(benchmark::kMillisecond);

// Batched: the same tables through EncoderEngine::EncodeBatch on the
// global thread pool. A fresh engine per iteration so the cache never
// serves a hit — this measures parallel encoding, not memoization.
void BM_EncodeAllBatched(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t n = std::min<size_t>(tables.size(), 8);
  std::vector<const Table*> batch;
  for (size_t i = 0; i < n; ++i) batch.push_back(&tables[i]);
  for (auto _ : state) {
    EncoderEngine engine(&sys, n);
    benchmark::DoNotOptimize(engine.EncodeBatch(batch));
  }
  state.SetLabel("tables=" + std::to_string(n) + " workers=" +
                 std::to_string(ThreadPool::Global().num_threads()));
}
BENCHMARK(BM_EncodeAllBatched)->Unit(benchmark::kMillisecond);

// Steady-state cost of an engine cache hit (fingerprint + LRU touch).
void BM_EncoderEngineCacheHit(benchmark::State& state) {
  TabBiNSystem& sys = SharedSystem();
  const Table& t = SharedCorpus().corpus.tables[0];
  EncoderEngine engine(&sys, 4);
  engine.Encode(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Encode(t));
  }
}
BENCHMARK(BM_EncoderEngineCacheHit);

std::shared_ptr<TabBiNSystem> SharedSystemPtr() {
  // Aliases the function-static system; never deleted, so the no-op
  // deleter is safe.
  static std::shared_ptr<TabBiNSystem> sys(&SharedSystem(),
                                           [](TabBiNSystem*) {});
  return sys;
}

TabBinService& SharedService() {
  static TabBinService* svc = [] {
    auto* s = new TabBinService(SharedSystemPtr());
    if (!s->AddTables(SharedCorpus().corpus.tables).ok()) std::abort();
    return s;
  }();
  return *svc;
}

// Query throughput through the serving facade: LSH candidates + exact
// cosine under the reader lock. ->Threads(8) reports aggregate 8-thread
// QPS against the same service instance (items/s is the QPS figure).
void BM_ServiceSimilarColumns(benchmark::State& state) {
  TabBinService& svc = SharedService();
  const auto& tables = SharedCorpus().corpus.tables;
  // Spread threads across query tables so the engine cache, not one
  // hot entry, is what's exercised.
  const Table& t = tables[static_cast<size_t>(state.thread_index()) %
                          tables.size()];
  ColumnQueryRequest req{t.id(), nullptr, t.vmd_cols(), 10};
  for (auto _ : state) {
    auto r = svc.SimilarColumns(req);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceSimilarColumns)->Threads(1)->Threads(8);

// Incremental corpus update: one new table encoded and inserted into
// the live indexes (no rebuild).
void BM_ServiceAddTablesIncremental(benchmark::State& state) {
  TabBinService svc(SharedSystemPtr());
  if (!svc.AddTables(SharedCorpus().corpus.tables).ok()) std::abort();
  int64_t n = 0;
  for (auto _ : state) {
    Table t = SharedCorpus().corpus.tables[0];
    // Fresh content every iteration so the engine cache cannot serve it.
    t.set_id("inc-" + std::to_string(n));
    t.set_caption("incremental table " + std::to_string(n));
    ++n;
    benchmark::DoNotOptimize(svc.AddTables({t}));
  }
  state.SetLabel("live=" + std::to_string(svc.NumLiveTables()));
}
BENCHMARK(BM_ServiceAddTablesIncremental)->Unit(benchmark::kMillisecond);

// The alternative the facade replaces: re-encoding and re-indexing the
// whole corpus from scratch on every change (fresh service, cold cache).
void BM_ServiceFullRebuild(benchmark::State& state) {
  const auto& tables = SharedCorpus().corpus.tables;
  for (auto _ : state) {
    TabBinService svc(SharedSystemPtr());
    benchmark::DoNotOptimize(svc.AddTables(tables));
  }
  state.SetLabel("tables=" + std::to_string(tables.size()));
}
BENCHMARK(BM_ServiceFullRebuild)->Unit(benchmark::kMillisecond);

// A corpus sized so per-query ranking work (LSH probe + exact cosine)
// dominates the per-shard fixed costs; the 40-table SharedCorpus would
// leave ~5 tables per shard and measure lock overhead only.
const std::vector<Table>& MixedBenchCorpus() {
  static const std::vector<Table>* tables = [] {
    GeneratorOptions opts;
    opts.num_tables = 120;
    opts.seed = 23;
    return new std::vector<Table>(
        GenerateDataset("cancerkg", opts).corpus.tables);
  }();
  return *tables;
}

// One service per shard count, shared across the benchmark's threads
// (lazily built under a mutex — benchmark threads all race into the
// first iteration).
TabBinService& SharedShardedService(int shards) {
  static std::mutex mu;
  static auto* services = new std::map<int, std::unique_ptr<TabBinService>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*services)[shards];
  if (!slot) {
    ServiceOptions opts;
    opts.encoder_cache_capacity = MixedBenchCorpus().size() + 16;
    slot = std::make_unique<TabBinService>(SharedSystemPtr(), opts, shards);
    if (!slot->AddTables(MixedBenchCorpus()).ok()) std::abort();
  }
  return *slot;
}

// Mixed read/write serving load — the workload sharding exists for.
// Thread 0 churns one dedicated table id (add + remove per iteration;
// the content repeats, so encodes are engine cache hits and the
// measured cost is the write path itself) while the remaining threads
// stream SimilarColumns queries across the whole corpus. With one
// shard, every write serializes all readers behind a single writer
// lock; with 8 shards only readers hitting the writer's shard ever
// wait. items/s is the aggregate mixed-op throughput — compare the
// shards=1 and shards=8 rows at ->Threads(8). The sharded row needs
// real hardware parallelism to pull ahead: on a single-core host the 8
// benchmark threads timeshare one CPU, rwlock contention (the PR 3
// writer-starvation pathology) cannot manifest, and the per-shard
// fan-out is pure overhead. Iterations are pinned so both
// configurations accumulate the same number of tombstoned slots
// (writer churn appends dead rows until the next Compact).
void BM_ServiceMixedReadWrite(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  TabBinService& svc = SharedShardedService(shards);
  const auto& tables = MixedBenchCorpus();
  if (state.thread_index() == 0) {
    Table churn = tables[0];
    churn.set_id("churn-" + std::to_string(shards));
    churn.set_caption("churn table");
    for (auto _ : state) {
      benchmark::DoNotOptimize(svc.AddTables({churn}));
      benchmark::DoNotOptimize(svc.RemoveTable(churn.id()));
    }
    // No Compact here: benchmark threads leave their timed loops at
    // different times, and a writer-locked rebuild would land inside
    // the readers' measurements. The pinned iteration count bounds the
    // tombstone growth identically for both shard configurations.
  } else {
    size_t i = static_cast<size_t>(state.thread_index());
    for (auto _ : state) {
      const Table& t = tables[i % tables.size()];
      i += 7;  // stride so threads spread over tables (and shards)
      auto r = svc.SimilarColumns({t.id(), nullptr, t.vmd_cols(), 10});
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("shards=" + std::to_string(shards));
}
BENCHMARK(BM_ServiceMixedReadWrite)
    ->Arg(1)
    ->Arg(8)
    ->Threads(8)
    ->Iterations(400)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

using bench::PerPairCosineBaseline;

struct CandidateFixture {
  EmbeddingMatrix matrix;
  std::vector<int> candidates;
  std::vector<float> query;
};

// A serving-shaped candidate set: 2000 indexed rows, 500 LSH survivors.
const CandidateFixture& SharedCandidates() {
  static const CandidateFixture* fx = [] {
    auto* f = new CandidateFixture();
    Rng rng(7);
    const size_t dim = 72;
    for (int i = 0; i < 2000; ++i) {
      std::vector<float> v(dim);
      for (auto& x : v) x = static_cast<float>(rng.Gaussian());
      f->matrix.AppendRow(v);
    }
    for (int i = 0; i < 500; ++i) {
      f->candidates.push_back(
          static_cast<int>(rng.Uniform(f->matrix.rows())));
    }
    f->query.resize(dim);
    for (auto& x : f->query) x = static_cast<float>(rng.Gaussian());
    return f;
  }();
  return *fx;
}

// Candidate scoring, old path: one per-pair call per candidate. items/s
// is candidates scored per second — compare against the batched row.
void BM_CandidateScoringPerPair(benchmark::State& state) {
  const CandidateFixture& fx = SharedCandidates();
  for (auto _ : state) {
    float sum = 0.0f;
    for (int id : fx.candidates) {
      sum += PerPairCosineBaseline(fx.query,
                                   fx.matrix.row(static_cast<size_t>(id)));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.candidates.size()));
  state.SetLabel("per-pair baseline");
}
BENCHMARK(BM_CandidateScoringPerPair);

// Candidate scoring, new path: ONE norm-free batched kernel pass over
// the candidate rows (cached inverse norms). This is exactly what
// ServiceShard::RankLocked / AskCandidates, clustering, and RAG dense
// retrieval now execute.
void BM_CandidateScoringBatchedKernel(benchmark::State& state) {
  const CandidateFixture& fx = SharedCandidates();
  const float inv_q =
      kernels::InvNorm(fx.query.data(), fx.query.size());
  std::vector<float> scores(fx.candidates.size());
  for (auto _ : state) {
    kernels::BatchedCosineRows(fx.query.data(), inv_q, fx.matrix.data(),
                               fx.matrix.cols(), fx.candidates.data(),
                               fx.candidates.size(), fx.matrix.inv_norms(),
                               scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.candidates.size()));
  state.SetLabel(std::string("dispatch=") + kernels::ActiveName());
}
BENCHMARK(BM_CandidateScoringBatchedKernel);

// First-pass scan fixture: large enough (60k x 72 floats ~= 17 MB) that
// the scan is memory-bound — the regime the int8 tier targets, where its
// 4x smaller row bytes translate into scan throughput rather than just
// saved ALU work.
struct ScanFixture {
  EmbeddingMatrix matrix;
  std::vector<float> query;
  std::vector<int> rows;
};

const ScanFixture& SharedScan() {
  static const ScanFixture* fx = [] {
    auto* f = new ScanFixture();
    const size_t n = 60000, dim = 72;
    Rng rng(7);
    f->matrix.Reserve(n);
    std::vector<float> v(dim);
    for (size_t i = 0; i < n; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Gaussian());
      f->matrix.AppendRow(v);
    }
    f->matrix.EnableQuantization();
    f->query.resize(dim);
    for (auto& x : f->query) x = static_cast<float>(rng.Gaussian());
    f->rows.resize(n);
    for (size_t i = 0; i < n; ++i) f->rows[i] = static_cast<int>(i);
    return f;
  }();
  return *fx;
}

// Exact float first pass over every row — the cost the quantized scan
// replaces. items/s = rows scanned per second.
void BM_FloatScan(benchmark::State& state) {
  const ScanFixture& fx = SharedScan();
  const float inv_q = kernels::InvNorm(fx.query.data(), fx.query.size());
  std::vector<float> scores(fx.rows.size());
  for (auto _ : state) {
    kernels::BatchedCosineRows(fx.query.data(), inv_q, fx.matrix.data(),
                               fx.matrix.cols(), fx.rows.data(),
                               fx.rows.size(), fx.matrix.inv_norms(),
                               scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.rows.size()));
  state.SetLabel(std::string("dispatch=") + kernels::ActiveName());
}
BENCHMARK(BM_FloatScan);

// Int8 first pass over the same rows (query quantized once per scan,
// as ServiceShard::RankLocked does). Reads 1/4 of the bytes.
void BM_QuantizedScan(benchmark::State& state) {
  const ScanFixture& fx = SharedScan();
  const QuantizedQuery qq =
      MakeQuantizedQuery(VecView(fx.query.data(), fx.query.size()));
  std::vector<float> scores(fx.rows.size());
  for (auto _ : state) {
    QuantizedCosineRows(fx.matrix, qq, fx.rows.data(), fx.rows.size(),
                        scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.rows.size()));
  state.SetLabel(std::string("dispatch=") + kernels::ActiveName());
}
BENCHMARK(BM_QuantizedScan);

// The blocked GEMM micro-kernel at the encoder's shapes, n x k x m for
// a 96-token segment at the serving geometry (hidden 36, 2 heads of 18,
// intermediate 72): Q/K/V/O projections 96x36x36, attention scores
// 96x18x96, attention x V 96x96x18, FFN 96x36x72 and 96x72x36, plus the
// older 96x72x72 row.
void BM_KernelGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  Rng rng(8);
  std::vector<float> a(static_cast<size_t>(n) * k);
  std::vector<float> b(static_cast<size_t>(k) * m);
  for (auto& x : a) x = static_cast<float>(rng.Gaussian());
  for (auto& x : b) x = static_cast<float>(rng.Gaussian());
  std::vector<float> c(static_cast<size_t>(n) * m);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    kernels::Gemm(a.data(), b.data(), c.data(), n, k, m);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<int64_t>(n) * k * m);  // FLOPs
  state.SetLabel(std::string("dispatch=") + kernels::ActiveName());
}
BENCHMARK(BM_KernelGemm)
    ->ArgNames({"n", "k", "m"})
    ->Args({96, 72, 72})
    ->Args({96, 36, 36})
    ->Args({96, 18, 96})
    ->Args({96, 96, 18})
    ->Args({96, 36, 72})
    ->Args({96, 72, 36});

// One encoder layer at the serving geometry on a 96-token segment with
// its visibility bias: the tape-free inference forward (tape=0) next to
// the autograd ops it reproduces bit for bit (tape=1, run under a
// NoGradGuard as inference ran before the tape-free path existed).
void BM_EncoderLayerForward(benchmark::State& state) {
  const bool tape = state.range(0) != 0;
  const int n = 96, hidden = 36;
  TabBiNSystem& sys = SharedSystem();
  EncodedSequence seq;
  for (const Table& t : SharedCorpus().corpus.tables) {
    EncodedSequence s = BuildSequence(t, TabBiNVariant::kDataRow, sys.vocab(),
                                      *sys.typer(), sys.config());
    seq.tokens.insert(seq.tokens.end(), s.tokens.begin(), s.tokens.end());
    if (seq.size() >= n) break;
  }
  seq.tokens.resize(static_cast<size_t>(n));
  std::vector<float> bias(static_cast<size_t>(n) * n);
  BuildSequenceVisibility(seq).FillAttentionBias(bias.data());
  const Tensor bias_t = Tensor::FromData({n, n}, bias);
  Rng rng(3);
  TransformerEncoderLayer layer(hidden, 2, 72, &rng);
  std::vector<float> x0(static_cast<size_t>(n) * hidden);
  for (auto& x : x0) x = static_cast<float>(rng.Gaussian());
  std::vector<float> x(x0.size());
  InferenceWorkspace& ws = InferenceWorkspace::ForThisThread();
  NoGradGuard guard;
  for (auto _ : state) {
    if (tape) {
      Tensor out = layer.Forward(Tensor::FromData({n, hidden}, x0), &bias_t,
                                 0.0f, nullptr, /*training=*/false);
      benchmark::DoNotOptimize(out.data());
    } else {
      x = x0;
      layer.ForwardInference(x.data(), n, bias.data(), &ws);
      benchmark::DoNotOptimize(x.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_EncoderLayerForward)->ArgName("tape")->Arg(0)->Arg(1);

void BM_LshQuery(benchmark::State& state) {
  const int dim = 72;
  Rng rng(5);
  LshIndex index(dim, 8, 12);
  std::vector<float> probe(dim);
  for (int i = 0; i < 2000; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    if (!index.Insert(i, v).ok()) std::abort();
    if (i == 0) probe = v;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(probe));
  }
}
BENCHMARK(BM_LshQuery);

// The serving regime: embedding rows share a dominant direction, so a
// probe collides with most of the index (pool_frac is the mean pool size
// over the index size; serving corpora sit near 0.65). BM_LshQuery's
// isotropic rows keep pools at a few percent.
void BM_LshQueryClustered(benchmark::State& state) {
  const int dim = 72, rows = 20000, clusters = 8;
  Rng rng(9);
  LshIndex index(dim, 8, 12);
  std::vector<float> shared(dim);
  for (auto& x : shared) x = static_cast<float>(rng.Gaussian());
  std::vector<std::vector<float>> centers(clusters, shared);
  for (auto& c : centers) {
    for (auto& x : c) x += 0.7f * static_cast<float>(rng.Gaussian());
  }
  std::vector<std::vector<float>> probes;
  for (int i = 0; i < rows; ++i) {
    std::vector<float> v = centers[static_cast<size_t>(i % clusters)];
    for (auto& x : v) x += 0.1f * static_cast<float>(rng.Gaussian());
    if (!index.Insert(i, v).ok()) std::abort();
    if (i < 64) probes.push_back(std::move(v));
  }
  size_t next = 0, pooled = 0, queries = 0;
  for (auto _ : state) {
    const std::vector<int> pool = index.Query(probes[next]);
    next = (next + 1) % probes.size();
    pooled += pool.size();
    ++queries;
    benchmark::DoNotOptimize(pool.data());
  }
  state.counters["pool_frac"] =
      static_cast<double>(pooled) / static_cast<double>(queries) / rows;
}
BENCHMARK(BM_LshQueryClustered);

void BM_CosineRanking(benchmark::State& state) {
  Rng rng(6);
  LabeledEmbeddingSet items;
  for (int i = 0; i < 500; ++i) {
    std::vector<float> v(72);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    items.Add(v, "l" + std::to_string(i % 5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankBySimilarity(items, 0));
  }
}
BENCHMARK(BM_CosineRanking);

}  // namespace
}  // namespace tabbin

BENCHMARK_MAIN();
