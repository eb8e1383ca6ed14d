#include "bench/serving/loadgen.h"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "datagen/corpus_gen.h"
#include "exec/executor.h"
#include "util/rng.h"

namespace tabbin {
namespace servingbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTopK = 10;
constexpr int kQuestions = 256;
// Id-addressed kind mix; entities take the rest.
constexpr double kColumnShare = 0.4;
constexpr double kTableShare = 0.3;

double ExpGap(Rng& rng, double qps) {
  return -std::log(1.0 - rng.UniformDouble()) / qps;
}

int64_t ToNs(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e9));
}

// P(rank r) proportional to 1 / r over n ranks.
std::vector<double> ZipfCdf(int n) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double acc = 0;
  for (int r = 1; r <= n; ++r) {
    acc += 1.0 / r;
    cdf[static_cast<size_t>(r - 1)] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

int ZipfDraw(Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1));
}

std::string Question(Rng& rng, const std::vector<Table>& corpus) {
  const Table& t = corpus[rng.Uniform(corpus.size())];
  std::string header;
  if (t.hmd_rows() > 0 && t.data_cols() > 0) {
    const int c = t.vmd_cols() + static_cast<int>(rng.Uniform(
                                     static_cast<uint64_t>(t.data_cols())));
    const Cell& cell = t.cell(0, c);
    if (cell.value.kind() == ValueKind::kString) header = cell.value.text();
  }
  return header.empty() ? t.caption() : header + " " + t.caption();
}

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

void HashString(uint64_t* h, const std::string& s) {
  const uint64_t n = s.size();
  HashBytes(h, &n, sizeof(n));
  HashBytes(h, s.data(), s.size());
}

template <typename T>
void HashValue(uint64_t* h, T v) {
  HashBytes(h, &v, sizeof(v));
}

// Request indexes of one executor lane, in submission order, plus the
// count the sender has published so far.
class Lane {
 public:
  void Add(size_t i) { order_.push_back(i); }
  size_t size() const { return order_.size(); }

  void Publish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++published_;
    }
    cv_.notify_one();
  }

  /// Blocks until the j-th request of this lane has been submitted.
  size_t Await(size_t j) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return published_ > j; });
    return order_[j];
  }

 private:
  std::vector<size_t> order_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t published_ = 0;
};

// The generator's threads sleep almost all the time. Asking the
// scheduler for a short slice (EEVDF's per-task slice request, Linux
// 6.6 and later; unprivileged) lets their wake-ups preempt the
// service's busy threads instead of queueing behind a default slice,
// so requests leave on schedule and completions are stamped when they
// happen. 0 restores the default. Ignored where unsupported.
void RequestSchedulerSlice(uint64_t ns) {
  struct {
    uint32_t size;
    uint32_t sched_policy;
    uint64_t sched_flags;
    int32_t sched_nice;
    uint32_t sched_priority;
    uint64_t sched_runtime;
    uint64_t sched_deadline;
    uint64_t sched_period;
  } attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.sched_policy = SCHED_OTHER;
  attr.sched_runtime = ns;
  syscall(SYS_sched_setattr, 0, &attr, 0);
}

constexpr uint64_t kGeneratorSliceNs = 100000;

Code Classify(const Status& st) {
  if (st.ok()) return Code::kOk;
  return st.code() == StatusCode::kResourceExhausted ? Code::kShed
                                                     : Code::kError;
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x9E3779B97F4A7C15ULL + stream);
  return mix.Next();
}

std::vector<Table> GenerateTables(int n, uint64_t seed,
                                  const char* id_prefix) {
  GeneratorOptions g;
  g.num_tables = n;
  g.seed = seed;
  std::vector<Table> tables = GenerateDataset("cancerkg", g).corpus.tables;
  if (id_prefix != nullptr) {
    for (size_t i = 0; i < tables.size(); ++i) {
      tables[i].set_id(std::string(id_prefix) + std::to_string(i));
    }
  }
  return tables;
}

void ApplyKnobs(TabBinServing& serving, const WorkloadSpec& spec) {
  if (spec.cold) {
    serving.SetQuantizedScan(true, kColdShortlistMultiplier);
    serving.SetIndexKind(kIndexHnsw, kColdEfSearch);
  } else {
    serving.SetQuantizedScan(false);
    serving.SetIndexKind(kIndexLsh);
  }
}

double WorkloadSpec::seconds() const {
  double s = 0;
  for (const Step& st : steps) s += st.seconds;
  return s;
}

WorkloadSpec MakeSpec(const std::string& name, double seconds) {
  WorkloadSpec s;
  // Warm workloads run 2 s of traffic before the measured seconds.
  const double warmup = 2;
  if (name == "point_small") {
    s.tables = 200;
    s.warmup_s = warmup;
    s.steps = {{200, warmup + seconds}};
  } else if (name == "ladder_large") {
    s.tables = 2000;
    s.shards = 4;
    s.warmup_s = warmup;
    // 40% of the measured time at the base rate (the read metrics'
    // interval), the rest split evenly over the seven higher steps.
    const double rates[] = {250, 350, 500, 700, 1000, 1400, 2000, 2800};
    for (const double q : rates) s.steps.push_back({q, seconds * 0.6 / 7});
    s.steps[0].seconds = warmup + seconds * 0.4;
  } else if (name == "adhoc_churn") {
    s.tables = 2000;
    s.warmup_s = warmup;
    // 100 qps keeps the single dispatcher well below saturation: near
    // it, queueing multiplies every change in per-request cost (and in
    // host speed) several-fold and the median stops being repeatable.
    s.steps = {{100, warmup + seconds}};
    s.share_inline = 0.3;
    s.share_ask = 0.3;
    s.adhoc_pool = 3000;
    s.write_qps = 40;
    // One Compact() in the middle of every metric window, so every
    // window's tail carries one compaction stall.
    for (int w = 0; w < kWindows; ++w) {
      s.compact_at_s.push_back(warmup + (w + 0.5) * seconds / kWindows);
    }
  } else if (name == "cold_hnsw") {
    s.tables = 4000;
    s.shards = 4;
    s.cold = true;
    s.steps = {{400, seconds}};
  } else {
    return WorkloadSpec{};
  }
  s.name = name;
  return s;
}

std::vector<std::pair<int, int>> IndexedEntityCells(const Table& t,
                                                    int budget) {
  std::vector<std::pair<int, int>> cells;
  for (int r = t.hmd_rows(); r < t.rows(); ++r) {
    for (int c = t.vmd_cols(); c < t.cols(); ++c) {
      if (static_cast<int>(cells.size()) >= budget) return cells;
      const Cell& cell = t.cell(r, c);
      if (cell.has_nested() || cell.value.kind() != ValueKind::kString) {
        continue;
      }
      cells.emplace_back(r, c);
    }
  }
  return cells;
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.corpus = GenerateTables(spec.tables, StreamSeed(seed, 1), nullptr);
  if (spec.adhoc_pool > 0) {
    in.adhoc = GenerateTables(spec.adhoc_pool, StreamSeed(seed, 2), "adhoc-");
  }
  if (spec.write_qps > 0) {
    // Adds are about half the writes; the margin covers Poisson excess.
    const int n = static_cast<int>(spec.write_qps * spec.seconds()) + 32;
    in.fresh = GenerateTables(n, StreamSeed(seed, 3), "fresh-");
  }

  Rng rng(StreamSeed(seed, 4));
  for (int i = 0; i < kQuestions; ++i) {
    in.questions.push_back(Question(rng, in.corpus));
  }

  // Id-addressed targets are indexed items only, so they are served
  // from stored rows and never run the encoder.
  const int entity_budget = ServiceOptions{}.max_entities_per_table;
  std::vector<int> with_cols;
  std::vector<int> with_ents;
  std::vector<std::vector<std::pair<int, int>>> ent_cells(in.corpus.size());
  for (size_t i = 0; i < in.corpus.size(); ++i) {
    if (in.corpus[i].data_cols() > 0) with_cols.push_back(static_cast<int>(i));
    ent_cells[i] = IndexedEntityCells(in.corpus[i], entity_budget);
    if (!ent_cells[i].empty()) with_ents.push_back(static_cast<int>(i));
  }
  const std::vector<double> zipf =
      spec.adhoc_pool > 0 ? ZipfCdf(spec.adhoc_pool) : std::vector<double>{};
  const auto id_addressed = [&](Request* r) {
    const double u = rng.UniformDouble();
    if (u < kColumnShare) {
      r->kind = Kind::kColumns;
      r->table = with_cols[rng.Uniform(with_cols.size())];
      const Table& t = in.corpus[static_cast<size_t>(r->table)];
      r->col = t.vmd_cols() + static_cast<int>(rng.Uniform(
                                  static_cast<uint64_t>(t.data_cols())));
    } else if (u < kColumnShare + kTableShare) {
      r->kind = Kind::kTables;
      r->table = static_cast<int>(rng.Uniform(in.corpus.size()));
    } else {
      r->kind = Kind::kEntities;
      r->table = with_ents[rng.Uniform(with_ents.size())];
      const auto& cells = ent_cells[static_cast<size_t>(r->table)];
      const auto& cell = cells[rng.Uniform(cells.size())];
      r->row = cell.first;
      r->col = cell.second;
    }
  };

  // Read stream: Poisson arrivals per step; kinds drawn independently
  // per request, so same-kind runs reach the coalescer at their natural
  // length.
  double step_start = 0;
  for (size_t s = 0; s < spec.steps.size(); ++s) {
    const Step& step = spec.steps[s];
    const double end = step_start + step.seconds;
    for (double t = step_start + ExpGap(rng, step.qps); t < end;
         t += ExpGap(rng, step.qps)) {
      Request r;
      r.at_ns = ToNs(t);
      r.step = static_cast<int>(s);
      const double u = rng.UniformDouble();
      if (u < spec.share_ask) {
        r.kind = Kind::kAsk;
        r.question = static_cast<int>(rng.Uniform(in.questions.size()));
      } else if (u < spec.share_ask + spec.share_inline) {
        r.inline_table = true;
        r.table = ZipfDraw(rng, zipf);
        const Table& t = in.adhoc[static_cast<size_t>(r.table)];
        if (rng.Bernoulli(0.5) || t.data_cols() == 0) {
          r.kind = Kind::kTables;
        } else {
          r.kind = Kind::kColumns;
          r.col = t.vmd_cols() + static_cast<int>(rng.Uniform(
                                     static_cast<uint64_t>(t.data_cols())));
        }
      } else {
        id_addressed(&r);
      }
      in.requests.push_back(r);
    }
    step_start = end;
  }

  // Write stream: each write adds the next fresh table or removes the
  // oldest one still live (tracked here, at generation time).
  if (spec.write_qps > 0) {
    std::deque<int> live;
    int next_fresh = 0;
    const double end = spec.seconds();
    for (double t = ExpGap(rng, spec.write_qps); t < end;
         t += ExpGap(rng, spec.write_qps)) {
      Request r;
      r.at_ns = ToNs(t);
      const bool can_add = next_fresh < static_cast<int>(in.fresh.size());
      if (can_add && (live.empty() || rng.Bernoulli(0.5))) {
        r.kind = Kind::kAdd;
        r.table = next_fresh++;
        live.push_back(r.table);
      } else if (!live.empty()) {
        r.kind = Kind::kRemove;
        r.table = live.front();
        live.pop_front();
      } else {
        continue;
      }
      in.requests.push_back(r);
    }
  }
  std::stable_sort(in.requests.begin(), in.requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.at_ns < b.at_ns;
                   });
  return in;
}

uint64_t Digest(const Inputs& in) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto* pool : {&in.corpus, &in.adhoc, &in.fresh}) {
    HashValue(&h, pool->size());
    for (const Table& t : *pool) {
      HashString(&h, t.id());
      HashString(&h, t.caption());
    }
  }
  for (const std::string& q : in.questions) HashString(&h, q);
  for (const Request& r : in.requests) {
    HashValue(&h, r.at_ns);
    HashValue(&h, static_cast<int>(r.kind));
    HashValue(&h, r.step);
    HashValue(&h, r.inline_table);
    HashValue(&h, r.table);
    HashValue(&h, r.row);
    HashValue(&h, r.col);
    HashValue(&h, r.question);
  }
  return h;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool MeetsSlo(const StepStats& s) {
  return s.ok > 0 && s.failed == 0 && s.p99_ms <= kSloP99Ms &&
         s.last_p50_ms <= 2 * s.first_p50_ms;
}

int CapacityStep(const std::vector<StepStats>& steps) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (MeetsSlo(steps[i])) best = static_cast<int>(i);
  }
  return best;
}

double WindowedPercentile(const std::vector<Timed>& samples, double from,
                          double to, double p, double across) {
  const double width = (to - from) / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (const auto& [at, value] : samples) {
    if (at < from || at >= to) continue;
    const int w = std::min(kWindows - 1, static_cast<int>((at - from) / width));
    windows[static_cast<size_t>(w)].push_back(value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(std::move(w), p));
  }
  return Percentile(std::move(per_window), across);
}

std::vector<size_t> ReadWindow(const Inputs& in, const WorkloadSpec& spec) {
  std::vector<size_t> w;
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const Request& r = in.requests[i];
    const double at = AtSeconds(r);
    if (IsSimilar(r.kind) && !r.inline_table && at >= spec.read_from_s() &&
        at < spec.read_to_s()) {
      w.push_back(i);
    }
  }
  return w;
}

double ReadPercentileMs(const Inputs& in, const WorkloadSpec& spec,
                        const LoadResult& load, double p) {
  std::vector<Timed> ms;
  for (size_t i : ReadWindow(in, spec)) {
    const Outcome& o = load.outcomes[i];
    if (o.code != Code::kOk) continue;
    ms.emplace_back(AtSeconds(in.requests[i]),
                    static_cast<double>(o.done_ns - in.requests[i].at_ns) / 1e6);
  }
  return WindowedPercentile(ms, spec.read_from_s(), spec.read_to_s(), p,
                            kAcrossWindows);
}

bool LadderValid(const std::vector<StepStats>& steps, int capacity) {
  for (int i = 0; i <= capacity && i < static_cast<int>(steps.size()); ++i) {
    if (!LagValid(steps[static_cast<size_t>(i)].lag_p99_us)) return false;
  }
  return true;
}

ColumnQueryRequest ColumnRequest(const Inputs& in, const Request& r) {
  if (r.inline_table) {
    return {"", &in.adhoc[static_cast<size_t>(r.table)], r.col, kTopK};
  }
  return {in.corpus[static_cast<size_t>(r.table)].id(), nullptr, r.col,
          kTopK};
}

TableQueryRequest TableRequest(const Inputs& in, const Request& r) {
  if (r.inline_table) {
    return {"", &in.adhoc[static_cast<size_t>(r.table)], kTopK};
  }
  return {in.corpus[static_cast<size_t>(r.table)].id(), nullptr, kTopK};
}

EntityQueryRequest EntityRequest(const Inputs& in, const Request& r) {
  return {in.corpus[static_cast<size_t>(r.table)].id(), nullptr, r.row,
          r.col, kTopK};
}

AskRequest AskFor(const Inputs& in, const Request& r) {
  return {in.questions[static_cast<size_t>(r.question)], 5};
}

LoadResult RunLoad(TabBinServing& serving, const Inputs& in,
                   const WorkloadSpec& spec, bool timestamp_submits) {
  const size_t n = in.requests.size();
  LoadResult res;
  res.outcomes.resize(n);
  std::vector<std::future<Result<QueryResponse>>> similar(n);
  std::vector<std::future<Result<AskResponse>>> asks(n);
  std::vector<std::future<Result<AddReport>>> adds(n);
  std::vector<std::future<Status>> removes(n);
  Lane reads, writes;
  for (size_t i = 0; i < n; ++i) {
    (IsWrite(in.requests[i].kind) ? writes : reads).Add(i);
  }

  AsyncExecutor exec(&serving);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  res.t0 = t0;
  const auto since_t0 = [t0] { return (Clock::now() - t0).count(); };

  const auto stamp = [&](size_t i, const Status& st) {
    Outcome& o = res.outcomes[i];
    o.done_ns = since_t0();
    o.code = Classify(st);
    if (o.code == Code::kShed) o.done_ns = o.submit_ns;
  };

  std::thread read_collector([&] {
    RequestSchedulerSlice(kGeneratorSliceNs);
    for (size_t j = 0; j < reads.size(); ++j) {
      const size_t i = reads.Await(j);
      if (in.requests[i].kind == Kind::kAsk) {
        asks[i].wait();
        stamp(i, asks[i].get().status());
        continue;
      }
      similar[i].wait();
      Result<QueryResponse> r = similar[i].get();
      stamp(i, r.status());
      if (r.ok() && i % kCaptureEvery == 0) {
        res.captured.emplace_back(i, std::move(r).value());
      }
    }
  });
  std::thread write_collector([&] {
    RequestSchedulerSlice(kGeneratorSliceNs);
    for (size_t j = 0; j < writes.size(); ++j) {
      const size_t i = writes.Await(j);
      if (in.requests[i].kind == Kind::kAdd) {
        adds[i].wait();
        stamp(i, adds[i].get().status());
      } else {
        removes[i].wait();
        stamp(i, removes[i].get());
      }
    }
  });

  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread compactor([&] {
    for (const double at : spec.compact_at_s) {
      {
        std::unique_lock<std::mutex> lock(stop_mu);
        const auto due = t0 + std::chrono::nanoseconds(ToNs(at));
        if (stop_cv.wait_until(lock, due, [&] { return stop; })) return;
      }
      const int64_t start = since_t0();
      const Status st = serving.Compact();
      res.compactions.emplace_back(start, since_t0() - start);
      if (!st.ok()) res.compact_failed = true;
    }
  });

  // The sender: this thread.
  RequestSchedulerSlice(kGeneratorSliceNs);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = in.requests[i];
    const Clock::time_point due = t0 + std::chrono::nanoseconds(r.at_ns);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    Outcome& o = res.outcomes[i];
    o.submit_ns = since_t0();
    switch (r.kind) {
      case Kind::kColumns:
        similar[i] = exec.SubmitSimilarColumns(ColumnRequest(in, r));
        break;
      case Kind::kTables:
        similar[i] = exec.SubmitSimilarTables(TableRequest(in, r));
        break;
      case Kind::kEntities:
        similar[i] = exec.SubmitSimilarEntities(EntityRequest(in, r));
        break;
      case Kind::kAsk:
        asks[i] = exec.SubmitAsk(AskFor(in, r));
        break;
      case Kind::kAdd:
        adds[i] = exec.SubmitAddTables({in.fresh[static_cast<size_t>(r.table)]});
        break;
      case Kind::kRemove:
        removes[i] =
            exec.SubmitRemoveTable(in.fresh[static_cast<size_t>(r.table)].id());
        break;
    }
    if (timestamp_submits) o.submitted_ns = since_t0();
    (IsWrite(r.kind) ? writes : reads).Publish();
  }

  RequestSchedulerSlice(0);
  read_collector.join();
  write_collector.join();
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_all();
  compactor.join();
  exec.Shutdown();
  return res;
}

}  // namespace servingbench
}  // namespace tabbin
