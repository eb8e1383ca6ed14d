// serving_bench — the serving benchmark every performance claim is
// measured with.
//
// Drives the real serving stack (MakeServing / LoadServing behind an
// AsyncExecutor with default options) with seeded, fixed-rate,
// open-loop traffic and reports end-to-end metrics with tracing off.
// With --trace it runs the same schedule a second time with spans
// around the executor calls, then replays the requests synchronously
// against each layer's public entry points and reports per-layer
// metrics, so a diff between two commits says which layer moved.
//
//   serving_bench --workload=<name> --seed=<n> --out=<run.json>
//                 [--seconds=<s>] [--trace=<trace.json>]
//   serving_bench --selftest
//
// Workloads: point_small, ladder_large, adhoc_churn, cold_hnsw (see
// loadgen.cc and README.md). Every metric prints as
// `metric <name> <value> <unit>` and lands in --out as JSON. The exit
// code is 0 when every correctness check passed, 1 when one failed and
// 2 for a usage error. A run whose load generator ran late (p99 lag over
// 1 ms: it measured the generator, not the service) is marked
// "valid": false in --out and warned about on stderr.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/serving/layers.h"
#include "bench/serving/loadgen.h"
#include "bench/serving/oracle.h"
#include "core/tabbin.h"
#include "io/json.h"
#include "service/sharded_service.h"
#include "util/rng.h"

namespace tabbin {
namespace servingbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kDefaultSeconds = 25;
// Set-up repeats at least this often, and more (up to kMaxSetups) until
// kSetupBudgetS of set-up has been timed, so cheap set-ups get a median
// over more samples.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2;
constexpr int kRecallQueries = 1000;
constexpr int kCompactSample = 100;
constexpr int kOracleThreads = 4;
constexpr int kVocabTables = 40;
constexpr uint64_t kVocabSeed = 1;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  std::string out;
  std::string trace;
  bool selftest = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--selftest") {
      f->selftest = true;
    } else if (key == "--workload") {
      f->workload = val;
    } else if (key == "--seed") {
      f->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      f->seconds = std::atof(val.c_str());
    } else if (key == "--out") {
      f->out = val;
    } else if (key == "--trace") {
      f->trace = val;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// perf_report's encoder geometry.
TabBiNConfig BenchConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.max_seq_len = 96;
  return cfg;
}

/// The encoder every run serves with. Its vocabulary comes from a fixed
/// 40-table sample, not from the run's corpus: the model is part of the
/// system under test. A vocabulary that followed the seed changed the
/// embedding geometry, and with it the LSH candidate pools, up to 2x
/// between seeds on `ladder_large`; with this one they stay within ±3%.
std::shared_ptr<TabBiNSystem> MakeSystem() {
  return std::make_shared<TabBiNSystem>(TabBiNSystem::Create(
      GenerateTables(kVocabTables, kVocabSeed, nullptr), BenchConfig()));
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024 / 1e6;
    }
  }
  return 0;
}

/// Builds the cold workload's snapshot in a child process, so neither
/// the in-memory build's peak memory nor its threads reach the process
/// being measured. Returns the build time (MakeServing + AddTables) in
/// seconds, or a negative value on failure.
double PrepareColdSnapshot(const Inputs& in, const WorkloadSpec& spec,
                           const std::string& path) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    ServiceOptions opts;
    opts.index_kind = kIndexHnsw;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<TabBinServing> s =
        MakeServing(MakeSystem(), spec.shards, opts);
    const bool added = s->AddTables(in.corpus).ok();
    const double build_s = Seconds(t0, Clock::now());
    const bool ok = added && s->Save(path).ok();
    const ssize_t w = write(fds[1], &build_s, sizeof build_s);
    close(fds[1]);
    _exit(ok && w == static_cast<ssize_t>(sizeof build_s) ? 0 : 1);
  }
  close(fds[1]);
  double build_s = -1;
  if (read(fds[0], &build_s, sizeof build_s) !=
      static_cast<ssize_t>(sizeof build_s)) {
    build_s = -1;
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return build_s;
}

/// Set-up, timed: MakeServing + AddTables(corpus) in memory, or
/// LoadServing + the runtime knobs for the cold workload. Returns
/// nullptr on failure.
std::unique_ptr<TabBinServing> SetUp(const Inputs& in,
                                     const WorkloadSpec& spec,
                                     const std::shared_ptr<TabBiNSystem>& sys,
                                     const std::string& snapshot,
                                     Trace* trace, double* seconds) {
  std::unique_ptr<TabBinServing> s;
  const int64_t start = trace->Now();
  if (spec.cold) {
    trace->Time("service.load", -1, -1, [&] {
      auto r = LoadServing(snapshot);
      if (r.ok()) s = std::move(r).value();
    });
    if (s != nullptr) {
      trace->Time("service.knobs", -1, -1, [&] { ApplyKnobs(*s, spec); });
    }
  } else {
    bool added = false;
    trace->Time("service.build", -1, -1, [&] {
      s = MakeServing(sys, spec.shards);
      added = s->AddTables(in.corpus).ok();
    });
    if (!added) s.reset();
  }
  *seconds = static_cast<double>(trace->Now() - start) / 1e9;
  return s;
}

struct Report {
  Metrics metrics;  // end to end
  Metrics layers;   // per layer (traced runs)
  std::vector<StepStats> ladder;
  std::vector<std::string> checks;
  std::vector<std::string> notes;
  int attempted = 0;
  int failed = 0;
  bool valid = true;
  std::map<std::string, int> samples;

  void Check(bool ok, const std::string& what, int mismatches = 1) {
    checks.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
    if (!ok) failed += mismatches;
  }
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::vector<StepStats> StepTable(const Inputs& in, const WorkloadSpec& spec,
                                 const LoadResult& load) {
  std::vector<StepStats> out;
  double start = 0;
  for (size_t s = 0; s < spec.steps.size(); ++s) {
    const double end = start + spec.steps[s].seconds;
    const double from = s == 0 ? std::max(start, spec.warmup_s) : start;
    const double quarter = (end - from) / 4;
    StepStats st;
    st.qps = spec.steps[s].qps;
    std::vector<double> all, first, last;
    std::vector<Timed> lag;
    for (size_t i = 0; i < in.requests.size(); ++i) {
      const Request& r = in.requests[i];
      const double at = AtSeconds(r);
      if (IsWrite(r.kind) || r.step != static_cast<int>(s) || at < from) {
        continue;
      }
      const Outcome& o = load.outcomes[i];
      ++st.sent;
      lag.emplace_back(at, static_cast<double>(o.submit_ns - r.at_ns) / 1e3);
      if (o.code != Code::kOk) {
        ++st.failed;
        continue;
      }
      ++st.ok;
      const double ms = Ms(o.done_ns - r.at_ns);
      all.push_back(ms);
      if (at < from + quarter) first.push_back(ms);
      if (at >= end - quarter) last.push_back(ms);
    }
    st.p50_ms = Percentile(all, 50);
    st.p99_ms = Percentile(all, 99);
    st.first_p50_ms = Percentile(first, 50);
    st.last_p50_ms = Percentile(last, 50);
    st.lag_p99_us = WindowedPercentile(lag, from, end, 99, 50);
    out.push_back(st);
    start = end;
  }
  return out;
}

/// End-to-end metrics of one untraced load phase.
void EndToEnd(const Inputs& in, const WorkloadSpec& spec,
              const LoadResult& load, Report* rep) {
  std::vector<Timed> inline_read, ask, write, lag;
  const bool ladder = spec.steps.size() > 1;
  rep->ladder = StepTable(in, spec, load);
  const int capacity = ladder ? CapacityStep(rep->ladder) : 0;
  int expected_ok = 0;
  int request_failures = 0;
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const Request& r = in.requests[i];
    const Outcome& o = load.outcomes[i];
    const double at = AtSeconds(r);
    lag.emplace_back(at, static_cast<double>(o.submit_ns - r.at_ns) / 1e3);
    // Ladder steps past capacity are deliberate overload: shedding
    // there is admission control working, reported per step instead.
    if (r.step <= std::max(capacity, 0)) {
      ++expected_ok;
      if (o.code != Code::kOk) ++request_failures;
    }
    if (o.code != Code::kOk || at < spec.warmup_s) continue;
    const double ms = Ms(o.done_ns - r.at_ns);
    if (r.inline_table) inline_read.emplace_back(at, ms);
    if (r.kind == Kind::kAsk) ask.emplace_back(at, ms);
    if (r.kind == Kind::kAdd) write.emplace_back(at, ms);
  }
  rep->attempted = static_cast<int>(in.requests.size());
  rep->failed += request_failures;
  rep->samples["read"] = static_cast<int>(ReadWindow(in, spec).size());
  rep->samples["inline"] = static_cast<int>(inline_read.size());
  rep->samples["ask"] = static_cast<int>(ask.size());
  rep->samples["write"] = static_cast<int>(write.size());
  rep->samples["expected_ok"] = expected_ok;

  Metrics& m = rep->metrics;
  const double to = spec.seconds();
  const auto latency = [&](const std::vector<Timed>& v, double p) {
    return WindowedPercentile(v, spec.warmup_s, to, p, kAcrossWindows);
  };
  m.push_back({"read_p50_ms", ReadPercentileMs(in, spec, load, 50), "ms"});
  m.push_back({"read_p99_ms", ReadPercentileMs(in, spec, load, 99), "ms"});
  if (!inline_read.empty()) {
    m.push_back({"inline_p50_ms", latency(inline_read, 50), "ms"});
    m.push_back({"inline_p99_ms", latency(inline_read, 99), "ms"});
  }
  if (!ask.empty()) {
    m.push_back({"ask_p50_ms", latency(ask, 50), "ms"});
    m.push_back({"ask_p99_ms", latency(ask, 99), "ms"});
  }
  if (!write.empty()) {
    m.push_back({"write_p50_ms", latency(write, 50), "ms"});
    m.push_back({"write_p99_ms", latency(write, 99), "ms"});
  }
  double lag_p99 = 0;
  if (ladder) {
    m.push_back({"max_qps_at_slo",
                 capacity < 0 ? 0.0
                              : rep->ladder[static_cast<size_t>(capacity)].qps,
                 "qps"});
    rep->valid = LadderValid(rep->ladder, std::max(capacity, 0));
    for (int s = 0; s <= std::max(capacity, 0); ++s) {
      lag_p99 = std::max(lag_p99, rep->ladder[static_cast<size_t>(s)].lag_p99_us);
    }
  } else {
    lag_p99 = WindowedPercentile(lag, 0, to, 99, 50);
    rep->valid = LagValid(lag_p99);
  }
  m.push_back({"gen.lag_p99_us", lag_p99, "us"});
  if (load.compact_failed) rep->Check(false, "Compact() during the run");
}

/// Every 50th Similar* response against a direct call made after the
/// load phase, byte for byte (read-only workloads).
void CheckCaptured(const TabBinServing& serving, const Inputs& in,
                   const LoadResult& load, Report* rep) {
  int bad = 0;
  for (const auto& [i, resp] : load.captured) {
    const Request& r = in.requests[i];
    Result<QueryResponse> direct = Status::Internal("unset");
    switch (r.kind) {
      case Kind::kColumns:
        direct = serving.SimilarColumns(ColumnRequest(in, r));
        break;
      case Kind::kTables:
        direct = serving.SimilarTables(TableRequest(in, r));
        break;
      default:
        direct = serving.SimilarEntities(EntityRequest(in, r));
        break;
    }
    if (!direct.ok() || !SameResponse(resp, direct.value())) ++bad;
  }
  rep->Check(bad == 0 && !load.captured.empty(),
             std::to_string(load.captured.size()) +
                 " sampled responses equal direct calls byte for byte",
             std::max(bad, 1));
}

/// The serving's live set against the benchmark's own ledger of
/// successful writes.
void CheckLedger(const TabBinServing& serving, const Inputs& in,
                 const LoadResult& load, Report* rep) {
  std::set<std::string> expect;
  for (const Table& t : in.corpus) expect.insert(t.id());
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const Request& r = in.requests[i];
    if (!IsWrite(r.kind) || load.outcomes[i].code != Code::kOk) continue;
    const std::string& id = in.fresh[static_cast<size_t>(r.table)].id();
    if (r.kind == Kind::kAdd) {
      expect.insert(id);
    } else {
      expect.erase(id);
    }
  }
  std::vector<std::string> live = serving.LiveTableIds();
  std::sort(live.begin(), live.end());
  const bool ok = serving.NumLiveTables() == expect.size() &&
                  live == std::vector<std::string>(expect.begin(), expect.end());
  rep->Check(ok, "NumLiveTables()/LiveTableIds() match the write ledger (" +
                     std::to_string(expect.size()) + " tables)");
}

/// Answers to a seeded id-addressed sample are identical before and
/// after a final Compact().
void CheckCompact(TabBinServing& serving, const Inputs& in, uint64_t seed,
                  Report* rep) {
  Rng rng(StreamSeed(seed, 7));
  std::vector<Request> sample;
  for (const Request& r : in.requests) {
    if (IsSimilar(r.kind) && !r.inline_table) sample.push_back(r);
  }
  rng.Shuffle(&sample);
  sample.resize(std::min<size_t>(sample.size(), kCompactSample));
  const auto answer = [&](const Request& r) {
    Result<QueryResponse> res =
        r.kind == Kind::kColumns  ? serving.SimilarColumns(ColumnRequest(in, r))
        : r.kind == Kind::kTables ? serving.SimilarTables(TableRequest(in, r))
                                  : serving.SimilarEntities(EntityRequest(in, r));
    QueryResponse resp = res.ok() ? std::move(res).value() : QueryResponse{};
    resp.candidates = 0;  // the pool shrinks by the tombstones Compact drops
    return std::make_pair(res.ok(), resp);
  };
  std::vector<std::pair<bool, QueryResponse>> before;
  for (const Request& r : sample) before.push_back(answer(r));
  const bool compacted = serving.Compact().ok();
  int bad = compacted ? 0 : 1;
  for (size_t j = 0; j < sample.size(); ++j) {
    const auto after = answer(sample[j]);
    if (!before[j].first || !after.first ||
        !SameResponse(before[j].second, after.second)) {
      ++bad;
    }
  }
  rep->Check(bad == 0,
             std::to_string(sample.size()) +
                 " answers identical before and after Compact()",
             std::max(bad, 1));
}

std::vector<const Table*> LiveTables(const TabBinServing& serving,
                                     const Inputs& in) {
  std::map<std::string, const Table*> by_id;
  for (const auto* pool : {&in.corpus, &in.fresh}) {
    for (const Table& t : *pool) by_id[t.id()] = &t;
  }
  std::vector<const Table*> live;
  for (const std::string& id : serving.LiveTableIds()) {
    const auto it = by_id.find(id);
    if (it != by_id.end()) live.push_back(it->second);
  }
  std::sort(live.begin(), live.end(), [](const Table* a, const Table* b) {
    return a->id() < b->id();
  });
  return live;
}

void PrintMetrics(const Metrics& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

Json MetricsJson(const Metrics& ms) {
  Json o = Json::Object();
  for (const Metric& m : ms) {
    Json v = Json::Object();
    v.Set("value", Json::Number(std::isfinite(m.value) ? m.value : 0));
    v.Set("unit", Json::Str(m.unit));
    o.Set(m.name, std::move(v));
  }
  return o;
}

bool WriteReport(const std::string& path, const Flags& f,
                 const WorkloadSpec& spec, uint64_t digest,
                 const Report& rep) {
  Json j = Json::Object();
  j.Set("workload", Json::Str(f.workload));
  j.Set("seed", Json::Number(static_cast<double>(f.seed)));
  j.Set("seconds", Json::Number(spec.seconds()));
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  j.Set("digest", Json::Str(hex));
  j.Set("traced", Json::Bool(!f.trace.empty()));
  j.Set("valid", Json::Bool(rep.valid));
  j.Set("correct", Json::Bool(rep.failed == 0));
  j.Set("attempted", Json::Number(rep.attempted));
  j.Set("failed", Json::Number(rep.failed));
  j.Set("metrics", MetricsJson(rep.metrics));
  if (!rep.layers.empty()) j.Set("layers", MetricsJson(rep.layers));
  Json samples = Json::Object();
  for (const auto& [k, v] : rep.samples) samples.Set(k, Json::Number(v));
  j.Set("samples", std::move(samples));
  Json ladder = Json::Array();
  for (const StepStats& s : rep.ladder) {
    Json row = Json::Object();
    row.Set("qps", Json::Number(s.qps));
    row.Set("sent", Json::Number(s.sent));
    row.Set("ok", Json::Number(s.ok));
    row.Set("failed", Json::Number(s.failed));
    row.Set("p50_ms", Json::Number(s.p50_ms));
    row.Set("p99_ms", Json::Number(s.p99_ms));
    row.Set("first_p50_ms", Json::Number(s.first_p50_ms));
    row.Set("last_p50_ms", Json::Number(s.last_p50_ms));
    row.Set("lag_p99_us", Json::Number(s.lag_p99_us));
    row.Set("meets_slo", Json::Bool(MeetsSlo(s)));
    ladder.Append(std::move(row));
  }
  j.Set("ladder", std::move(ladder));
  for (const auto& [key, list] :
       {std::make_pair("checks", &rep.checks),
        std::make_pair("notes", &rep.notes)}) {
    Json a = Json::Array();
    for (const std::string& s : *list) a.Append(Json::Str(s));
    j.Set(key, std::move(a));
  }
  std::ofstream out(path);
  out << j.Dump() << "\n";
  return static_cast<bool>(out);
}

int Run(const Flags& f) {
  const WorkloadSpec spec =
      MakeSpec(f.workload, f.seconds > 0 ? f.seconds : kDefaultSeconds);
  if (spec.name.empty() || f.out.empty()) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload=<name> --seed=<n> "
                 "--out=<run.json> [--seconds=<s>] [--trace=<trace.json>]\n"
                 "       serving_bench --selftest\n");
    return 2;
  }
  const Inputs in = Generate(spec, f.seed);
  const uint64_t digest = Digest(in);
  std::printf("workload %s seed %llu: %zu requests over %.1f s, digest %016llx\n",
              spec.name.c_str(), static_cast<unsigned long long>(f.seed),
              in.requests.size(), spec.seconds(),
              static_cast<unsigned long long>(digest));
  std::fflush(stdout);

  // The run's snapshot lives next to --out and goes on every exit path.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } const scratch{f.out + ".tbsn"};
  const std::string& snapshot = scratch.path;
  Report rep;
  Trace trace;
  std::shared_ptr<TabBiNSystem> sys;
  if (spec.cold) {
    const int64_t start = trace.Now();
    const double build_s = PrepareColdSnapshot(in, spec, snapshot);
    if (build_s < 0) {
      std::fprintf(stderr, "cold snapshot preparation failed\n");
      return 1;
    }
    trace.Add("service.build", start, static_cast<int64_t>(build_s * 1e9));
  } else {
    sys = MakeSystem();
  }

  // Set-up, repeated; the median is the metric and the last instance
  // serves. The previous instance is freed off the clock.
  std::unique_ptr<TabBinServing> serving;
  std::vector<double> setup_s;
  double setup_total = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    serving.reset();
    double s = 0;
    serving = SetUp(in, spec, sys, snapshot, &trace, &s);
    if (serving == nullptr) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_s.push_back(s);
    setup_total += s;
  }

  const LoadResult load = RunLoad(*serving, in, spec, false);
  const double rss_mb = PeakRssMb();
  rep.metrics.push_back({"setup_s", Percentile(setup_s, 50), "s"});
  EndToEnd(in, spec, load, &rep);

  if (spec.write_qps > 0) {
    CheckLedger(*serving, in, load, &rep);
    CheckCompact(*serving, in, f.seed, &rep);
  } else {
    CheckCaptured(*serving, in, load, &rep);
  }
  Embeddings emb = ComputeEmbeddings(*serving, LiveTables(*serving, in),
                                     kOracleThreads);
  const RecallReport recall =
      CheckRecall(*serving, emb, in, f.seed, kRecallQueries);
  rep.Check(recall.mismatches == 0,
            std::to_string(recall.queries) +
                " recall queries: every served score exact, in serving order",
            recall.mismatches);
  rep.metrics.push_back(
      {"fail_frac",
       static_cast<double>(rep.failed) / std::max(1, rep.attempted),
       "fraction"});
  rep.metrics.push_back({"recall_at_10", recall.recall, "fraction"});
  rep.metrics.push_back({"rss_mb", rss_mb, "MB"});

  if (!f.trace.empty()) {
    // The same schedule on a fresh instance, with spans, then the
    // layer-by-layer replay.
    serving.reset();
    double s = 0;
    serving = SetUp(in, spec, sys, snapshot, &trace, &s);
    if (serving == nullptr) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    const LoadResult traced = RunLoad(*serving, in, spec, true);
    if (spec.write_qps > 0) {
      emb = ComputeEmbeddings(*serving, LiveTables(*serving, in),
                              kOracleThreads);
    }
    LayerContext ctx;
    ctx.serving = serving.get();
    ctx.in = &in;
    ctx.spec = &spec;
    ctx.seed = f.seed;
    ctx.traced = &traced;
    ctx.emb = &emb;
    ctx.untraced_read_p50_ms = ReadPercentileMs(in, spec, load, 50);
    ctx.snapshot_path = snapshot;
    rep.layers = ReplayLayers(ctx, &trace, &rep.notes);
    if (!trace.WriteChrome(f.trace)) {
      std::fprintf(stderr, "cannot write %s\n", f.trace.c_str());
      return 1;
    }
  }
  serving.reset();

  for (const std::string& c : rep.checks) std::printf("check %s\n", c.c_str());
  for (const std::string& n : rep.notes) std::printf("note %s\n", n.c_str());
  for (const StepStats& st : rep.ladder) {
    if (rep.ladder.size() < 2) break;
    std::printf(
        "step %6.0f qps: sent %5d ok %5d failed %5d  p50 %7.3f ms  p99 "
        "%8.3f ms  first/last p50 %.3f/%.3f ms  lag p99 %.0f us%s\n",
        st.qps, st.sent, st.ok, st.failed, st.p50_ms, st.p99_ms,
        st.first_p50_ms, st.last_p50_ms, st.lag_p99_us,
        MeetsSlo(st) ? "" : "  (misses SLO)");
  }
  PrintMetrics(rep.metrics);
  PrintMetrics(rep.layers);
  if (!WriteReport(f.out, f, spec, digest, rep)) {
    std::fprintf(stderr, "cannot write %s\n", f.out.c_str());
    return 1;
  }
  if (!rep.valid) {
    std::fprintf(stderr, "warning: invalid run, the load generator ran "
                         "more than 1 ms late at p99\n");
  }
  return rep.failed > 0 ? 1 : 0;
}

// --- Self-test ---------------------------------------------------------------

int SelfTest(const Flags& f) {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };

  // 1. The request list is a function of the seed.
  const WorkloadSpec spec = MakeSpec("adhoc_churn", 2);
  const uint64_t a = Digest(Generate(spec, 1));
  expect(a == Digest(Generate(spec, 1)), "same seed, same request digest");
  expect(a != Digest(Generate(spec, 2)),
         "different seed, different request digest");

  // 2. Nearest-rank percentiles.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(Percentile(hundred, 50) == 50 && Percentile(hundred, 99) == 99 &&
             Percentile(hundred, 100) == 100 && Percentile(hundred, 1) == 1 &&
             Percentile({3, 1, 2}, 50) == 2 && Percentile({7}, 99) == 7 &&
             Percentile({1, 2, 3, 4}, 50) == 2 && Percentile({}, 50) == 0,
         "nearest-rank percentile on known vectors");
  // 100 samples per window over 5 windows; the middle three stall.
  std::vector<Timed> timed;
  for (int i = 0; i < 500; ++i) {
    const double at = i / 100.0;
    timed.emplace_back(at, (at >= 1 && at < 4) ? 50.0 : 1 + (i % 100) / 100.0);
  }
  expect(WindowedPercentile(timed, 0, 5, 99, kAcrossWindows) == 1.98 &&
             WindowedPercentile(timed, 0, 5, 99, 50) == 50 &&
             Percentile([&] {
               std::vector<double> v;
               for (const Timed& t : timed) v.push_back(t.second);
               return v;
             }(), 99) == 50,
         "windowed p99 ignores three stalled windows of five; the median "
         "over windows and the pooled p99 do not");

  // 3. Ladder decision: SLO, failures, backlog, monotone cut.
  const auto step = [](double qps, double p99, int failed, double first,
                       double last) {
    StepStats s;
    s.qps = qps;
    s.sent = 100;
    s.ok = 100 - failed;
    s.failed = failed;
    s.p50_ms = first;
    s.p99_ms = p99;
    s.first_p50_ms = first;
    s.last_p50_ms = last;
    return s;
  };
  const std::vector<StepStats> ladder = {
      step(250, 2, 0, 1, 1), step(350, 3, 0, 1, 1.5), step(500, 9.9, 0, 1, 2),
      step(700, 12, 0, 1, 1), step(1000, 2, 0, 1, 1)};
  expect(CapacityStep(ladder) == 4,
         "capacity is the highest step that meets the SLO");
  expect(!MeetsSlo(step(1, 2, 1, 1, 1)), "a failed request misses the SLO");
  expect(!MeetsSlo(step(1, 2, 0, 1, 2.01)),
         "a growing backlog misses the SLO");
  expect(CapacityStep({step(250, 11, 0, 1, 1)}) == -1,
         "a failing first step has no capacity");

  // 4. Generator-lag validity.
  std::vector<StepStats> lagged = ladder;
  lagged[3].lag_p99_us = 5000;  // past capacity: overload probe
  expect(LagValid(999) && !LagValid(1001) && LadderValid(lagged, 2),
         "lag past capacity does not invalidate the run");
  lagged[1].lag_p99_us = 1500;
  expect(!LadderValid(lagged, 2), "lag at or below capacity invalidates it");

  // 5. The trace file is JSON.
  Trace trace;
  const int root = trace.Add("exec.request", 0, 2000, 7);
  trace.Add("service.columns", 100, 900, 7, root, 3);
  const std::string path =
      f.trace.empty() ? "serving_bench_selftest.trace.json" : f.trace;
  bool parsed = false;
  if (trace.WriteChrome(path)) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const Result<Json> j = Json::Parse(text.str());
    parsed = j.ok() && j.value()["traceEvents"].is_array() &&
             j.value()["traceEvents"].array_size() == 2;
  }
  std::remove(path.c_str());
  expect(parsed, "trace file parses as JSON");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servingbench
}  // namespace tabbin

int main(int argc, char** argv) {
  tabbin::servingbench::Flags flags;
  if (!tabbin::servingbench::ParseFlags(argc, argv, &flags)) return 2;
  if (flags.selftest) return tabbin::servingbench::SelfTest(flags);
  return tabbin::servingbench::Run(flags);
}
