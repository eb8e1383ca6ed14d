#include "bench/serving/layers.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <utility>

#include "core/encoder_engine.h"
#include "exec/executor.h"
#include "index/hnsw_index.h"
#include "service/sharded_service.h"
#include "store/paged_snapshot.h"
#include "tasks/lsh.h"
#include "tensor/kernels.h"

namespace tabbin {
namespace servingbench {

namespace {

constexpr size_t kReplayMax = 1500;  // Similar* requests replayed
constexpr size_t kAskReplayMax = 200;
constexpr size_t kEncodeTables = 200;
constexpr int kProbeWrites = 20;
constexpr int kStoreRepeats = 3;
constexpr int kTopK = 10;

double P50(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Every `stride`-th element, so a replay of at most `max` items still
// spans the whole schedule.
std::vector<size_t> Sample(const std::vector<size_t>& all, size_t max) {
  if (all.size() <= max) return all;
  std::vector<size_t> out;
  const double stride = static_cast<double>(all.size()) / max;
  for (size_t j = 0; j < max; ++j) {
    out.push_back(all[static_cast<size_t>(j * stride)]);
  }
  return out;
}

/// One shard's copy of a task index, built from the accessor vectors
/// with the serving geometry and seed: the same rows, the same LSH
/// hyperplanes and the same graph build parameters as ServiceShard.
struct Replica {
  Replica(int dim, const ServiceOptions& o)
      : lsh(dim, o.lsh_bits, o.lsh_tables, o.lsh_seed),
        hnsw(dim, HnswOptions{o.hnsw_m, o.hnsw_ef_construction, o.lsh_seed}) {}

  std::vector<int> rows;  // local row -> Embeddings row
  EmbeddingMatrix m;
  LshIndex lsh;
  HnswIndex hnsw;
};

std::vector<Replica> BuildReplicas(const Embeddings& e, bool columns,
                                   int shards, std::vector<std::string>* notes) {
  const ServiceOptions o;
  const EmbeddingMatrix& src = columns ? e.col : e.tbl;
  std::vector<Replica> out;
  for (int s = 0; s < shards; ++s) {
    out.emplace_back(static_cast<int>(src.cols()), o);
  }
  bool ok = true;
  for (size_t r = 0; r < src.rows(); ++r) {
    const int t = columns ? e.col_refs[r].first : static_cast<int>(r);
    Replica& rep = out[ShardIndexFor(e.tables[static_cast<size_t>(t)]->id(),
                                     static_cast<size_t>(shards))];
    const int local = static_cast<int>(rep.rows.size());
    rep.rows.push_back(static_cast<int>(r));
    rep.m.AppendRow(src.row(r));
    ok = ok && rep.lsh.Insert(local, src.row(r)).ok() &&
         rep.hnsw.Insert(rep.m, local).ok();
  }
  for (Replica& rep : out) rep.m.EnableQuantization();
  if (!ok) notes->push_back("replica index insert failed");
  return out;
}

// Component costs of one query against one shard replica.
struct ShardCost {
  int64_t lsh = 0;
  int64_t hnsw = 0;
  int64_t path = 0;  // the components the workload's serving path runs
  size_t pool = 0;
};

class Replayer {
 public:
  Replayer(const LayerContext& ctx, Trace* trace,
           std::vector<std::string>* notes)
      : ctx_(ctx), in_(*ctx.in), spec_(*ctx.spec), emb_(*ctx.emb),
        trace_(trace), notes_(notes) {}

  Metrics Run();

 private:
  void RecordLoadPhase();
  void ReplaySimilar(size_t i);
  ShardCost ShardComponents(const Replica& rep, bool columns, VecView q,
                            size_t i, int parent, int exclude_table,
                            int exclude_col, std::vector<Hit>* graph_hits);
  void ReplayAsk();
  void EncodeTables();
  void StoreAndLoad();
  void Writes();

  const LayerContext& ctx_;
  const Inputs& in_;
  const WorkloadSpec& spec_;
  const Embeddings& emb_;
  Trace* trace_;
  std::vector<std::string>* notes_;

  std::vector<Replica> col_rep_, tbl_rep_;
  std::vector<int64_t> direct_ns_;  // per request, -1 when not replayed
  std::vector<double> self_us_, path_us_[2], direct_us_[2];
  std::vector<double> lsh_us_, hnsw_us_, pool_frac_, graph_recall_;
  std::vector<double> candidates_;
  std::vector<double> write_wait_ms_;
  double file_mb_ = 0;
};

void Replayer::RecordLoadPhase() {
  const LoadResult& load = *ctx_.traced;
  const int64_t base = trace_->Since(load.t0);
  for (size_t i = 0; i < load.outcomes.size(); ++i) {
    const Outcome& o = load.outcomes[i];
    const int64_t sched = base + in_.requests[i].at_ns;
    const int root = trace_->Add("exec.request", sched,
                                 base + o.done_ns - sched,
                                 static_cast<int64_t>(i));
    trace_->Add("gen.lag", sched, base + o.submit_ns - sched,
                static_cast<int64_t>(i), root);
    trace_->Add("exec.submit", base + o.submit_ns,
                o.submitted_ns - o.submit_ns, static_cast<int64_t>(i), root);
    if (o.code != Code::kShed) {
      trace_->Add("exec.wait", base + o.submitted_ns,
                  o.done_ns - o.submitted_ns, static_cast<int64_t>(i), root);
    }
  }
  for (const auto& [start, dur] : load.compactions) {
    trace_->Add("service.compact", base + start, dur);
  }
}

ShardCost Replayer::ShardComponents(const Replica& rep, bool columns,
                                    VecView q, size_t i, int parent,
                                    int exclude_table, int exclude_col,
                                    std::vector<Hit>* graph_hits) {
  const int64_t req = static_cast<int64_t>(i);
  const float inv_q = kernels::InvNorm(q.data(), q.size());
  ShardCost cost;
  std::vector<int> pool;
  const int lsh = trace_->Time("tasks.lsh_query", req, parent,
                               [&] { pool = rep.lsh.Query(q); });
  trace_->span(lsh).count = static_cast<int64_t>(pool.size());
  std::vector<float> scores(pool.size());
  const int cos = trace_->Time("tensor.cosine", req, parent, [&] {
    kernels::BatchedCosineRows(q.data(), inv_q, rep.m.data(), rep.m.cols(),
                               pool.data(), pool.size(), rep.m.inv_norms(),
                               scores.data());
  });
  trace_->span(cos).count = static_cast<int64_t>(pool.size());
  const int int8 = trace_->Time("tensor.int8", req, parent, [&] {
    QuantizedCosineRows(rep.m, MakeQuantizedQuery(q), pool.data(),
                        pool.size(), scores.data());
  });
  trace_->span(int8).count = static_cast<int64_t>(pool.size());

  const int ef = std::max(kColdEfSearch, kTopK);
  std::vector<int> cands;
  const int hnsw = trace_->Time("index.hnsw_search", req, parent,
                                [&] { cands = rep.hnsw.Search(rep.m, q, ef); });
  trace_->span(hnsw).count = static_cast<int64_t>(cands.size());
  cost.pool = pool.size();
  cost.lsh = trace_->span(lsh).dur_ns;
  cost.hnsw = trace_->span(hnsw).dur_ns;

  if (spec_.cold) {
    // Graph candidates -> int8 shortlist of k * r -> float rerank, the
    // path RankLocked runs with both knobs on.
    std::vector<int> shortlist = cands;
    const size_t keep =
        static_cast<size_t>(kTopK) * kColdShortlistMultiplier;
    int64_t int8_ns = 0;
    if (shortlist.size() > keep) {
      std::vector<float> approx(shortlist.size());
      const int s = trace_->Time("tensor.int8_shortlist", req, parent, [&] {
        QuantizedCosineRows(rep.m, MakeQuantizedQuery(q), shortlist.data(),
                            shortlist.size(), approx.data());
      });
      int8_ns = trace_->span(s).dur_ns;
      std::vector<size_t> order(shortlist.size());
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::nth_element(order.begin(), order.begin() + static_cast<long>(keep),
                       order.end(), [&](size_t a, size_t b) {
                         return approx[a] > approx[b];
                       });
      order.resize(keep);
      std::vector<int> kept;
      for (size_t j : order) kept.push_back(shortlist[j]);
      shortlist = std::move(kept);
    }
    std::vector<float> exact(shortlist.size());
    const int rr = trace_->Time("tensor.cosine_rerank", req, parent, [&] {
      kernels::BatchedCosineRows(q.data(), inv_q, rep.m.data(), rep.m.cols(),
                                 shortlist.data(), shortlist.size(),
                                 rep.m.inv_norms(), exact.data());
    });
    cost.path = cost.hnsw + int8_ns + trace_->span(rr).dur_ns;
  } else {
    cost.path = cost.lsh + trace_->span(cos).dur_ns;
  }

  // Graph candidates scored exactly (off the clock) for the replica's
  // recall against the brute-force top-10.
  std::vector<float> exact(cands.size());
  kernels::BatchedCosineRows(q.data(), inv_q, rep.m.data(), rep.m.cols(),
                             cands.data(), cands.size(), rep.m.inv_norms(),
                             exact.data());
  for (size_t j = 0; j < cands.size(); ++j) {
    const int row = rep.rows[static_cast<size_t>(cands[j])];
    Hit h;
    h.score = exact[j];
    if (columns) {
      h.table = emb_.col_refs[static_cast<size_t>(row)].first;
      h.col = emb_.col_refs[static_cast<size_t>(row)].second;
    } else {
      h.table = row;
    }
    if (h.table == exclude_table && h.col == exclude_col) continue;
    graph_hits->push_back(h);
  }
  return cost;
}

void Replayer::ReplaySimilar(size_t i) {
  const Request& r = in_.requests[i];
  const int64_t req = static_cast<int64_t>(i);
  TabBinServing& serving = *ctx_.serving;
  const int root = trace_->Add("replay.request", trace_->Now(), 0, req);
  const int64_t root_start = trace_->span(root).start_ns;

  Result<QueryResponse> resp = Status::Internal("unset");
  const char* name = r.kind == Kind::kColumns  ? "service.columns"
                     : r.kind == Kind::kTables ? "service.tables"
                                               : "service.entities";
  const int direct = trace_->Time(name, req, root, [&] {
    switch (r.kind) {
      case Kind::kColumns:
        resp = serving.SimilarColumns(ColumnRequest(in_, r));
        break;
      case Kind::kTables:
        resp = serving.SimilarTables(TableRequest(in_, r));
        break;
      default:
        resp = serving.SimilarEntities(EntityRequest(in_, r));
        break;
    }
  });
  const int64_t direct_ns = trace_->span(direct).dur_ns;
  direct_ns_[i] = direct_ns;
  if (!resp.ok()) {
    notes_->push_back(std::string("replay: ") + name + " failed: " +
                      resp.status().ToString());
  } else {
    candidates_.push_back(resp.value().candidates);
  }

  if (r.kind == Kind::kColumns || r.kind == Kind::kTables) {
    const bool columns = r.kind == Kind::kColumns;
    std::vector<float> inline_vec;
    VecView q;
    int exclude_table = -1;
    int exclude_col = -1;
    if (r.inline_table) {
      const Table& t = in_.adhoc[static_cast<size_t>(r.table)];
      inline_vec = columns ? serving.ColumnEmbedding(t, r.col)
                           : serving.TableEmbedding(t);
      q = inline_vec;
    } else {
      const int tr =
          emb_.row_of.at(in_.corpus[static_cast<size_t>(r.table)].id());
      exclude_table = tr;
      if (columns) {
        exclude_col = r.col;
        q = emb_.col.row(static_cast<size_t>(emb_.ColumnRow(tr, r.col)));
      } else {
        q = emb_.tbl.row(static_cast<size_t>(tr));
      }
    }
    // Shards rank in parallel inside the service, so the per-query
    // component cost is the slowest shard's.
    ShardCost worst;
    size_t pool = 0;
    size_t indexed = 0;
    std::vector<Hit> graph_hits;
    for (const Replica& rep : columns ? col_rep_ : tbl_rep_) {
      const ShardCost c = ShardComponents(rep, columns, q, i, root,
                                          exclude_table, exclude_col,
                                          &graph_hits);
      worst.lsh = std::max(worst.lsh, c.lsh);
      worst.hnsw = std::max(worst.hnsw, c.hnsw);
      worst.path = std::max(worst.path, c.path);
      pool += c.pool;
      indexed += rep.rows.size();
    }
    std::sort(graph_hits.begin(), graph_hits.end(),
              [this](const Hit& a, const Hit& b) {
                return HitBefore(emb_, a, b);
              });
    if (graph_hits.size() > static_cast<size_t>(kTopK)) {
      graph_hits.resize(static_cast<size_t>(kTopK));
    }
    graph_recall_.push_back(Overlap(
        graph_hits, ExactTopK(emb_, columns, q, exclude_table, exclude_col,
                              kTopK)));
    lsh_us_.push_back(static_cast<double>(worst.lsh) / 1e3);
    hnsw_us_.push_back(static_cast<double>(worst.hnsw) / 1e3);
    pool_frac_.push_back(indexed == 0 ? 0
                                      : static_cast<double>(pool) /
                                            static_cast<double>(indexed));
    path_us_[columns].push_back(static_cast<double>(worst.path) / 1e3);
    direct_us_[columns].push_back(static_cast<double>(direct_ns) / 1e3);
    self_us_.push_back(static_cast<double>(direct_ns - worst.path) / 1e3);
  }
  trace_->span(root).dur_ns = trace_->Now() - root_start;
}

void Replayer::ReplayAsk() {
  std::vector<size_t> asks;
  for (size_t i = 0; i < in_.requests.size(); ++i) {
    if (in_.requests[i].kind == Kind::kAsk) asks.push_back(i);
  }
  TabBinServing& serving = *ctx_.serving;
  bool failed = false;
  if (!asks.empty()) {
    for (size_t i : Sample(asks, kAskReplayMax)) {
      trace_->Time("service.ask", static_cast<int64_t>(i), -1, [&] {
        failed |= !serving.Ask(AskFor(in_, in_.requests[i])).ok();
      });
    }
  } else {
    // No Ask traffic in this workload: time the seeded questions.
    for (size_t j = 0; j < std::min<size_t>(100, in_.questions.size()); ++j) {
      trace_->Time("service.ask", -1, -1, [&] {
        failed |= !serving.Ask({in_.questions[j], 5}).ok();
      });
    }
  }
  if (failed) notes_->push_back("replay: Ask failed");
}

void Replayer::EncodeTables() {
  // Inline query tables where the workload has them, otherwise the
  // corpus tables its requests address.
  const bool has_inline = !in_.adhoc.empty();
  std::vector<const Table*> tables;
  std::set<const Table*> seen;
  for (const Request& r : in_.requests) {
    if (tables.size() >= kEncodeTables) break;
    if (!IsSimilar(r.kind) || r.inline_table != has_inline) continue;
    const Table* t = has_inline ? &in_.adhoc[static_cast<size_t>(r.table)]
                                : &in_.corpus[static_cast<size_t>(r.table)];
    if (seen.insert(t).second) tables.push_back(t);
  }
  EncoderEngine engine(&ctx_.serving->system(),
                       ServiceOptions{}.encoder_cache_capacity);
  for (const Table* t : tables) {
    trace_->Time("core.encode_miss", -1, -1, [&] { engine.Encode(*t); });
    trace_->Time("core.encode_hit", -1, -1, [&] { engine.Encode(*t); });
  }
}

void Replayer::StoreAndLoad() {
  const std::string& path = ctx_.snapshot_path;
  if (!spec_.cold) {
    Status saved = Status::OK();
    trace_->Time("service.save", -1, -1,
                 [&] { saved = ctx_.serving->Save(path); });
    if (!saved.ok()) {
      notes_->push_back("save failed: " + saved.ToString());
      return;
    }
  }
  for (int rep = 0; rep < kStoreRepeats; ++rep) {
    bool opened = false;
    trace_->Time("store.open", -1, -1, [&] {
      auto reader = PagedSnapshotReader::Open(path);
      opened = reader.ok();
      if (opened) file_mb_ = static_cast<double>(reader.value().file_size()) / 1e6;
    });
    if (!opened) notes_->push_back("store open failed");
    if (spec_.cold) continue;  // load and knobs were timed at set-up
    std::unique_ptr<TabBinServing> loaded;
    trace_->Time("service.load", -1, -1, [&] {
      auto r = LoadServing(path);
      if (r.ok()) loaded = std::move(r).value();
    });
    if (loaded == nullptr) {
      notes_->push_back("load failed");
      continue;
    }
    trace_->Time("service.knobs", -1, -1,
                 [&] { ApplyKnobs(*loaded, spec_); });
  }
}

void Replayer::Writes() {
  TabBinServing& serving = *ctx_.serving;
  const std::vector<Table> probe =
      GenerateTables(2 * kProbeWrites, StreamSeed(ctx_.seed, 5), "probe-");
  bool failed = false;
  for (int j = 0; j < kProbeWrites; ++j) {
    trace_->Time("service.add", -1, -1, [&] {
      failed |= !serving.AddTables({probe[static_cast<size_t>(j)]}).ok();
    });
  }
  for (int j = 0; j < kProbeWrites; ++j) {
    trace_->Time("service.remove", -1, -1, [&] {
      failed |= !serving.RemoveTable(probe[static_cast<size_t>(j)].id()).ok();
    });
  }
  trace_->Time("service.compact", -1, -1,
               [&] { failed |= !serving.Compact().ok(); });

  const double add_ms = P50(trace_->Micros("service.add")) / 1e3;
  const double remove_ms = P50(trace_->Micros("service.remove")) / 1e3;
  const LoadResult& load = *ctx_.traced;
  for (size_t i = 0; i < in_.requests.size(); ++i) {
    const Request& r = in_.requests[i];
    if (!IsWrite(r.kind) || load.outcomes[i].code != Code::kOk) continue;
    const double e2e =
        static_cast<double>(load.outcomes[i].done_ns - r.at_ns) / 1e6;
    write_wait_ms_.push_back(e2e - (r.kind == Kind::kAdd ? add_ms : remove_ms));
  }
  if (write_wait_ms_.empty()) {
    // No write stream in this workload: a closed-loop probe through the
    // write lane stands in for it.
    AsyncExecutor exec(&serving);
    for (int j = kProbeWrites; j < 2 * kProbeWrites; ++j) {
      const Table& t = probe[static_cast<size_t>(j)];
      const int add = trace_->Time("exec.write", -1, -1, [&] {
        failed |= !exec.SubmitAddTables({t}).get().ok();
      });
      write_wait_ms_.push_back(
          static_cast<double>(trace_->span(add).dur_ns) / 1e6 - add_ms);
      const int rm = trace_->Time("exec.write", -1, -1, [&] {
        failed |= !exec.SubmitRemoveTable(t.id()).get().ok();
      });
      write_wait_ms_.push_back(
          static_cast<double>(trace_->span(rm).dur_ns) / 1e6 - remove_ms);
    }
  }
  if (failed) notes_->push_back("probe write failed");
}

Metrics Replayer::Run() {
  RecordLoadPhase();
  const int shards = spec_.shards;
  const int64_t build_start = trace_->Now();
  col_rep_ = BuildReplicas(emb_, /*columns=*/true, shards, notes_);
  tbl_rep_ = BuildReplicas(emb_, /*columns=*/false, shards, notes_);
  trace_->Add("replica.build", build_start, trace_->Now() - build_start);

  direct_ns_.assign(in_.requests.size(), -1);
  std::vector<size_t> similar;
  for (size_t i = 0; i < in_.requests.size(); ++i) {
    if (IsSimilar(in_.requests[i].kind)) similar.push_back(i);
  }
  for (size_t i : Sample(similar, kReplayMax)) ReplaySimilar(i);
  ReplayAsk();
  EncodeTables();
  StoreAndLoad();
  Writes();

  const LoadResult& load = *ctx_.traced;
  std::vector<double> overhead_us;
  for (size_t i : ReadWindow(in_, spec_)) {
    if (direct_ns_[i] < 0 || load.outcomes[i].code != Code::kOk) continue;
    const int64_t e2e = load.outcomes[i].done_ns - in_.requests[i].at_ns;
    overhead_us.push_back(static_cast<double>(e2e - direct_ns_[i]) / 1e3);
  }
  size_t shed = 0;
  std::vector<double> lag_us;
  for (size_t i = 0; i < load.outcomes.size(); ++i) {
    if (load.outcomes[i].code == Code::kShed) ++shed;
    lag_us.push_back(
        static_cast<double>(load.outcomes[i].submit_ns - in_.requests[i].at_ns) /
        1e3);
  }
  // Replica components against the direct call, per query kind: the
  // components must not outweigh the call that contains them.
  const char* kinds[2] = {"tables", "columns"};
  for (int c = 0; c < 2; ++c) {
    if (direct_us_[c].empty()) continue;
    const double share = P50(path_us_[c]) / P50(direct_us_[c]);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "replica components p50 / direct p50 (%s): %.3f%s",
                  kinds[c], share, share <= 1.1 ? "" : "  (> 1.1)");
    notes_->push_back(buf);
  }

  const auto per_row_ns = [this](const char* name) {
    double ns = 0, rows = 0;
    for (const Span& s : trace_->spans()) {
      if (std::string(s.name) != name) continue;
      ns += static_cast<double>(s.dur_ns);
      rows += static_cast<double>(s.count);
    }
    return rows > 0 ? ns / rows : 0.0;
  };
  const double traced_p50 = ReadPercentileMs(in_, spec_, load, 50);
  const double n = static_cast<double>(std::max<size_t>(1, load.outcomes.size()));

  std::vector<double> build_s = trace_->Micros("service.build");
  for (double& b : build_s) b /= 1e6;

  return {
      {"exec.overhead_p50_us", Percentile(overhead_us, 50), "us"},
      {"exec.overhead_p99_us", Percentile(overhead_us, 99), "us"},
      {"exec.shed_frac", static_cast<double>(shed) / n, "fraction"},
      {"exec.write_wait_p99_ms", Percentile(write_wait_ms_, 99), "ms"},
      {"gen.lag_p99_us", Percentile(lag_us, 99), "us"},
      {"service.columns_p50_us", P50(trace_->Micros("service.columns")), "us"},
      {"service.tables_p50_us", P50(trace_->Micros("service.tables")), "us"},
      {"service.entities_p50_us", P50(trace_->Micros("service.entities")),
       "us"},
      {"service.candidates_mean", Mean(candidates_), "count"},
      {"service.self_p50_us", P50(self_us_), "us"},
      {"service.ask_p50_us", P50(trace_->Micros("service.ask")), "us"},
      {"service.add_p50_ms", P50(trace_->Micros("service.add")) / 1e3, "ms"},
      {"service.remove_p50_us", P50(trace_->Micros("service.remove")), "us"},
      {"service.compact_ms", P50(trace_->Micros("service.compact")) / 1e3,
       "ms"},
      {"service.build_s", P50(build_s), "s"},
      {"service.load_ms", P50(trace_->Micros("service.load")) / 1e3, "ms"},
      {"service.knobs_ms", P50(trace_->Micros("service.knobs")) / 1e3, "ms"},
      {"core.encode_miss_p50_us", P50(trace_->Micros("core.encode_miss")),
       "us"},
      {"core.encode_hit_p50_us", P50(trace_->Micros("core.encode_hit")), "us"},
      {"tasks.lsh_query_p50_us", P50(lsh_us_), "us"},
      {"tasks.lsh_pool_frac", Mean(pool_frac_), "fraction"},
      {"index.hnsw_search_p50_us", P50(hnsw_us_), "us"},
      {"index.hnsw_recall_at_10", Mean(graph_recall_), "fraction"},
      {"tensor.cosine_ns_per_row", per_row_ns("tensor.cosine"), "ns"},
      {"tensor.int8_ns_per_row", per_row_ns("tensor.int8"), "ns"},
      {"store.open_ms", P50(trace_->Micros("store.open")) / 1e3, "ms"},
      {"store.file_mb", file_mb_, "MB"},
      {"trace_overhead_pct",
       ctx_.untraced_read_p50_ms > 0
           ? (traced_p50 / ctx_.untraced_read_p50_ms - 1) * 100
           : 0,
       "%"},
  };
}

}  // namespace

int Trace::Add(const char* name, int64_t start_ns, int64_t dur_ns,
               int64_t req, int parent, int64_t count) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.req = req;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.count = count;
  spans_.push_back(s);
  return s.id;
}

std::vector<double> Trace::Micros(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e3);
  }
  return out;
}

bool Trace::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Layer = the name's prefix before the first dot.
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"req\":%lld,\"id\":%d,\"parent\":%d,"
                 "\"count\":%lld}}",
                 i == 0 ? "" : ",", s.name, cat.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.req < 0 ? 0 : 1,
                 static_cast<long long>(s.req), s.id, s.parent,
                 static_cast<long long>(s.count));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Metrics ReplayLayers(const LayerContext& ctx, Trace* trace,
                     std::vector<std::string>* notes) {
  Replayer replayer(ctx, trace, notes);
  return replayer.Run();
}

}  // namespace servingbench
}  // namespace tabbin
