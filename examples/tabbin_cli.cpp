// tabbin_cli — command-line front end for the library.
//
//   tabbin_cli generate <dataset> <num_tables> <out.json>
//       Generate a labeled synthetic corpus and save it as JSON.
//   tabbin_cli pretrain <corpus.json> <model.tbsn>
//       Train the four TabBiN models and write them, with the vocabulary
//       and type lexicon, as one model snapshot.
//   tabbin_cli encode <corpus.json> <model.tbsn> <table_index>
//       Print the TC composite embedding of one table.
//   tabbin_cli eval <corpus.json>
//       Pretrain in-memory and report CC/TC MAP@20 / MRR@20.
//   tabbin_cli save-model <corpus.json> <model.tbsn>
//       Pretrain, encode the corpus, and write one model snapshot
//       (models + vocabulary + cached table encodings). `query` does
//       not open it: it is not a service store.
//   tabbin_cli load-model <model.tbsn> <corpus.json>
//       Warm-start from a model snapshot (no pretraining, cached
//       encodings) and report TC MAP@20 / MRR@20.
//   tabbin_cli build-service [--shards=N] <corpus.json> <service.tbsn>
//       Pretrain, index the corpus in a TabBinService (--shards=N
//       hash-partitions it across N shards; default 1), and snapshot
//       the whole service (models + corpus + indexes) as a v2 store.
//   tabbin_cli query [--shards=N] [--quantized[=r]] [--async [--qps=N]]
//       <service.tbsn> table <id> [k]
//   tabbin_cli query [--shards=N] [--quantized[=r]] [--async [--qps=N]]
//       <service.tbsn> column <id> <col> [k]
//   tabbin_cli query [--shards=N] [--quantized[=r]] [--async [--qps=N]]
//       <service.tbsn> ask <question> [k]
//       Serve similarity / grounding queries from a service snapshot —
//       no corpus file, no pretraining, no index rebuild. The store
//       opens at its saved shard count; --shards=N re-partitions onto
//       N shards (1 <= N <= kMaxShards) regardless of how it was saved.
//       Answers are byte-identical at any shard count. --quantized[=r]
//       turns on the int8 two-stage scan (shortlist = k*r, default r=4;
//       final scores stay float-exact). --async routes the query
//       through the admission-controlled AsyncExecutor (same answer,
//       async path); --qps=N additionally replays it open-loop at N
//       requests/s and prints p50/p95/p99 latency plus how many
//       requests the bounded lane shed.
//   tabbin_cli inspect <corpus.json> <table_index>
//       Print a table as CSV plus its coordinate trees.
//   tabbin_cli inspect <snapshot.tbsn | generation_dir>
//       Print a snapshot's section table (name, offset, size,
//       alignment, checksum verdict); for a generation directory, the
//       manifest state first. Validates every section checksum, exit 1
//       on any mismatch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "datagen/corpus_gen.h"
#include "exec/executor.h"
#include "index/hnsw_index.h"
#include "io/table_io.h"
#include "service/sharded_service.h"
#include "store/generation.h"
#include "store/paged_snapshot.h"
#include "table/bicoord.h"
#include "tasks/clustering.h"
#include "tasks/pipelines.h"

using namespace tabbin;

namespace {

TabBiNConfig CliConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.pretrain_steps = 60;
  return cfg;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tabbin_cli generate <dataset> <num_tables> <out.json>\n"
               "  tabbin_cli pretrain <corpus.json> <model.tbsn>\n"
               "  tabbin_cli encode <corpus.json> <model.tbsn> <index>\n"
               "  tabbin_cli eval <corpus.json>\n"
               "  tabbin_cli save-model <corpus.json> <model.tbsn>\n"
               "  tabbin_cli load-model <model.tbsn> <corpus.json>\n"
               "  tabbin_cli build-service [--shards=N] <corpus.json> "
               "<service.tbsn>\n"
               "  tabbin_cli query [--shards=N] [--quantized[=r]] "
               "[--index=hnsw|lsh [--ef=N]] [--async [--qps=N]] "
               "<service.tbsn> table <id> [k]\n"
               "  tabbin_cli query [...same flags] <service.tbsn> column "
               "<id> <col> [k]\n"
               "  tabbin_cli query [...same flags] <service.tbsn> ask "
               "<question> [k]\n"
               "  tabbin_cli inspect <corpus.json> <index>\n"
               "  tabbin_cli inspect <snapshot.tbsn | generation_dir>\n"
               "datasets: webtables covidkg cancerkg saus cius\n"
               "--shards=N (1..%d) serves through N hash-partitioned "
               "shards\n"
               "(scatter-gather; answers identical at any shard count)\n"
               "--quantized[=r] scores through the int8 two-stage scan\n"
               "(k*r shortlist, float-exact rerank; default r=4)\n"
               "--index=hnsw walks the graph-ANN candidate index\n"
               "(sub-linear; --ef=N widens the beam for recall);\n"
               "--index=lsh forces the reference bucket probe\n"
               "--async routes queries through the AsyncExecutor;\n"
               "--qps=N replays the query open-loop at N requests/s and\n"
               "prints latency percentiles + shed count (implies --async)\n",
               kMaxShards);
  return 2;
}

int CmdGenerate(const std::string& dataset, int n, const std::string& out) {
  GeneratorOptions opts;
  opts.num_tables = n;
  LabeledCorpus data = GenerateDataset(dataset, opts);
  Status st = SaveCorpus(data.corpus, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu tables to %s (%.0f%% non-relational, %.0f%% nested)\n",
              data.corpus.tables.size(), out.c_str(),
              100 * data.NonRelationalFraction(),
              100 * data.NestedFraction());
  return 0;
}

Result<Corpus> LoadOrDie(const std::string& path) { return LoadCorpus(path); }

int CmdPretrain(const std::string& corpus_path, const std::string& out) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  TabBiNSystem sys = TabBiNSystem::Create(corpus.value().tables, CliConfig());
  auto stats = sys.Pretrain(corpus.value().tables);
  for (int v = 0; v < 4; ++v) {
    const char* name = TabBiNVariantName(static_cast<TabBiNVariant>(v));
    std::printf("%-12s loss %.3f -> %.3f\n", name,
                stats[static_cast<size_t>(v)].initial_loss,
                stats[static_cast<size_t>(v)].final_loss);
  }
  Status st = sys.Save(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model snapshot written to %s\n", out.c_str());
  return 0;
}

int CmdEncode(const std::string& corpus_path, const std::string& model_path,
              int index) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  if (index < 0 || index >= static_cast<int>(corpus.value().tables.size())) {
    std::fprintf(stderr, "error: index out of range\n");
    return 1;
  }
  auto sys = TabBiNSystem::Load(model_path);
  if (!sys.ok()) {
    std::fprintf(stderr, "error: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  const Table& t = corpus.value().tables[static_cast<size_t>(index)];
  TableEncodings enc = sys.value().EncodeAll(t);
  std::vector<float> emb = sys.value().TableComposite1(enc);
  std::printf("# table %d: %s\n", index, t.caption().c_str());
  for (size_t i = 0; i < emb.size(); ++i) {
    std::printf("%s%.6f", i ? " " : "", emb[i]);
  }
  std::printf("\n");
  return 0;
}

int CmdEval(const std::string& corpus_path) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  // Topic labels come from the tables themselves; columns use header text
  // as a weak label when no ground truth is available.
  auto sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(corpus.value().tables, CliConfig()));
  sys->Pretrain(corpus.value().tables);
  // The service owns the batched, cached encoding path; embeddings come
  // out of the same accessors the query endpoints use.
  ServiceOptions opts_svc;
  opts_svc.encoder_cache_capacity = corpus.value().tables.size();
  TabBinService service(sys, opts_svc);
  service.engine().EncodeBatch(corpus.value().tables);
  LabeledEmbeddingSet tables;
  for (const Table& t : corpus.value().tables) {
    if (!t.topic().empty()) tables.Add(service.TableEmbedding(t), t.topic());
  }
  ClusterEvalOptions opts;
  auto tc = EvaluateClustering(tables, opts);
  std::printf("TC (topic labels): MAP@20 %.3f MRR@20 %.3f (%d queries)\n",
              tc.map, tc.mrr, tc.queries);
  return 0;
}

int CmdSaveModel(const std::string& corpus_path, const std::string& out) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  TabBiNSystem sys = TabBiNSystem::Create(corpus.value().tables, CliConfig());
  auto stats = sys.Pretrain(corpus.value().tables);
  for (int v = 0; v < 4; ++v) {
    std::printf("%-12s loss %.3f -> %.3f\n",
                TabBiNVariantName(static_cast<TabBiNVariant>(v)),
                stats[static_cast<size_t>(v)].initial_loss,
                stats[static_cast<size_t>(v)].final_loss);
  }
  // Encode every table now so the snapshot warm-starts future runs all
  // the way through (no forward passes on load).
  EncoderEngine engine(&sys, corpus.value().tables.size());
  engine.EncodeBatch(corpus.value().tables);
  PagedSnapshotWriter snapshot;
  sys.AppendTo(&snapshot);
  engine.AppendCacheTo(&snapshot);
  Status st = snapshot.ToFile(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("snapshot written to %s (%zu cached encodings)\n", out.c_str(),
              engine.size());
  return 0;
}

int CmdLoadModel(const std::string& snapshot_path,
                 const std::string& corpus_path) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto snapshot = PagedSnapshotReader::Open(snapshot_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "error: %s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  auto sys = TabBiNSystem::FromSnapshot(snapshot.value());
  if (!sys.ok()) {
    std::fprintf(stderr, "error: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  ServiceOptions opts_svc;
  opts_svc.encoder_cache_capacity = corpus.value().tables.size();
  TabBinService service(
      std::make_shared<TabBiNSystem>(std::move(sys).value()), opts_svc);
  auto warmed = service.engine().WarmStart(snapshot.value());
  if (!warmed.ok()) {
    std::fprintf(stderr, "error: %s\n", warmed.status().ToString().c_str());
    return 1;
  }
  std::printf("warm start: %zu cached encodings\n", warmed.value());

  LabeledEmbeddingSet tables;
  for (const Table& t : corpus.value().tables) {
    if (!t.topic().empty()) tables.Add(service.TableEmbedding(t), t.topic());
  }
  ClusterEvalOptions opts;
  auto tc = EvaluateClustering(tables, opts);
  std::printf(
      "TC (topic labels): MAP@20 %.3f MRR@20 %.3f (%d queries; cache "
      "%zu hits / %zu misses)\n",
      tc.map, tc.mrr, tc.queries, service.engine().hits(),
      service.engine().misses());
  return 0;
}

int CmdBuildService(const std::string& corpus_path, const std::string& out,
                    int shards, int index_kind, int ef) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(corpus.value().tables, CliConfig()));
  auto stats = sys->Pretrain(corpus.value().tables);
  for (int v = 0; v < 4; ++v) {
    std::printf("%-12s loss %.3f -> %.3f\n",
                TabBiNVariantName(static_cast<TabBiNVariant>(v)),
                stats[static_cast<size_t>(v)].initial_loss,
                stats[static_cast<size_t>(v)].final_loss);
  }
  // Default options: the encoder cache capacity is persisted in the
  // store and re-applied on load, and AddTables never fills the cache,
  // so sizing it to the corpus would only hand every reader of the store
  // an oversized read cache.
  std::unique_ptr<TabBinServing> service =
      MakeServing(sys, shards, ServiceOptions{});
  auto report = service->AddTables(corpus.value().tables);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (index_kind >= 0) {
    // Graph snapshots carry their adjacency as store sections, so a
    // service built with --index=hnsw serves the graph straight off
    // the mapping on load (no rebuild).
    service->SetIndexKind(static_cast<IndexKind>(index_kind), ef);
    std::printf("candidate index: %s\n",
                index_kind == kIndexHnsw ? "hnsw" : "lsh");
  }
  Status st = service->Save(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "service snapshot written to %s (%d tables, %d columns, %d entities, "
      "%d shard%s)\n",
      out.c_str(), report.value().tables_added,
      report.value().columns_indexed, report.value().entities_indexed,
      std::max(1, shards), shards > 1 ? "s" : "");
  return 0;
}

// Open-loop replay of one query through the executor: submit at fixed
// scheduled arrival times, stamp completions as they happen (FIFO — the
// executor resolves read promises in submission order), and charge any
// queueing delay against the request's scheduled arrival. Works for any
// submit() returning a std::future over a Result with ok().
template <typename SubmitFn>
void RunAsyncLoad(const SubmitFn& submit, int qps, int n) {
  using Clock = std::chrono::steady_clock;
  using FutureT = decltype(submit());
  std::vector<FutureT> futures(static_cast<size_t>(n));
  std::vector<Clock::time_point> sched(static_cast<size_t>(n));
  std::vector<Clock::time_point> done(static_cast<size_t>(n));
  std::atomic<int> produced{0};
  std::thread collector([&] {
    for (int i = 0; i < n; ++i) {
      while (produced.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const size_t idx = static_cast<size_t>(i);
      futures[idx].wait();
      done[idx] = Clock::now();
    }
  });
  const auto start = Clock::now();
  const std::chrono::nanoseconds gap(
      static_cast<long long>(1e9 / static_cast<double>(qps)));
  for (int i = 0; i < n; ++i) {
    const auto arrival = start + gap * i;
    std::this_thread::sleep_until(arrival);
    const size_t idx = static_cast<size_t>(i);
    sched[idx] = arrival;
    futures[idx] = submit();
    produced.store(i + 1, std::memory_order_release);
  }
  collector.join();
  std::vector<double> lat_ms;
  int shed = 0;
  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    if (!futures[idx].get().ok()) {
      ++shed;
      continue;
    }
    lat_ms.push_back(
        std::chrono::duration<double, std::milli>(done[idx] - sched[idx])
            .count());
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  const auto pct = [&lat_ms](double p) {
    if (lat_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(lat_ms.size() - 1) + 0.5);
    return lat_ms[std::min(idx, lat_ms.size() - 1)];
  };
  std::printf(
      "open-loop: %d requests at %d qps: p50 %.2f ms  p95 %.2f ms  "
      "p99 %.2f ms  (%zu ok, %d shed)\n",
      n, qps, pct(0.50), pct(0.95), pct(0.99), lat_ms.size(), shed);
}

int CmdQuery(const std::string& snapshot_path, const std::string& kind,
             const std::vector<std::string>& args, int shards,
             int quantized_r, int index_kind, int ef, bool use_async,
             int qps) {
  auto service = LoadServing(snapshot_path, shards);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }
  TabBinServing& svc = *service.value();
  if (quantized_r > 0) {
    // The scan knob is runtime state (never part of the snapshot), so it
    // is applied after loading.
    svc.SetQuantizedScan(true, quantized_r);
    std::printf("quantized scan: on (shortlist = k * %d)\n", quantized_r);
  }
  if (index_kind >= 0) {
    // --index=hnsw builds the graphs when the snapshot carries none
    // (lsh-saved stores); --index=lsh drops a persisted graph and
    // forces the reference bucket probe.
    svc.SetIndexKind(static_cast<IndexKind>(index_kind), ef);
    if (index_kind == kIndexHnsw && ef > 0) {
      std::printf("candidate index: hnsw (ef_search %d)\n", ef);
    } else if (index_kind == kIndexHnsw) {
      std::printf("candidate index: hnsw (default ef_search)\n");
    } else {
      std::printf("candidate index: lsh\n");
    }
  }
  std::unique_ptr<AsyncExecutor> exec;
  if (use_async) {
    exec = std::make_unique<AsyncExecutor>(&svc);
    std::printf("async executor: on (read lane depth %zu)\n",
                exec->read_queue_capacity());
  }
  const int load_requests = 200;
  std::printf("service: %zu live tables, %zu columns, %zu entities\n",
              svc.NumLiveTables(), svc.NumIndexedColumns(),
              svc.NumIndexedEntities());
  if (kind == "table" && !args.empty()) {
    const int k = args.size() > 1 ? std::atoi(args[1].c_str()) : 5;
    if (exec != nullptr && qps > 0) {
      RunAsyncLoad(
          [&] { return exec->SubmitSimilarTables({args[0], nullptr, k}); },
          qps, load_requests);
    }
    auto r = exec != nullptr
                 ? exec->SubmitSimilarTables({args[0], nullptr, k}).get()
                 : svc.SimilarTables({args[0], nullptr, k});
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("tables similar to %s (%d candidates):\n", args[0].c_str(),
                r.value().candidates);
    for (const auto& m : r.value().matches) {
      std::printf("  %.3f  %-16s %s\n", m.score, m.table_id.c_str(),
                  m.caption.c_str());
    }
    return 0;
  }
  if (kind == "column" && args.size() >= 2) {
    const int col = std::atoi(args[1].c_str());
    const int k = args.size() > 2 ? std::atoi(args[2].c_str()) : 5;
    if (exec != nullptr && qps > 0) {
      RunAsyncLoad(
          [&] {
            return exec->SubmitSimilarColumns({args[0], nullptr, col, k});
          },
          qps, load_requests);
    }
    auto r =
        exec != nullptr
            ? exec->SubmitSimilarColumns({args[0], nullptr, col, k}).get()
            : svc.SimilarColumns({args[0], nullptr, col, k});
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("columns similar to %s:%d (%d candidates):\n",
                args[0].c_str(), col, r.value().candidates);
    for (const auto& m : r.value().matches) {
      std::printf("  %.3f  %-16s col %d  %s\n", m.score, m.table_id.c_str(),
                  m.col, m.caption.c_str());
    }
    return 0;
  }
  if (kind == "ask" && !args.empty()) {
    const int k = args.size() > 1 ? std::atoi(args[1].c_str()) : 5;
    if (exec != nullptr && qps > 0) {
      RunAsyncLoad([&] { return exec->SubmitAsk({args[0], k}); }, qps,
                   load_requests);
    }
    auto r = exec != nullptr ? exec->SubmitAsk({args[0], k}).get()
                             : svc.Ask({args[0], k});
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r.value().answer.c_str());
    for (const auto& m : r.value().tables) {
      std::printf("  %.3f  %-16s %s\n", m.score, m.table_id.c_str(),
                  m.caption.c_str());
    }
    return 0;
  }
  return Usage();
}

int CmdInspectSnapshot(const std::string& path) {
  std::string file = path;
  if (IsDirectory(path)) {
    auto manifest = ReadGenerationManifest(path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   manifest.status().ToString().c_str());
      return 1;
    }
    std::printf("generation directory: %s\n  current generation: %llu\n"
                "  current file:       %s\n",
                path.c_str(),
                static_cast<unsigned long long>(manifest.value().generation),
                manifest.value().file.c_str());
    auto resolved = ResolveGeneration(path);
    if (!resolved.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   resolved.status().ToString().c_str());
      return 1;
    }
    file = resolved.value();
  }
  auto reader = PagedSnapshotReader::Open(file);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s\n", reader.status().ToString().c_str());
    return 1;
  }
  const PagedSnapshotReader& r = reader.value();
  std::printf("%s: TBSN v2 paged store, %zu bytes, %s\n", file.c_str(),
              r.file_size(), r.is_mapped() ? "mmap" : "heap fallback");
  std::printf("  %-16s %12s %12s %6s  %s\n", "section", "offset", "bytes",
              "align", "checksum");
  bool all_ok = true;
  for (const PagedSnapshotReader::SectionInfo& info : r.sections()) {
    // Force validation so inspect reports an actual verdict for every
    // section, including the lazily-served bulk blocks.
    all_ok = r.ValidateSection(info.name).ok() && all_ok;
    std::printf("  %-16s %12llu %12llu %6llu  %s\n", info.name.c_str(),
                static_cast<unsigned long long>(info.offset),
                static_cast<unsigned long long>(info.length),
                static_cast<unsigned long long>(info.align),
                r.ChecksumState(info.name));
  }
  // Graph-index summary: every persisted HNSW graph is a
  // "<p>hnsw.<task>meta" / "<p>hnsw.<task>0" section pair; restore each
  // (validating every neighbor id on the way) and print its geometry.
  bool printed_hnsw_header = false;
  for (const PagedSnapshotReader::SectionInfo& info : r.sections()) {
    const std::string& name = info.name;
    if (name.find("hnsw.") == std::string::npos || name.size() < 4 ||
        name.compare(name.size() - 4, 4, "meta") != 0) {
      continue;
    }
    const std::string l0_name = name.substr(0, name.size() - 4) + "0";
    auto meta = r.Section(name);
    auto l0 = r.SectionSpan(l0_name);
    if (!meta.ok() || !l0.ok()) {
      std::fprintf(stderr, "error: graph %s: %s\n", name.c_str(),
                   (meta.ok() ? l0.status() : meta.status())
                       .ToString()
                       .c_str());
      all_ok = false;
      continue;
    }
    auto graph = HnswIndex::Restore(&meta.value(), l0.value().data,
                                    l0.value().size, nullptr);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: graph %s: %s\n", name.c_str(),
                   graph.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    if (!printed_hnsw_header) {
      std::printf("hnsw graphs:\n");
      std::printf("  %-24s %8s %6s %4s %8s %10s %12s\n", "graph", "nodes",
                  "dead", "M", "levels", "edges", "level0 bytes");
      printed_hnsw_header = true;
    }
    const HnswIndex& g = graph.value();
    std::printf("  %-24s %8zu %6zu %4d %8d %10zu %12zu\n",
                name.substr(0, name.size() - 4).c_str(), g.size(),
                g.dead_count(), g.options().m, g.max_level() + 1,
                g.edge_count(), g.level0_bytes());
  }
  std::printf("%s\n", all_ok ? "all section checksums ok"
                             : "CHECKSUM FAILURES (see table)");
  return all_ok ? 0 : 1;
}

int CmdInspect(const std::string& corpus_path, int index) {
  auto corpus = LoadOrDie(corpus_path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  if (index < 0 || index >= static_cast<int>(corpus.value().tables.size())) {
    std::fprintf(stderr, "error: index out of range\n");
    return 1;
  }
  const Table& t = corpus.value().tables[static_cast<size_t>(index)];
  std::printf("caption: %s\ntopic: %s\nhmd_rows=%d vmd_cols=%d\n\n%s\n",
              t.caption().c_str(), t.topic().c_str(), t.hmd_rows(),
              t.vmd_cols(), TableToCsv(t).c_str());
  auto htree =
      CoordinateTree::Build(t, CoordinateTree::Dimension::kHorizontal);
  auto vtree = CoordinateTree::Build(t, CoordinateTree::Dimension::kVertical);
  std::printf("horizontal tree:\n%s\nvertical tree:\n%s",
              htree.ToString().c_str(), vtree.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --shards=N, --quantized[=r], --async, and --qps=N may appear
  // anywhere; strip them before positional parsing.
  int shards = 0;       // 0 = default (single shard / saved layout)
  int quantized_r = 0;  // 0 = exact scoring; > 0 = shortlist multiplier
  int index_kind = -1;  // -1 = as loaded; kIndexLsh / kIndexHnsw forced
  int ef = 0;           // 0 = keep the service's ef_search default
  bool use_async = false;
  int qps = 0;  // > 0 = open-loop replay rate (implies --async)
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      // Outside input: an unbounded count would allocate that many
      // shards (each with three LSH indexes) before anything else runs.
      char* end = nullptr;
      const long n = std::strtol(arg.c_str() + 9, &end, 10);
      if (end == arg.c_str() + 9 || *end != '\0' || n < 1 ||
          n > kMaxShards) {
        std::fprintf(stderr, "error: %s: shard count must be in [1, %d]\n",
                     arg.c_str(), kMaxShards);
        return 2;
      }
      shards = static_cast<int>(n);
      continue;
    }
    if (arg == "--quantized") {
      quantized_r = 4;
      continue;
    }
    if (arg.rfind("--quantized=", 0) == 0) {
      quantized_r = std::max(1, std::atoi(arg.c_str() + 12));
      continue;
    }
    if (arg == "--index=hnsw") {
      index_kind = kIndexHnsw;
      continue;
    }
    if (arg == "--index=lsh") {
      index_kind = kIndexLsh;
      continue;
    }
    if (arg.rfind("--ef=", 0) == 0) {
      ef = std::max(1, std::atoi(arg.c_str() + 5));
      continue;
    }
    if (arg == "--async") {
      use_async = true;
      continue;
    }
    if (arg.rfind("--qps=", 0) == 0) {
      qps = std::max(1, std::atoi(arg.c_str() + 6));
      use_async = true;
      continue;
    }
    args.push_back(arg);
  }
  const size_t n = args.size();
  if (n < 1) return Usage();
  const std::string& cmd = args[0];
  if (cmd == "generate" && n == 4) {
    return CmdGenerate(args[1], std::atoi(args[2].c_str()), args[3]);
  }
  if (cmd == "pretrain" && n == 3) return CmdPretrain(args[1], args[2]);
  if (cmd == "encode" && n == 4) {
    return CmdEncode(args[1], args[2], std::atoi(args[3].c_str()));
  }
  if (cmd == "eval" && n == 2) return CmdEval(args[1]);
  if (cmd == "save-model" && n == 3) return CmdSaveModel(args[1], args[2]);
  if (cmd == "load-model" && n == 3) return CmdLoadModel(args[1], args[2]);
  if (cmd == "build-service" && n == 3) {
    return CmdBuildService(args[1], args[2], shards, index_kind, ef);
  }
  if (cmd == "query" && n >= 4) {
    std::vector<std::string> rest(args.begin() + 3, args.end());
    return CmdQuery(args[1], args[2], rest, shards, quantized_r, index_kind,
                    ef, use_async, qps);
  }
  if (cmd == "inspect" && n == 3) {
    return CmdInspect(args[1], std::atoi(args[2].c_str()));
  }
  if (cmd == "inspect" && n == 2) return CmdInspectSnapshot(args[1]);
  return Usage();
}
