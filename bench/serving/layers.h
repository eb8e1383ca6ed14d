// Spans and the per-layer replay of serving_bench's traced run.
//
// Every span is recorded from the benchmark's own code, around a call
// into one layer's public entry point: Submit* and its resolution
// (exec), direct TabBinServing calls and the set-up/persistence calls
// (service), EncoderEngine::Encode (core), LshIndex::Query (tasks),
// HnswIndex::Search (index), the cosine and int8 kernels (tensor), and
// PagedSnapshotReader::Open (store). Spans stay in memory and are
// written as Chrome trace-event JSON when the run ends; the per-layer
// metrics are derived from them.
#ifndef TABBIN_BENCH_SERVING_LAYERS_H_
#define TABBIN_BENCH_SERVING_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/serving/loadgen.h"
#include "bench/serving/oracle.h"

namespace tabbin {
namespace servingbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One timed call. `req` ties the spans of one request together
/// (-1 for run-level spans); `parent` is the id of the enclosing span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // since the trace origin
  int64_t dur_ns = 0;
  int64_t req = -1;
  int id = 0;
  int parent = -1;
  int64_t count = 0;  // work items the call handled, where meaningful
};

/// Single-threaded span recorder.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace() : origin_(Clock::now()) {}

  int64_t Since(Clock::time_point t) const {
    return (t - origin_).count();
  }
  int64_t Now() const { return Since(Clock::now()); }

  int Add(const char* name, int64_t start_ns, int64_t dur_ns,
          int64_t req = -1, int parent = -1, int64_t count = 0);

  /// Runs fn() inside one span and returns the span id.
  template <typename Fn>
  int Time(const char* name, int64_t req, int parent, Fn&& fn) {
    const int64_t start = Now();
    fn();
    return Add(name, start, Now() - start, req, parent);
  }

  const std::vector<Span>& spans() const { return spans_; }
  Span& span(int id) { return spans_[static_cast<size_t>(id)]; }

  /// Durations (µs) of every span called `name`.
  std::vector<double> Micros(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, µs timestamps); args carry the
  /// request id, span id, parent id and count.
  bool WriteChrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct LayerContext {
  TabBinServing* serving = nullptr;  // traced serving after its load phase
  const Inputs* in = nullptr;
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  const LoadResult* traced = nullptr;
  const Embeddings* emb = nullptr;
  double untraced_read_p50_ms = 0;
  /// Cold workloads: the prepared snapshot. Otherwise the traced
  /// serving is saved here so store/load costs are measured too.
  std::string snapshot_path;
};

/// Records the traced load phase as spans, replays its requests
/// synchronously layer by layer, and derives the per-layer metrics.
/// Mutates the serving at the end (probe writes and a Compact). Appends
/// human-readable consistency notes to `notes`.
Metrics ReplayLayers(const LayerContext& ctx, Trace* trace,
                     std::vector<std::string>* notes);

}  // namespace servingbench
}  // namespace tabbin

#endif  // TABBIN_BENCH_SERVING_LAYERS_H_
