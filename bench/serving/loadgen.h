// Seeded workload inputs and the open-loop load generator of
// serving_bench.
//
// Everything a run sends is generated here from one seed before the
// clock starts: the corpus, the ad-hoc query pool, the tables the write
// stream adds, the Ask questions, and the request schedule (kind,
// target, scheduled arrival). The serving stack only ever sees those
// generated inputs.
//
// The load is open loop: the sender submits each request at its
// scheduled time whether or not earlier ones have finished, and every
// latency is measured from the SCHEDULED arrival, so a stall is charged
// to every request queued behind it. When the sender falls behind it
// submits all overdue requests at once and records how late it was
// (gen.lag_p99_us). One collector thread per executor lane waits on the
// futures in submission order; the executor resolves each lane FIFO, so
// the collector stamps each completion as it happens.
#ifndef TABBIN_BENCH_SERVING_LOADGEN_H_
#define TABBIN_BENCH_SERVING_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/service_types.h"
#include "table/table.h"

namespace tabbin {
namespace servingbench {

enum class Kind : uint8_t {
  kColumns,
  kTables,
  kEntities,
  kAsk,
  kAdd,
  kRemove,
};

inline bool IsSimilar(Kind k) {
  return k == Kind::kColumns || k == Kind::kTables || k == Kind::kEntities;
}
inline bool IsWrite(Kind k) { return k == Kind::kAdd || k == Kind::kRemove; }

/// One scheduled request. `table` indexes the corpus (id-addressed
/// reads), the ad-hoc pool (inline reads) or the fresh pool (writes).
struct Request {
  int64_t at_ns = 0;  // scheduled arrival, from the start of the load phase
  Kind kind = Kind::kColumns;
  int step = 0;  // index into WorkloadSpec::steps
  bool inline_table = false;
  int table = 0;
  int row = 0;
  int col = 0;
  int question = 0;
};

/// One constant-rate stretch of the read stream.
struct Step {
  double qps = 0;
  double seconds = 0;
};

struct WorkloadSpec {
  std::string name;
  int tables = 0;
  int shards = 1;
  /// Served from a saved v2 snapshot with HNSW sections, opened mapped,
  /// with the graph walk (ef 96) and the int8 scan (r = 4) switched on.
  bool cold = false;
  std::vector<Step> steps;
  /// Shares of the read stream sent as inline Similar* and as Ask; the
  /// rest is id-addressed Similar* (columns 40%, tables 30%, entities
  /// 30% on every workload).
  double share_inline = 0;
  double share_ask = 0;
  int adhoc_pool = 0;
  double write_qps = 0;
  /// When the compactor thread calls Compact(), in seconds from the
  /// start of the schedule.
  std::vector<double> compact_at_s;
  /// Leading seconds of traffic dropped from the latency metrics (not
  /// from the failure count); the measured interval follows.
  double warmup_s = 0;
  /// Total schedule length: warm-up plus the measured seconds.
  double seconds() const;
  /// The interval the read-latency metrics cover: from the end of the
  /// warm-up to the end of the first step.
  double read_from_s() const { return warmup_s; }
  double read_to_s() const { return steps.empty() ? 0 : steps[0].seconds; }
};

/// Latency percentiles are taken per window of the measured interval
/// and the lower quartile over the windows is reported, so a host-wide
/// slowdown (another tenant, a page-cache flush) moves a run's value
/// only when it covers more than three quarters of the windows. A
/// change to the program moves every window alike.
inline constexpr int kWindows = 5;
inline constexpr double kAcrossWindows = 25;

/// The named workload measured for `seconds` (after its warm-up).
/// Unknown names return a spec with an empty name.
WorkloadSpec MakeSpec(const std::string& name, double seconds);

struct Inputs {
  std::vector<Table> corpus;  // indexed at set-up
  std::vector<Table> adhoc;   // inline query pool
  std::vector<Table> fresh;   // tables the write stream adds
  std::vector<std::string> questions;
  std::vector<Request> requests;  // ascending at_ns
};

/// Deterministic in (spec, seed).
Inputs Generate(const WorkloadSpec& spec, uint64_t seed);

/// Seed of an independent generator stream derived from the run seed,
/// so adding a pool never shifts another pool's draws.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// `n` generated tables, renamed `<id_prefix><i>` when a prefix is
/// given (the datagen ids would collide across pools).
std::vector<Table> GenerateTables(int n, uint64_t seed,
                                  const char* id_prefix);

/// The cold workload's runtime knobs: graph beam width and int8
/// shortlist multiplier.
inline constexpr int kColdEfSearch = 96;
inline constexpr int kColdShortlistMultiplier = 4;

/// Applies the workload's runtime scoring knobs (they are not
/// persisted by Save): HNSW and the int8 scan on cold workloads, the
/// LSH/exact-scan reference otherwise.
void ApplyKnobs(TabBinServing& serving, const WorkloadSpec& spec);

/// FNV-1a over every generated input (table ids and captions,
/// questions, the full request list).
uint64_t Digest(const Inputs& inputs);

/// Data cells the service indexes as entities: textual, un-nested data
/// cells in row-major order, at most `budget` of them.
std::vector<std::pair<int, int>> IndexedEntityCells(const Table& table,
                                                    int budget);

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples; 0 for
/// an empty set.
double Percentile(std::vector<double> samples, double p);

/// A (time, value) sample: seconds from the start of the schedule.
using Timed = std::pair<double, double>;

/// Splits [from, to) into kWindows equal windows, takes the p-th
/// percentile of each non-empty window and returns the `across`-th
/// percentile of those (kAcrossWindows for latency metrics).
double WindowedPercentile(const std::vector<Timed>& samples, double from,
                          double to, double p, double across);

inline double AtSeconds(const Request& r) {
  return static_cast<double>(r.at_ns) / 1e9;
}

/// Requests the read-latency metrics count, successful or not: the
/// id-addressed Similar* requests of the read interval
/// (WorkloadSpec::read_from_s). Every workload sends them with the same
/// kind mix, so the median sits inside the SimilarColumns mode instead
/// of between the modes inline encoding adds.
std::vector<size_t> ReadWindow(const Inputs& in, const WorkloadSpec& spec);

/// Per ladder step. Latencies in ms from scheduled arrival.
struct StepStats {
  double qps = 0;
  int sent = 0;
  int ok = 0;
  int failed = 0;  // shed + error
  double p50_ms = 0;
  double p99_ms = 0;
  double first_p50_ms = 0;  // first quarter of the step
  double last_p50_ms = 0;   // last quarter of the step
  double lag_p99_us = 0;
};

inline constexpr double kSloP99Ms = 10.0;
inline constexpr double kMaxLagUs = 1000.0;

/// p99 within the SLO, nothing failed, and no growing backlog (the last
/// quarter's p50 at most twice the first quarter's).
bool MeetsSlo(const StepStats& s);

/// Index of the highest step that meets the SLO; -1 when none does.
int CapacityStep(const std::vector<StepStats>& steps);

/// A run, or a ladder step at or below capacity, whose generator ran
/// more than 1 ms late at p99 measured the generator, not the service.
inline bool LagValid(double lag_p99_us) { return lag_p99_us <= kMaxLagUs; }

/// Every step at or below `capacity` (CapacityStep) kept its lag valid;
/// steps past capacity are overload probes and may run late.
bool LadderValid(const std::vector<StepStats>& steps, int capacity);

// --- Open-loop load ---------------------------------------------------------

enum class Code : uint8_t { kPending, kOk, kShed, kError };

struct Outcome {
  int64_t submit_ns = 0;    // sender clock when Submit* was called
  int64_t submitted_ns = 0;  // when Submit* returned (traced runs only)
  int64_t done_ns = 0;      // resolution stamp (submit time if shed)
  Code code = Code::kPending;
};

struct LoadResult {
  std::chrono::steady_clock::time_point t0;  // the outcomes' time origin
  std::vector<Outcome> outcomes;  // parallel to Inputs::requests
  /// Responses of every 50th Similar* request, kept for the
  /// byte-identity check against a direct call after the load phase.
  std::vector<std::pair<size_t, QueryResponse>> captured;
  /// (start, duration) of each Compact() on the compactor thread.
  std::vector<std::pair<int64_t, int64_t>> compactions;
  bool compact_failed = false;
};

inline constexpr size_t kCaptureEvery = 50;

/// Drives `serving` through a default-options AsyncExecutor with the
/// schedule in `in`. `timestamp_submits` records Submit* return times
/// for the traced run.
LoadResult RunLoad(TabBinServing& serving, const Inputs& in,
                   const WorkloadSpec& spec, bool timestamp_submits);

/// Windowed percentile (ms, from scheduled arrival) of the successful
/// requests in ReadWindow.
double ReadPercentileMs(const Inputs& in, const WorkloadSpec& spec,
                        const LoadResult& load, double p);

/// Request builders shared by the load phase and the direct replays.
ColumnQueryRequest ColumnRequest(const Inputs& in, const Request& r);
TableQueryRequest TableRequest(const Inputs& in, const Request& r);
EntityQueryRequest EntityRequest(const Inputs& in, const Request& r);
AskRequest AskFor(const Inputs& in, const Request& r);

}  // namespace servingbench
}  // namespace tabbin

#endif  // TABBIN_BENCH_SERVING_LOADGEN_H_
