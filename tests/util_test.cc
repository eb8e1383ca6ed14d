// Unit tests for src/util: Status/Result, Rng, string utilities,
// serialization and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace tabbin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kNotFound, StatusCode::kAlreadyExists,
                    StatusCode::kOutOfRange, StatusCode::kUnimplemented,
                    StatusCode::kInternal, StatusCode::kIoError,
                    StatusCode::kParseError,
                    StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalfIfEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  TABBIN_ASSIGN_OR_RETURN(int half, HalfIfEven(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseAssignOrReturn(7, &out).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all 4 values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dE"), "abc de");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "->"), "a->b->c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("table", "tab"));
  EXPECT_FALSE(StartsWith("tab", "table"));
  EXPECT_TRUE(EndsWith("nested", "ted"));
  EXPECT_FALSE(EndsWith("ted", "nested"));
}

TEST(StringUtilTest, ParseNumberBasic) {
  EXPECT_DOUBLE_EQ(ParseNumber("20.3").value(), 20.3);
  EXPECT_DOUBLE_EQ(ParseNumber("-7").value(), -7.0);
  EXPECT_DOUBLE_EQ(ParseNumber("1,234.5").value(), 1234.5);
  EXPECT_DOUBLE_EQ(ParseNumber(" 42 ").value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseNumber("1e3").value(), 1000.0);
}

TEST(StringUtilTest, ParseNumberRejectsNonNumbers) {
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("abc").has_value());
  EXPECT_FALSE(ParseNumber("12 months").has_value());
  EXPECT_FALSE(ParseNumber("20-30").has_value());
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
}

TEST(SerializeTest, RoundTripPrimitives) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteU64(1ULL << 40);
  w.WriteI64(-12345);
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("hello");
  w.WriteF32Vector({1.0f, 2.0f, 3.0f});

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU32().value(), 7u);
  EXPECT_EQ(r.ReadU64().value(), 1ULL << 40);
  EXPECT_EQ(r.ReadI64().value(), -12345);
  EXPECT_FLOAT_EQ(r.ReadF32().value(), 1.5f);
  EXPECT_DOUBLE_EQ(r.ReadF64().value(), 2.25);
  EXPECT_EQ(r.ReadString().value(), "hello");
  auto v = r.ReadF32Vector().value();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_FLOAT_EQ(v[2], 3.0f);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ReadPastEndFails) {
  BinaryWriter w;
  w.WriteU32(1);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU64().ok());
}

// A borrowing reader parses bytes it does not own (a mapped snapshot
// section); it must be indistinguishable from an owning reader over the
// same bytes, except that TakeBuffer has to copy.
static_assert(!std::is_copy_constructible_v<BinaryReader> &&
                  !std::is_copy_assignable_v<BinaryReader> &&
                  std::is_nothrow_move_constructible_v<BinaryReader> &&
                  std::is_nothrow_move_assignable_v<BinaryReader>,
              "BinaryReader is move-only");

std::vector<uint8_t> MixedRecord() {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteI32(-3);
  w.WriteU64(1ULL << 40);
  w.WriteI64(-12345);
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("a string longer than the small-string buffer");
  w.WriteF32Vector({1.0f, 2.0f, 3.0f});
  w.WriteU64(3);
  w.WriteBytes("xyz", 3);
  const int32_t ids[4] = {4, -1, 9, 16};
  w.WriteBytes(ids, sizeof(ids));
  return std::move(w).TakeBuffer();
}

// Reads MixedRecord's fields back in order; every value read is
// appended to `out` as text so two readers can be compared whole.
void ReadMixedRecord(BinaryReader* r, std::vector<std::string>* out) {
  out->push_back(std::to_string(r->ReadU32().value()));
  out->push_back(std::to_string(r->ReadI32().value()));
  out->push_back(std::to_string(r->ReadU64().value()));
  out->push_back(std::to_string(r->ReadI64().value()));
  out->push_back(std::to_string(r->ReadF32().value()));
  out->push_back(std::to_string(r->ReadF64().value()));
  out->push_back(r->ReadString().value());
  const std::vector<float> floats = r->ReadF32Vector().value();
  for (float f : floats) out->push_back(std::to_string(f));
  const uint64_t n = r->ReadU64().value();
  const std::vector<uint8_t> raw = r->ReadBytes(n).value();
  out->push_back(std::string(raw.begin(), raw.end()));
  int32_t ids[4] = {};
  ASSERT_TRUE(r->ReadI32Into(ids, 4).ok());
  for (int32_t id : ids) out->push_back(std::to_string(id));
}

TEST(SerializeTest, BorrowedReaderReadsWhatOwnedReaderReads) {
  const std::vector<uint8_t> bytes = MixedRecord();
  BinaryReader owned(bytes);
  BinaryReader borrowed(bytes.data(), bytes.size());
  std::vector<std::string> a, b;
  ReadMixedRecord(&owned, &a);
  ReadMixedRecord(&borrowed, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[6], "a string longer than the small-string buffer");
  EXPECT_TRUE(owned.AtEnd());
  EXPECT_TRUE(borrowed.AtEnd());
  EXPECT_EQ(owned.position(), borrowed.position());
}

TEST(SerializeTest, BorrowedReaderEveryReadPastEndIsOutOfRange) {
  const std::vector<uint8_t> bytes = MixedRecord();
  // Every prefix of the record, read through a borrowing reader: the
  // first read that needs bytes beyond the prefix fails OutOfRange,
  // and so does every kind of read at the end.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    BinaryReader r(bytes.data(), cut);
    StatusCode code = StatusCode::kOk;
    const auto check = [&](const Status& st) {
      if (code == StatusCode::kOk && !st.ok()) code = st.code();
    };
    check(r.ReadU32().status());
    check(r.ReadI32().status());
    check(r.ReadU64().status());
    check(r.ReadI64().status());
    check(r.ReadF32().status());
    check(r.ReadF64().status());
    check(r.ReadString().status());
    check(r.ReadF32Vector().status());
    auto n = r.ReadU64();
    check(n.status());
    if (n.ok()) check(r.ReadBytes(n.value()).status());
    int32_t ids[4] = {};
    check(r.ReadI32Into(ids, 4));
    EXPECT_EQ(code, StatusCode::kOutOfRange);
    EXPECT_LE(r.position(), cut);
  }
  BinaryReader end(bytes.data() + bytes.size(), 0);
  EXPECT_TRUE(end.AtEnd());
  EXPECT_EQ(end.ReadU32().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadI32().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadU64().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadI64().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadF32().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadF64().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadString().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadF32Vector().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(end.ReadBytes(1).status().code(), StatusCode::kOutOfRange);
  int32_t one = 0;
  EXPECT_EQ(end.ReadI32Into(&one, 1).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(end.ReadBytes(0).ok());
}

TEST(SerializeTest, BorrowedTakeBufferCopiesAndMovesKeepTheView) {
  std::vector<uint8_t> bytes = MixedRecord();
  const std::vector<uint8_t> original = bytes;
  BinaryReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(r.ReadU32().ok());  // TakeBuffer ignores the position

  // A moved reader carries its view and position; the source is empty.
  // The view is live: it reads the borrowed bytes as they are now.
  BinaryReader moved(std::move(r));
  EXPECT_EQ(moved.position(), 4u);
  bytes[4] = 0x05;  // the i32 at offset 4 was -3, 0xfffffffd
  EXPECT_EQ(moved.ReadI32().value(), -251);  // 0xffffff05
  bytes[4] = original[4];
  EXPECT_TRUE(r.AtEnd());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kOutOfRange);

  std::vector<uint8_t> taken = std::move(moved).TakeBuffer();
  EXPECT_EQ(taken, original);
  EXPECT_NE(taken.data(), bytes.data());
  // The copy is independent of the borrowed bytes.
  bytes[0] ^= 0xff;
  EXPECT_EQ(taken, original);

  // An owning reader still hands its own buffer over.
  BinaryReader owning(original);
  EXPECT_EQ(std::move(owning).TakeBuffer(), original);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(500);
  ParallelFor(0, 500, [&hits](size_t i) { hits[i]++; }, /*grain=*/16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Workers claim blocks dynamically, so a few slow indices must neither
// drop nor repeat any index: grain 1, a grain past the range (inline),
// and a range that is not a multiple of the grain (short last block).
TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnceUnderUnevenCost) {
  ThreadPool pool(4);
  for (const auto& [n, grain] : std::vector<std::pair<size_t, size_t>>{
           {203, 1}, {50, 64}, {1001, 16}, {97, 0}}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(
        pool, 0, n,
        [&hits](size_t i) {
          if (i % 17 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(300));
          }
          hits[i]++;
        },
        grain);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n " << n << " grain " << grain
                                   << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForOnOneWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(
      pool, 0, 100,
      [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      /*grain=*/1);
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ParallelFor(5, 5, [](size_t) { FAIL() << "must not be called"; });
}

// Regression: Submit after Shutdown used to enqueue a task no worker
// would ever pop, so the returned future hung its waiter forever. The
// fix runs the task inline and returns an already-satisfied future.
TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran++; }).get();
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  const auto caller = std::this_thread::get_id();
  std::thread::id task_thread;
  auto fut = pool.Submit([&] {
    ran++;
    task_thread = std::this_thread::get_id();
  });
  // Pre-fix this get() never returned; a hung test is the failure mode.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  fut.get();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(task_thread, caller) << "post-shutdown task must run inline";
}

TEST(ThreadPoolTest, SubmitAfterShutdownPropagatesException) {
  ThreadPool pool(1);
  pool.Shutdown();
  auto fut = pool.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

// Regression: ParallelFor called from a pool worker used to submit its
// chunks to the same global pool and block on their futures; with every
// worker blocked that way the chunks could never run and the pool
// wedged permanently. The fix detects the worker context and runs
// inline. This saturates a 4-worker pool with tasks that all nest a
// ParallelFor large enough to fan out — pre-fix this deadlocks (the
// ctest timeout is the failure), post-fix it completes. A local pool
// (not Global()) keeps the test meaningful on single-core machines,
// where the global pool has one worker and never fans out at all.
TEST(ThreadPoolTest, NestedParallelForInsidePoolWorkerRunsInline) {
  ThreadPool pool(4);
  const size_t n_tasks = pool.num_threads() * 3;
  const size_t inner_n = 4096;  // > grain below, so it WOULD fan out
  std::atomic<size_t> total{0};
  std::vector<std::future<void>> futs;
  futs.reserve(n_tasks);
  for (size_t t = 0; t < n_tasks; ++t) {
    futs.push_back(pool.Submit([&pool, &total, inner_n] {
      EXPECT_TRUE(ThreadPool::InPoolWorker());
      ParallelFor(pool, 0, inner_n, [&total](size_t) { total++; },
                  /*grain=*/64);
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(total.load(), n_tasks * inner_n);
  EXPECT_FALSE(ThreadPool::InPoolWorker());
}

// Regression: the submitted chunk lambdas capture fn by reference, and
// f.get() used to rethrow the first chunk's exception while later
// chunks were still queued — those then invoked a dangling reference
// once the caller's std::function unwound (stack-use-after-scope under
// ASan). The fix drains every chunk before propagating. Every
// non-throwing index must still have executed by the time the
// exception reaches the caller.
TEST(ThreadPoolTest, ParallelForThrowingFnDrainsAllChunksFirst) {
  // Explicit 4-worker pool: the drain path only exists when fan-out
  // happens, and the global pool on a single-core machine never fans
  // out (serial fallback).
  ThreadPool pool(4);
  const size_t n = 8192;
  std::vector<std::atomic<int>> hits(n);
  bool threw = false;
  try {
    // Temporary lambda: pre-fix, its std::function dies on unwind while
    // queued chunks still point at it.
    ParallelFor(
        pool, 0, n,
        [&hits](size_t i) {
          if (i == 1) throw std::runtime_error("chunk boom");
          hits[i]++;
        },
        /*grain=*/64);
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "chunk boom");
  }
  EXPECT_TRUE(threw);
  // The throwing chunk aborts at the throw, but every OTHER chunk must
  // have fully completed before the exception escaped. The throw lands
  // in chunk 0 (index 1) and chunk 0 never spans past n/2 (fan-out
  // always makes >= 2 chunks), so the whole second half is proof.
  for (size_t i = (n + 1) / 2; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i
                                 << " skipped: chunks were not drained";
  }
}

}  // namespace
}  // namespace tabbin
