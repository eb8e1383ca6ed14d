// Exhaustive check of the AVX2 transcendental kernels against the
// running libm, bit for bit:
//   - libm_avx2::Tanh against std::tanh on all 2^32 float bit patterns
//     (NaNs included, compared by bits);
//   - libm_avx2::Exp against std::exp on every float in
//     [-1000, 0], the range the attention softmax evaluates.
// tests/kernels_test.cc samples the same contract in tier 1; this is the
// full proof, about 20 s on 4 threads of a recent x86-64 core.
//
// Usage: libm_sweep [--threads=N]
// Exit status: 0 when every bit matches (or, with a SKIPPED line, when
// the CPU lacks AVX2+FMA and there is nothing to check), 1 on any
// mismatch (the first few are printed with the glibc version).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/libm_avx2.h"

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#if TABBIN_LIBM_AVX2

namespace {

using tabbin::kernels::Dispatch;
namespace port = tabbin::kernels::libm_avx2;

const char* LibcVersion() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "unknown (not glibc)";
#endif
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Inclusive bit-pattern range [lo, hi] (64-bit so the full space fits).
struct Range {
  uint64_t lo, hi;
};

struct SweepResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

// Compares port(x) with reference(x) for every pattern in the ranges,
// split into chunks that `threads` workers pull from one counter.
SweepResult Sweep(const char* name, const std::vector<Range>& ranges,
                  void (*port)(const float*, float*, size_t),
                  float (*reference)(float), int threads) {
  constexpr uint64_t kChunk = 1 << 16;
  struct Chunk {
    uint64_t lo, hi;  // [lo, hi)
  };
  std::vector<Chunk> chunks;
  for (const Range& r : ranges) {
    for (uint64_t lo = r.lo; lo <= r.hi; lo += kChunk) {
      chunks.push_back({lo, std::min(lo + kChunk, r.hi + 1)});
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> checked{0}, mismatches{0};
  std::mutex print_mu;
  auto worker = [&] {
    std::vector<float> in(kChunk), out(kChunk);
    for (size_t c = next++; c < chunks.size(); c = next++) {
      const size_t n = static_cast<size_t>(chunks[c].hi - chunks[c].lo);
      for (size_t i = 0; i < n; ++i) {
        in[i] = FromBits(static_cast<uint32_t>(chunks[c].lo + i));
      }
      port(in.data(), out.data(), n);
      uint64_t bad = 0;
      for (size_t i = 0; i < n; ++i) {
        const float want = reference(in[i]);
        if (Bits(want) == Bits(out[i])) continue;
        if (mismatches + bad < 10) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::printf("MISMATCH %s(0x%08x = %a): port 0x%08x, libm 0x%08x\n",
                      name, Bits(in[i]), static_cast<double>(in[i]),
                      Bits(out[i]), Bits(want));
        }
        ++bad;
      }
      checked += n;
      mismatches += bad;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return {checked.load(), mismatches.load()};
}

float StdTanh(float x) { return std::tanh(x); }
float StdExp(float x) { return std::exp(x); }

int RunSweeps(int threads) {
  std::printf("libm_sweep: glibc %s, %d threads\n", LibcVersion(), threads);
  struct Job {
    const char* name;
    std::vector<Range> ranges;
    void (*port)(const float*, float*, size_t);
    float (*reference)(float);
  };
  const Job jobs[] = {
      {"tanh", {{0, 0xffffffffull}}, port::Tanh, StdTanh},
      // +0, then -0 down to -1000 (the negative patterns ascend with
      // magnitude).
      {"exp", {{0, 0}, {Bits(-0.0f), Bits(-1000.0f)}}, port::Exp, StdExp},
  };
  uint64_t total_mismatches = 0;
  for (const Job& job : jobs) {
    const auto start = std::chrono::steady_clock::now();
    const SweepResult r =
        Sweep(job.name, job.ranges, job.port, job.reference, threads);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::printf("%-4s: %llu inputs, %llu mismatches (%.1f s)\n", job.name,
                static_cast<unsigned long long>(r.checked),
                static_cast<unsigned long long>(r.mismatches), secs);
    total_mismatches += r.mismatches;
  }
  if (total_mismatches != 0) {
    std::printf("FAIL: the AVX2 ports disagree with this libm (glibc %s)\n",
                LibcVersion());
    return 1;
  }
  std::printf("OK: every checked input matches libm bit for bit\n");
  return 0;
}

}  // namespace

#endif  // TABBIN_LIBM_AVX2

int main(int argc, char** argv) {
  int threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = std::max(1, std::min(64, std::atoi(arg.c_str() + 10)));
    } else {
      std::fprintf(stderr, "usage: %s [--threads=N]\n", argv[0]);
      return 2;
    }
  }
#if TABBIN_LIBM_AVX2
  if (tabbin::kernels::Detect(/*force_scalar=*/false) == Dispatch::kAvx2) {
    return RunSweeps(threads);
  }
#else
  (void)threads;
#endif
  std::printf("SKIPPED: no AVX2+FMA on this CPU, nothing to check\n");
  return 0;
}
