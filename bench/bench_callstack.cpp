/// E9 — costs of the PerfSuite/libpsx extensions (paper Sec. IV-F):
/// callstack capture at a join event, instruction-pointer symbolization
/// (region hit vs. dynamic-symbol vs. unknown), and offline user-model
/// reconstruction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "perf/psx.h"
#include "translate/region_registry.hpp"
#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"
#include "unwind/user_model.hpp"

namespace {

/// Build some genuine stack depth, then time the captures there (the
/// recursion itself stays outside the timed loop).
__attribute__((noinline)) void capture_loop_at_depth(benchmark::State& state,
                                                     int depth) {
  if (depth > 0) {
    capture_loop_at_depth(state, depth - 1);
    benchmark::ClobberMemory();  // after the call: no tail call
    return;
  }
  std::size_t frames = 0;
  for (auto _ : state) {
    frames = orca::unwind::Callstack::capture().depth();
    benchmark::DoNotOptimize(frames);
  }
  state.SetLabel("frames=" + std::to_string(frames));
}

void BM_CallstackCapture(benchmark::State& state) {
  capture_loop_at_depth(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CallstackCapture)->Arg(4)->Arg(16)->Arg(48);

void BM_PsxCallstackGet(benchmark::State& state) {
  const void* frames[64];
  for (auto _ : state) {
    benchmark::DoNotOptimize(psx_callstack_get(frames, 64, 0));
  }
}
BENCHMARK(BM_PsxCallstackGet);

void BM_Symbolize_RegionHit(benchmark::State& state) {
  // A registered outlined-region address: the exact-match fast path.
  const int dummy = 0;
  orca::translate::RegionRegistry::instance().add(
      &dummy, {"bench_fn", "bench.cpp", 42, "parallel"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::symbolize(&dummy));
  }
}
BENCHMARK(BM_Symbolize_RegionHit);

void BM_Symbolize_Dladdr(benchmark::State& state) {
  // A dynamic symbol (from libc): the BFD-equivalent lookup.
  const void* addr = reinterpret_cast<const void*>(&std::printf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::symbolize(addr));
  }
}
BENCHMARK(BM_Symbolize_Dladdr);

void BM_Symbolize_Unknown(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orca::unwind::symbolize(reinterpret_cast<const void*>(0x10)));
  }
}
BENCHMARK(BM_Symbolize_Unknown);

void BM_UserModelReconstruct(benchmark::State& state) {
  // A realistic join-time stack snapshot, reconstructed offline per sample.
  const auto raw = orca::unwind::Callstack::capture().to_vector();
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::reconstruct(raw, nullptr));
  }
  state.SetLabel("frames=" + std::to_string(raw.size()));
}
BENCHMARK(BM_UserModelReconstruct);

void BM_PsxTimerRead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(psx_timer_read());
  }
}
BENCHMARK(BM_PsxTimerRead);

}  // namespace

BENCHMARK_MAIN();
