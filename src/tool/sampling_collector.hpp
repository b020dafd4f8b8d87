/// \file sampling_collector.hpp
/// SIGPROF-driven sampling collector exercising the runtime's
/// async-signal-safe ORA query fast path.
///
/// The paper's collector model is event-driven: the tool registers
/// callbacks and the runtime calls out at fork/join/wait boundaries. This
/// collector is the complementary *interrupt-driven* profiler: a process
/// CPU-time interval timer (ITIMER_PROF) delivers SIGPROF to whichever
/// thread is running, and the handler queries the runtime *from signal
/// context* — legal only because the runtime answers STATE /
/// CURRENT_PRID / RESILIENCE_STATS buffers on a lock-free, allocation-free
/// path (docs/RESILIENCE.md). Samples land in per-thread `perf::SampleLane`s
/// mapped at start(); the handler claims a cell with one `fetch_add` and
/// performs no allocation, locking, or syscalls beyond what `sigaction(2)`
/// sanctions.
///
/// One instance per process (signal handlers carry no context pointer);
/// access it through `SamplingCollector::instance()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perf/samples.hpp"
#include "pipeline/aggregate.hpp"
#include "pipeline/pipeline.hpp"

namespace orca::tool {

/// Tuning for one sampling session.
struct SamplingOptions {
  int hz = 100;                  ///< SIGPROF frequency (process CPU time)
  std::size_t lane_capacity = 65536;  ///< preallocated samples per thread
  int max_threads = 64;          ///< per-thread lane slots
  bool crash_section = true;     ///< register a postmortem dump section

  /// Read ORCA_SAMPLING_HZ / ORCA_SAMPLING_LANE_CAPACITY /
  /// ORCA_SAMPLING_MAX_THREADS over these defaults, warning (and keeping
  /// the default) on misparse like every other ORCA_* knob.
  static SamplingOptions from_env();
};

/// Intermediate record of the region-report assembly: one sample's CPU
/// slice (in TSC ticks) attributed to a parallel region (0 = serial).
struct RegionSlice {
  std::uint64_t region = 0;
  std::uint64_t ticks = 0;
};

/// Aggregate counters of one sampling session.
struct SamplingStats {
  std::uint64_t handler_invocations = 0;  ///< SIGPROF deliveries observed
  std::uint64_t samples = 0;              ///< samples stored across lanes
  std::uint64_t dropped = 0;              ///< samples shed (lane full / no slot)
  std::uint64_t api_failures = 0;         ///< fast-path calls answering != 0
};

/// Process-wide SIGPROF sampling collector. start() installs the handler
/// and arms the timer; stop() disarms and restores the previous handler.
/// All query traffic goes through a raw function pointer (no std::function
/// — the handler must not touch anything that may allocate).
class SamplingCollector {
 public:
  /// Transport to the runtime. Must answer STATE/CURRENT_PRID buffers on
  /// the signal-safe fast path — `__omp_collector_api` of an ORCA runtime,
  /// or a capture-free trampoline in tests.
  using ApiFn = int (*)(void*);

  static SamplingCollector& instance();

  /// Install the SIGPROF handler and arm ITIMER_PROF at opts.hz. Returns
  /// false when already running or when the timer cannot be armed.
  bool start(ApiFn api, const SamplingOptions& opts = {});

  /// Disarm the timer, restore the previous SIGPROF disposition, and
  /// quiesce (samples become safe to merge). Idempotent.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  SamplingStats stats() const noexcept;

  /// Pump every retained sample, lane by lane, into a stage assembly —
  /// the sampler's source adapter onto the shared pipeline vocabulary
  /// (docs/PIPELINE.md). Returns the number pushed. Quiescent-side: call
  /// after stop(); the lanes are not consumed (pump again as needed).
  std::size_t pump(const pipeline::StagePtr<perf::EventSample>& head) const;

  /// Per-region CPU-time sketches: samples flow through a delta stage
  /// (tick gap to the lane's previous sample ≈ CPU time charged at the
  /// sampling rate) into a bounded online aggregate keyed by region id —
  /// region 0 is serial execution. Constant-memory: at most `max_regions`
  /// keys plus one overflow row. Quiescent-side: call after stop().
  std::vector<pipeline::AggregateRow> region_report(
      std::size_t max_regions = 256) const;

  /// region_report() rendered as an aligned text table.
  std::string render_region_report(std::size_t max_regions = 256) const;

  /// Drop all recorded samples and counters (quiescent-side).
  void clear();

  SamplingCollector(const SamplingCollector&) = delete;
  SamplingCollector& operator=(const SamplingCollector&) = delete;

 private:
  SamplingCollector() = default;

  static void handle_sigprof(int);
  static void crash_section(void* ctx, int fd);
  void on_sigprof() noexcept;

  ApiFn api_ = nullptr;
  std::vector<std::unique_ptr<perf::SampleLane>> lanes_;
  std::atomic<int> next_lane_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> handler_invocations_{0};
  std::atomic<std::uint64_t> unassigned_drops_{0};
  std::atomic<std::uint64_t> api_failures_{0};
  int crash_slot_ = -1;
  bool timer_armed_ = false;
  bool handler_installed_ = false;
};

}  // namespace orca::tool
