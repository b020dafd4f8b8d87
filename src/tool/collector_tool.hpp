/// \file collector_tool.hpp
/// The prototype performance measurement tool of paper Sec. V.
///
/// "The tool is a shared object that is LD_PRELOAD'ed to the target's
/// address space. It includes an init section that queries the runtime
/// linker for the presence of the OpenMP API symbol. If the symbol is
/// present, the tool initiates a start request and registers for the fork,
/// join, and implicit barrier events. The callback routine that is invoked
/// each time a registered event occurs at runtime stores a sample of a
/// hardware-based time counter. Furthermore, to estimate the potential
/// overheads from callstack retrieval, the tool also records the current
/// implementation-model callstack for each join event."
///
/// `PrototypeCollector` is that tool as an in-process singleton (the
/// LD_PRELOAD packaging is an artifact of deployment, not behaviour): same
/// discovery, same default event set, same per-event actions, plus the
/// offline finalize step that reconstructs the user-model profile.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "collector/api.h"
#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "perf/counter.hpp"
#include "perf/samples.hpp"
#include "perf/trace.hpp"
#include "tool/client2.hpp"
#include "unwind/user_model.hpp"

namespace orca::tool {

/// What the tool registers for and how much it measures. The `measure` /
/// `record_callstacks` switches carve the overhead into the paper's two
/// components (Sec. V-B): callback/communication vs. measurement/storage.
struct ToolOptions {
  /// Events to register. Default = the paper's set: fork, join, implicit
  /// barrier begin/end.
  std::vector<OMP_COLLECTORAPI_EVENT> events = {
      OMP_EVENT_FORK, OMP_EVENT_JOIN, OMP_EVENT_THR_BEGIN_IBAR,
      OMP_EVENT_THR_END_IBAR};

  /// Store time-counter samples (false = callbacks return immediately
  /// after bumping a counter: the "communication only" arm of E6).
  bool measure = true;

  /// Record the implementation-model callstack at each join event.
  bool record_callstacks = true;

  /// Query the current region id at join (one extra runtime↔collector
  /// round trip per region — "communication" cost).
  bool query_region_ids = true;

  /// Tag join callstack records with the region's outlined procedure via
  /// the `__ompc_get_current_region_fn` ORCA extension, giving the offline
  /// pass exact pragma coordinates. Off by default: a portable ORA tool
  /// only has the callstack.
  bool use_region_fn_extension = false;

  // --- selective collection (paper Sec. VI) -------------------------------
  // "To control the runtime overheads, tools can reduce the number of
  // times data is collected by distinguishing between either the same
  // parallel region or the calling context for a parallel region."

  /// Record the join callstack only every Nth join (1 = every join).
  std::uint64_t callstack_sampling_interval = 1;

  /// Skip callstack recording for regions shorter than this ("we want to
  /// avoid doing so for insignificant events and small parallel regions",
  /// paper Sec. IV). 0 disables the filter.
  double min_region_seconds = 0.0;

  /// Record each distinct calling context only once: later joins with an
  /// already-seen callstack are counted but not stored.
  bool dedup_by_context = false;

  /// Per-thread event-sample capacity (preallocated; overflow drops).
  std::size_t sample_capacity = 1u << 20;

  /// Lanes in the sample store: one per OS thread that calls back during
  /// a session (configure()/reset() to the next). Threads past this many
  /// share the last lane, and the report counts them.
  std::size_t thread_slots = 65;

  perf::CounterSource counter = perf::CounterSource::kTsc;
};

/// Aggregated per-region statistics (master-thread fork→join intervals).
struct RegionStats {
  unsigned long region_id = 0;
  std::uint64_t invocations = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
};

/// One line of the user-model callstack profile.
using CallstackProfileEntry = unwind::ProfileEntry;

/// Aggregated time spent between one begin/end event pair ("OpenMP
/// specific performance metrics", paper Sec. VI): e.g. total implicit-
/// barrier time per thread from BEGIN_IBAR/END_IBAR samples.
struct IntervalStats {
  int begin_event = 0;  ///< OMP_COLLECTORAPI_EVENT value of the begin
  int tid = 0;
  std::uint64_t intervals = 0;
  double total_seconds = 0;
};

/// Finalized measurement report (the offline phase's output).
struct Report {
  std::uint64_t total_events = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t callback_invocations = 0;
  std::map<int, std::uint64_t> event_counts;        ///< event -> count
  std::vector<RegionStats> regions;                 ///< by region id
  /// JOINs that found no open FORK on their thread (lane and gtid), e.g.
  /// after attaching mid-region, or threads past `thread_slots` that
  /// share a lane and a gtid.
  std::uint64_t unpaired_joins = 0;
  /// Threads past `thread_slots` this session; they shared the last lane.
  std::uint64_t threads_sharing_lane = 0;
  /// By samples descending, then rendered text ascending.
  std::vector<CallstackProfileEntry> callstack_profile;
  std::vector<IntervalStats> intervals;             ///< per (event, tid)

  /// Human-readable rendering (tables for events, regions, callstacks).
  std::string render() const;
};

/// The sample-driven part of the offline phase over tick-ordered samples:
/// total_events, event_counts, regions, unpaired_joins and intervals.
Report analyze_samples(std::span<const perf::EventSample> samples,
                       const perf::HwTimeCounter& counter);

/// Nesting depth the small-region filter tracks per thread; joins of
/// regions nested deeper are never filtered.
inline constexpr std::size_t kForkStackDepth = 8;

/// The prototype collector. Singleton because ORA callbacks are plain
/// function pointers (one tool per process, like an LD_PRELOAD object).
class PrototypeCollector {
 public:
  static PrototypeCollector& instance();

  PrototypeCollector(const PrototypeCollector&) = delete;
  PrototypeCollector& operator=(const PrototypeCollector&) = delete;

  /// Discover the API, send START, and register the configured events.
  /// Returns false when the symbol is absent or START fails.
  bool attach(ToolOptions opts = {});

  /// Prepare options/store without touching any runtime. Use together with
  /// `raw_callback()` when the tool must be wired to several runtimes
  /// (MiniMPI: one collector registration per rank, performed on each rank
  /// thread, all feeding this tool's shared sample store).
  void configure(ToolOptions opts);

  /// The tool's event callback, for manual registration from rank threads.
  static OMP_COLLECTORAPI_CALLBACK raw_callback() noexcept {
    return &PrototypeCollector::event_callback;
  }

  /// Send STOP and unhook. Data collected so far remains available to
  /// finalize().
  void detach();

  /// Suppress / re-enable event generation without losing registration.
  bool pause();
  bool resume();

  bool attached() const noexcept { return attached_; }

  /// Offline phase: aggregate samples, pair fork/join intervals, and
  /// reconstruct the user-model callstack profile.
  Report finalize() const;

  /// Raw collected data (for the trace-spill workflow and tests).
  perf::TraceData trace_data() const;

  /// Drop all collected data (between experiment arms).
  void reset();

  /// Callbacks entered so far (counted independently of stored samples).
  std::uint64_t callback_invocations() const noexcept;

  /// Threads that took a lane since the last configure()/reset().
  std::uint64_t lanes_claimed() const noexcept {
    return next_lane_.load(std::memory_order_relaxed);
  }

  /// Join callstacks skipped by the selective-collection filters.
  std::uint64_t callstacks_filtered() const noexcept {
    return filtered_count_.load(std::memory_order_relaxed);
  }

 private:
  PrototypeCollector() = default;

  static void event_callback(OMP_COLLECTORAPI_EVENT event);
  void on_event(OMP_COLLECTORAPI_EVENT event);

  /// This thread's lane in the current session, taken on its first event.
  std::size_t claim_lane() noexcept;

  /// Small-region filter bookkeeping: remember a fork on this thread's
  /// fork stack / pop the fork a join closes (0 = unknown).
  void push_fork(std::uint64_t fork_ticks) noexcept;
  std::uint64_t pop_fork() noexcept;

  /// Pre-capture filters (small-region, sampling): false = skip even the
  /// callstack capture. Updates the sampling counter.
  bool passes_cheap_filters(std::uint64_t join_ticks);

  /// Post-capture filter: calling-context dedup over the frame hash.
  bool passes_dedup(const std::vector<const void*>& frames);

  // Read by every callback, written only by configure()/attach()/reset():
  // on lines of their own, so no callback write ever invalidates them.
  alignas(kCacheLineSize) ToolOptions opts_;
  std::optional<collector::Client> client_;
  std::unique_ptr<perf::SampleStore> store_;
  /// Callbacks counted per lane, beside the store's lanes.
  std::vector<CachePadded<std::atomic<std::uint64_t>>> callback_counts_;
  perf::HwTimeCounter counter_;
  /// Bumped by configure()/reset(): lane claims and fork stacks of older
  /// generations are stale and start over.
  std::atomic<std::uint64_t> session_generation_{1};

  // Written by callbacks.
  /// Next lane to hand out; configure()/reset() set it back to 0.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> next_lane_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> filtered_count_{0};
  std::atomic<std::uint64_t> join_count_{0};
  SpinLock contexts_mu_;
  std::unordered_set<std::size_t> seen_contexts_;
  bool attached_ = false;
};

}  // namespace orca::tool
