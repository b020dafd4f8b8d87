/// \file telemetry.hpp
/// Runtime self-telemetry: per-thread state timelines + a sharded metrics
/// registry for the runtime's *own* internals (barriers, rings, drainer,
/// callback-table generations) — the observability spine the profiled
/// application never sees.
///
/// Design constraints (mirroring the event fast path of DESIGN.md §5.1):
///
///  * **Disarmed cost is one relaxed load + branch.** Every hook below
///    compiles to `if ((g_armed & bit) == 0) return;` against a process-wide
///    atomic mask. No magic-static guard, no thread-local probe, no shared
///    RMW. A runtime built with telemetry compiled in but not armed pays
///    the same as one built without it (asserted by the E9 ablation).
///  * **Armed recording is wait-free on the hot thread.** Timeline records
///    go to a per-thread single-writer overwrite-oldest ring; metric
///    updates hit relaxed atomics on a cacheline-padded per-thread shard.
///    Aggregation (snapshot, export) walks the shards — readers pay, not
///    writers.
///  * **Layering:** this module depends only on `src/common` and the
///    C-only `collector/api.h` enums, so both `orca_collector` and
///    `orca_runtime` can hook into it without a dependency cycle.
///
/// Arming is process-global and reference-counted per bit: every
/// `rt::Runtime` whose config enables telemetry arms on construction and
/// disarms on destruction, so short-lived runtimes (tests, conformance
/// storms) compose.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace orca::telemetry {

// ---------------------------------------------------------------------------
// Arming.

/// Bit in the armed mask enabling timeline recording (state transitions +
/// internal spans into the per-thread rings).
inline constexpr std::uint64_t kTimelineBit = 1u << 0;
/// Bit enabling metric recording (counters / gauges / histograms).
inline constexpr std::uint64_t kMetricsBit = 1u << 1;

namespace detail {
/// The process-wide armed mask. Plain namespace-scope atomic (constant
/// initialization) so the disarmed fast path is a single relaxed load with
/// no guard variable.
extern std::atomic<std::uint64_t> g_armed;
}  // namespace detail

inline bool timeline_armed() noexcept {
  return (detail::g_armed.load(std::memory_order_relaxed) & kTimelineBit) != 0;
}

inline bool metrics_armed() noexcept {
  return (detail::g_armed.load(std::memory_order_relaxed) & kMetricsBit) != 0;
}

inline std::uint64_t armed_mask() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Reference-counted arming: each arm(bits) must be paired with one
/// disarm(bits). A bit stays set in the mask while any holder remains.
void arm(std::uint64_t bits);
void disarm(std::uint64_t bits);

/// Per-thread timeline ring capacity (records) used for rings created
/// *after* the call. Rounded up to a power of two, clamped to
/// [64, 1 << 20]. Existing rings keep their size.
void set_ring_capacity(std::size_t records);
std::size_t ring_capacity() noexcept;

// ---------------------------------------------------------------------------
// Timeline model.

/// What a timeline record describes. kState records are instants whose
/// `arg` is the OMP_COLLECTOR_API_THR_STATE value; the exporter turns the
/// per-thread instant sequence into wall-to-wall state spans. The rest are
/// explicit begin/end span pairs around runtime-internal work.
enum class SpanKind : std::uint16_t {
  kState = 0,              ///< arg = thread state (instant)
  kRingEnqueueStall = 1,   ///< event ring full under kBlock backpressure
  kDrainPass = 2,          ///< drainer batch; arg = records delivered
  kGenerationPublish = 3,  ///< callback-table generation publish; arg = id
  kGenerationRetire = 4,   ///< grace-period sweep; arg = generations freed
  kParallelRegion = 5,     ///< master-side fork..join; arg = region id
};

enum class Phase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

/// One 16-byte timeline record.
struct TimelineRecord {
  std::uint64_t ns = 0;  ///< SteadyClock timestamp
  std::uint32_t arg = 0;
  SpanKind kind = SpanKind::kState;
  Phase phase = Phase::kInstant;
  std::uint8_t pad = 0;
};
static_assert(sizeof(TimelineRecord) == 16);

/// Short display name for a span kind ("state" records are named by their
/// state instead; see state_name()).
const char* span_name(SpanKind kind) noexcept;

/// Short display name for an OMP_COLLECTOR_API_THR_STATE value, styled for
/// trace viewers ("work", "ibar-wait", ...). Unknown values format as
/// "state-N".
std::string state_name(int state);

// ---------------------------------------------------------------------------
// Metric catalog. Fixed enums — adding a metric is a recompile, which keeps
// the hot-path update a plain array index.

enum class Counter : std::uint8_t {
  kForks = 0,              ///< parallel regions forked
  kJoins,                  ///< parallel regions joined
  kBarrierWaits,           ///< barrier episodes (implicit + explicit)
  kTasksSpawned,           ///< explicit tasks submitted (deferred)
  kTasksExecuted,          ///< deferred tasks run to completion
  kCallbackFailures,       ///< async callbacks that threw
  kRingEnqueueStalls,      ///< pushes that blocked on a full ring
  kDrainPasses,            ///< non-empty drainer batches
  kGenerationsPublished,   ///< callback-table generations published
  kGenerationsRetired,     ///< generations freed after their grace period
  kTimelineOverwrites,     ///< timeline records lost to ring wraparound
  kPipelineDrops,          ///< items shed by collector pipeline stages
  kCount
};

/// Gauges. `gauge_max` keeps a high-water mark (monotone max aggregated
/// across shards); `gauge_set` keeps the last value set by any thread.
enum class Gauge : std::uint8_t {
  kTaskQueueDepth = 0,  ///< deepest deferred-task queue observed
  kRingOccupancy,       ///< fullest event ring observed (records)
  kBarrierAlgorithm,    ///< gauge_set: 1 + BarrierKind of the last region
                        ///< (1 centralized, 2 dissemination, 0 none yet)
  kCount
};

/// Log2-bucketed latency histograms (ns).
enum class Histogram : std::uint8_t {
  kBarrierWaitNs = 0,   ///< arrive..release, per thread per barrier
  kEnqueueStallNs,      ///< block time of a full-ring push
  kDrainPassNs,         ///< duration of a non-empty drain batch
  kRetireLatencyNs,     ///< generation retire..free grace-period latency
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);
inline constexpr std::size_t kHistogramBuckets = 40;  ///< 2^0 .. >2^38 ns

const char* counter_name(Counter c) noexcept;
const char* gauge_name(Gauge g) noexcept;
const char* histogram_name(Histogram h) noexcept;

/// Aggregated view of one histogram.
struct HistogramView {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};
  /// Bucket-interpolated quantile in ns (upper-bound estimate).
  double quantile(double q) const noexcept;
};

/// Aggregated metrics + timeline bookkeeping, summed over every shard that
/// ever existed (live threads and retired ones).
struct MetricsView {
  std::uint64_t counters[kCounterCount] = {};
  std::uint64_t gauges[kGaugeCount] = {};
  HistogramView histograms[kHistogramCount];
  std::uint64_t threads_tracked = 0;    ///< thread slots ever created
  std::uint64_t timeline_records = 0;   ///< records currently held in rings
  std::uint64_t armed = 0;              ///< armed mask at snapshot time
};

/// One thread's timeline, copied out for export.
struct ThreadTimeline {
  int tid = 0;                ///< slot index (stable per thread lifetime)
  std::string name;           ///< "worker-3", "main", ...
  std::uint64_t overwritten = 0;
  std::vector<TimelineRecord> records;  ///< oldest..newest
};

// ---------------------------------------------------------------------------
// Slow paths (telemetry.cpp). Never call these directly — use the inline
// gated hooks below.

namespace detail {
void record_slow(SpanKind kind, Phase phase, std::uint32_t arg) noexcept;
void record_at_slow(std::uint64_t ns, SpanKind kind, Phase phase,
                    std::uint32_t arg) noexcept;
void count_slow(Counter c, std::uint64_t delta) noexcept;
void gauge_max_slow(Gauge g, std::uint64_t value) noexcept;
void gauge_set_slow(Gauge g, std::uint64_t value) noexcept;
void observe_slow(Histogram h, std::uint64_t ns) noexcept;
}  // namespace detail

// ---------------------------------------------------------------------------
// Hot-path hooks. Disarmed: one relaxed load + branch, nothing else.

/// Record a thread-state transition (instant; exporter builds the spans).
inline void record_state(int state) noexcept {
  if (!timeline_armed()) return;
  detail::record_slow(SpanKind::kState, Phase::kInstant,
                      static_cast<std::uint32_t>(state));
}

/// Record an explicit span edge with a timestamp taken now.
inline void record_span(SpanKind kind, Phase phase,
                        std::uint32_t arg = 0) noexcept {
  if (!timeline_armed()) return;
  detail::record_slow(kind, phase, arg);
}

/// Record a span edge at a caller-supplied SteadyClock timestamp (for
/// sites that already read the clock, e.g. a stall begin captured before
/// knowing whether the stall lasts).
inline void record_span_at(std::uint64_t ns, SpanKind kind, Phase phase,
                           std::uint32_t arg = 0) noexcept {
  if (!timeline_armed()) return;
  detail::record_at_slow(ns, kind, phase, arg);
}

inline void count(Counter c, std::uint64_t delta = 1) noexcept {
  if (!metrics_armed()) return;
  detail::count_slow(c, delta);
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
  if (!metrics_armed()) return;
  detail::gauge_max_slow(g, value);
}

inline void gauge_set(Gauge g, std::uint64_t value) noexcept {
  if (!metrics_armed()) return;
  detail::gauge_set_slow(g, value);
}

inline void observe(Histogram h, std::uint64_t ns) noexcept {
  if (!metrics_armed()) return;
  detail::observe_slow(h, ns);
}

/// Name the calling thread's timeline slot (display only; allocates the
/// slot if armed). No-op while fully disarmed.
void name_thread(const std::string& name);

// ---------------------------------------------------------------------------
// Read side.

/// Aggregate every metric shard. Safe to call concurrently with writers
/// (relaxed reads; counters may trail in-flight updates).
MetricsView metrics();

/// Copy out every thread timeline. Best-effort when writers are active:
/// records being overwritten concurrently may read torn, and the exporter
/// drops inconsistent span pairs. Exact once threads are quiescent (the
/// shutdown/report path).
std::vector<ThreadTimeline> timelines();

/// Reset all metric shards and timeline rings to empty (testing and
/// between-run isolation; arming state is untouched).
void reset_for_testing();

}  // namespace orca::telemetry
