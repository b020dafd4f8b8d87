/// \file config.hpp
/// Runtime internal control variables (ICVs) and ORCA tuning knobs.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

#include "common/env.hpp"
#include "runtime/barrier.hpp"

namespace orca::rt {

/// Loop schedule kinds understood by the worksharing layer. The *_EVEN
/// value mirrors OpenUH's `OMP_STATIC_EVEN` (block distribution computed by
/// `__ompc_static_init_4` in the paper's Fig. 2).
enum class Schedule : int {
  kStaticEven = 1,   ///< one contiguous block per thread
  kStaticChunked = 2,///< block-cyclic with a fixed chunk
  kDynamic = 3,      ///< first-come-first-served chunks
  kGuided = 4,       ///< exponentially shrinking chunks
  kRuntime = 5,      ///< take kind+chunk from OMP_SCHEDULE
};

/// Parsed OMP_SCHEDULE value.
struct ScheduleSpec {
  Schedule kind = Schedule::kStaticEven;
  long chunk = 0;  ///< 0 = unspecified (scheduler picks)
};

/// How `__ompc_event` reaches registered collector callbacks.
enum class EventDelivery {
  kSync,   ///< paper's behaviour: callback runs inline on the app thread
  kAsync,  ///< callback runs on the drainer thread (per-thread ring buffers)
};

/// What an application thread does when its event ring is full
/// (EventDelivery::kAsync only).
enum class EventBackpressure {
  kBlock,            ///< wait for the drainer (lossless, can stall)
  kDropNewest,       ///< shed the incoming event, count it
  kOverwriteOldest,  ///< evict the oldest undelivered event, count it
};

/// What collection does in a fork()ed child process
/// (ORCA_FORK_MODE=disable|rearm; docs/RESILIENCE.md).
enum class ForkMode {
  kDisable,  ///< child keeps state queries but stops event delivery
  kRearm,    ///< child reopens rings and restarts the drainer
};

/// Construction-time configuration of a `Runtime` instance.
///
/// Defaults replicate the paper's OpenUH runtime: nested parallel regions
/// serialized, atomic wait events not generated, states always tracked.
struct RuntimeConfig {
  /// Default team size for parallel regions (OMP_NUM_THREADS).
  int num_threads = 4;

  /// Hard cap on pool size; forks request at most this many threads.
  int max_threads = 64;

  /// True nested parallelism. OpenUH serialized nested regions ("our
  /// compiler currently serializes nested parallel regions"); enabling this
  /// turns on the paper's future-work behaviour: real nested teams, nested
  /// FORK/JOIN events, and parent-region-id tracking.
  bool nested = false;

  /// Generate THR_ATWT_STATE and the atomic wait events from the
  /// lock-fallback atomic path. OpenUH left these unimplemented
  /// (Sec. IV-C7); ORCA implements them behind this flag.
  bool atomic_events = false;

  /// Generate ordered-section wait events (optional in the spec).
  bool ordered_events = true;

  /// OpenMP 3.0 explicit tasking (`orca::omp::task` / `taskwait`) and the
  /// ORCA_EVENT_TASK_* extension events — the paper's future work
  /// ("extend the interface to handle the constructs in the recent OpenMP
  /// 3.0 standard"). With tasking off, task bodies run undeferred and the
  /// extension events are unsupported, mirroring OpenUH 2009.
  bool tasking = true;

  /// Route collector requests through per-thread queues (the paper's
  /// design) or one global queue (the ablation baseline, Sec. IV-B).
  bool per_thread_queues = true;

  /// Event delivery mode (ORCA_EVENT_DELIVERY=sync|async). Synchronous is
  /// the default so the paper's event ordering — callback completes before
  /// `__ompc_event` returns — is preserved unless a deployment opts into
  /// the decoupled path.
  EventDelivery event_delivery = EventDelivery::kSync;

  /// Per-thread event ring capacity in records, rounded up to a power of
  /// two (ORCA_EVENT_RING_CAPACITY). Only meaningful with async delivery.
  std::size_t event_ring_capacity = 1024;

  /// Full-ring policy for async delivery
  /// (ORCA_EVENT_BACKPRESSURE=block|drop_newest|overwrite_oldest).
  EventBackpressure event_backpressure = EventBackpressure::kBlock;

  /// Record per-thread state/span timelines into the telemetry rings
  /// (ORCA_TELEMETRY=timeline|full). Off by default: the disarmed cost is
  /// one relaxed load per hook.
  bool telemetry_timeline = false;

  /// Maintain the sharded self-telemetry metrics registry
  /// (ORCA_TELEMETRY=metrics|full).
  bool telemetry_metrics = false;

  /// Per-thread timeline ring capacity in 16-byte records, rounded up to a
  /// power of two (ORCA_TELEMETRY_RING). Only meaningful with the timeline
  /// armed.
  std::size_t telemetry_ring_capacity = 4096;

  /// Where the human-readable telemetry report goes at runtime shutdown:
  /// "stderr", a file path, or empty for no report (ORCA_TELEMETRY_REPORT).
  std::string telemetry_report;

  /// Chrome/Perfetto trace_event JSON written at runtime shutdown; empty
  /// for no trace (ORCA_TELEMETRY_TRACE).
  std::string telemetry_trace;

  /// Crash postmortem dump file (ORCA_CRASH_DUMP): when non-empty, the
  /// runtime installs SIGSEGV/SIGBUS/SIGABRT handlers that flush sample
  /// buffers and loss counters here with raw write(2) before re-raising.
  /// Empty (the default) leaves signal dispositions untouched.
  std::string crash_dump;

  /// Mirror the event stream, SIGPROF samples, telemetry metrics, and
  /// crash-dump state into a named /dev/shm segment an external daemon
  /// (orcamon) can attach to (ORCA_SHM_EXPORT; docs/FLEET.md). Off by
  /// default: the disarmed hook is one acquire load per event.
  /// Env-backed default: `ORCA_SHM_EXPORT=1` must reach
  /// every process in a fleet, including tools and benches that build
  /// `RuntimeConfig cfg;` by hand and never call from_env().
  bool shm_export = shm_export_from_env();

  /// Per-thread shm event-ring capacity in records, rounded up to a power
  /// of two (ORCA_SHM_RING_CAPACITY). Only meaningful with export armed.
  std::size_t shm_ring_capacity =
      env_size("ORCA_SHM_RING_CAPACITY", 4096, "a positive record count");

  /// Producer heartbeat interval in milliseconds (ORCA_SHM_HEARTBEAT_MS):
  /// how often the sense pulse flips and the telemetry mirror + crash
  /// snapshot refresh.
  int shm_heartbeat_ms = static_cast<int>(env_long(
      "ORCA_SHM_HEARTBEAT_MS", 50, 1, "a positive millisecond count"));

  /// Segment-name prefix (ORCA_SHM_PREFIX): segments are named
  /// "<prefix>.<pid>.<seq>". Tests point this at a unique prefix so
  /// concurrent suites never discover each other's fleets.
  std::string shm_prefix = shm_prefix_from_env();

  /// Callback watchdog deadline in milliseconds
  /// (ORCA_CALLBACK_DEADLINE_MS). A collector callback on the async
  /// drainer exceeding it is quarantined through the generation retire
  /// path. 0 (the default) disables the watchdog.
  int callback_deadline_ms = 0;

  /// Child-side behaviour after fork() (ORCA_FORK_MODE=disable|rearm).
  ForkMode fork_mode = ForkMode::kDisable;

  /// Team-barrier algorithm: always `kAuto`, the per-region rule
  /// (`choose_barrier`). Not settable; the retired ORCA_BARRIER variable
  /// only draws a warning from from_env().
  static constexpr BarrierKind barrier = BarrierKind::kAuto;

  /// Schedule applied when a loop asks for Schedule::kRuntime.
  ScheduleSpec runtime_schedule{};

  /// Read OMP_NUM_THREADS, OMP_SCHEDULE, OMP_NESTED, OMP_THREAD_LIMIT and
  /// the ORCA_* extension variables.
  static RuntimeConfig from_env();

  /// Parse an OMP_SCHEDULE string such as "dynamic,4" or "guided".
  /// Unrecognized strings yield the static-even default.
  static ScheduleSpec parse_schedule(const std::string& text);

  /// Parse ORCA_EVENT_DELIVERY ("sync" / "async", case-insensitive).
  /// Unrecognized strings yield `fallback`.
  static EventDelivery parse_event_delivery(const std::string& text,
                                            EventDelivery fallback);

  /// Parse ORCA_EVENT_BACKPRESSURE ("block" / "drop_newest" /
  /// "overwrite_oldest"). Unrecognized strings yield `fallback`.
  static EventBackpressure parse_backpressure(const std::string& text,
                                              EventBackpressure fallback);

  /// Parse an ORCA_TELEMETRY mode string ("off" / "metrics" / "timeline" /
  /// "full", case-insensitive) into the two arming flags. Returns false —
  /// leaving the flags untouched — when the string is unrecognized, so the
  /// caller can warn and keep its defaults.
  static bool parse_telemetry_mode(const std::string& text, bool* timeline,
                                   bool* metrics);

  /// Parse an ORCA_FORK_MODE string ("disable" / "rearm",
  /// case-insensitive). Returns false — leaving `mode` untouched — when
  /// the string is unrecognized, so the caller can warn and keep defaults.
  static bool parse_fork_mode(const std::string& text, ForkMode* mode);

  /// Read ORCA_SHM_EXPORT / ORCA_SHM_PREFIX for the shm members' default
  /// initializers: a fleet operator exports whole process trees by
  /// environment, so the knobs must reach hand-built configs too.
  static bool shm_export_from_env();
  static std::string shm_prefix_from_env();

  // --- warn-and-default env readers ----------------------------------------
  // Every ORCA_* knob goes through these, so a misparse always warns with
  // one voice — "ORCA: ignoring invalid NAME=\"...\" (expected ...);
  // keeping ..." — instead of each call site inventing its own (or, worse,
  // silently falling back and looking like a runtime bug).

  /// Read an integer knob. Unset returns `fallback`; a value that fails to
  /// parse in full or is below `min_value` warns (quoting `expected`) and
  /// returns `fallback`.
  static long env_long(const char* name, long fallback, long min_value,
                       const char* expected);

  /// env_long for size-like knobs (capacities, record counts); min 1.
  static std::size_t env_size(const char* name, std::size_t fallback,
                              const char* expected);

  /// Read a string knob through a parser such as parse_fork_mode: `parse`
  /// returns false on an unrecognized value, which warns (quoting
  /// `expected`, naming `kept` as what stays) and leaves the out-param
  /// untouched.
  template <typename ParseFn>
  static void env_parsed(const char* name, ParseFn parse,
                         const char* expected, const char* kept);
};

template <typename ParseFn>
void RuntimeConfig::env_parsed(const char* name, ParseFn parse,
                               const char* expected, const char* kept) {
  const auto text = env::get(name);
  if (!text) return;
  if (!parse(*text)) {
    std::fprintf(stderr,
                 "ORCA: ignoring invalid %s=\"%s\" (expected %s); "
                 "keeping %s\n",
                 name, text->c_str(), expected, kept);
  }
}

}  // namespace orca::rt
