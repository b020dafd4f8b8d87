/// \file fleet_monitor.hpp
/// orcamon's engine: attach to every ORCA shm export segment matching a
/// prefix, drain the per-thread broadcast rings with sharded reader
/// threads, and merge the per-process streams through one src/pipeline
/// stage graph into
///
///   * a correlated multi-process Perfetto trace (producer clocks share
///     the CLOCK_MONOTONIC epoch, so spans line up across processes), and
///   * a periodic fleet text report: per-region log2 duration sketches,
///     honest per-producer loss books (produced == read + lost), the
///     telemetry mirror, and crash salvage for producers that died.
///
/// Producer lifecycle handling is the point of the tool: a producer whose
/// heartbeat stops (SIGKILL, crash) or that finalizes cleanly moves to a
/// draining phase — its rings are drained to the last published record,
/// the remainder is charged to the loss book, its crash region is
/// salvaged — while the fleet session keeps running for everyone else.
///
/// ## Hostile-world posture
///
/// The fleet is untrusted. Four defenses keep one bad producer from
/// taking the session down:
///
///   * attach runs the deep validation in shm/validate.hpp; a segment
///     that fails it is *quarantined* — recorded with a reason, never
///     retried, never dereferenced;
///   * transient attach failures (mid-init, mid-resize, EMFILE weather)
///     are retried with jittered exponential backoff and quarantined
///     once the retry budget is spent;
///   * a producer that truncates its segment after we mapped it is caught
///     either by the cheap fstat in the liveness pass or by the SIGBUS
///     guard around the drain paths — either way it is detached into
///     quarantine and everyone else keeps draining;
///   * a per-shard watchdog notices a drain thread that stopped beating
///     (a seam hook, a scheduler pathology), retires it, and starts a
///     replacement on the same ring assignment; per-ring busy latches
///     keep a late-resuming retiree off the replacement's cursors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pipeline/aggregate.hpp"
#include "pipeline/pipeline.hpp"
#include "shm/reader.hpp"

namespace orca::tool::orcamon {

struct MonitorOptions {
  std::string prefix = "orca";   ///< segment prefix (ORCA_SHM_PREFIX)
  unsigned shards = 2;           ///< reader threads draining rings
  /// Shard sleep after a pass that found every ring empty: the cadence
  /// for polling quiet rings and for noticing that a producer finalized.
  unsigned poll_ms = 2;
  /// run()'s fallback cadence for /dev/shm discovery, deaths, stalls and
  /// the shard watchdog. A producer whose books a shard closed (say,
  /// after it finalized) wakes run() at once (the doorbell), not on this
  /// tick.
  unsigned discover_ms = 100;
  double duration_s = 0;         ///< 0 = run until stop()/idle
  double report_interval_s = 5;  ///< 0 = final report only
  std::string trace_out;         ///< Perfetto JSON path ("" = no trace)
  std::string report_out;        ///< report path ("" = stdout)
  std::size_t max_trace_events = 1 << 20;  ///< collect cap (counted drop)
  bool unlink_dead = true;       ///< reap dead producers' segment names
  /// Exit once at least one producer attached and every attached producer
  /// has finalized/died and been fully drained (or was quarantined). The
  /// integration tests and one-shot CLI runs use this; a long-lived
  /// daemon leaves it off.
  bool exit_when_idle = false;
  unsigned liveness_grace = 8;   ///< missed heartbeats before suspecting

  // --- hostile-world knobs -------------------------------------------------
  /// Base backoff for retryable attach failures; doubles per attempt with
  /// jitter, capped at 32x. ORCA_MON_ATTACH_RETRY_MS.
  unsigned attach_retry_ms = 50;
  /// Attempts before a retryable attach failure becomes a quarantine.
  /// ORCA_MON_ATTACH_RETRY_MAX.
  unsigned attach_retry_max = 8;
  /// Declare a shard thread wedged after this long without a loop beat
  /// and replace it (0 = watchdog off). ORCA_MON_SHARD_STALL_MS.
  unsigned shard_stall_ms = 2000;
  /// Hard heartbeat staleness deadline: a producer whose pulse has been
  /// quiet this long is drained even if its pid still exists (SIGSTOP,
  /// swap death). 0 = only ever declare death on pid exit.
  /// ORCA_MON_HEARTBEAT_DEADLINE_MS.
  unsigned heartbeat_deadline_ms = 0;

  /// Overlay the ORCA_MON_* environment knobs onto the current values
  /// (invalid text warns and keeps the field, same policy as the runtime
  /// config). The CLI calls this; tests set fields directly.
  void apply_env();
};

/// One decoded, producer-tagged record — the type the shared pipeline
/// tail speaks.
struct FleetEvent {
  std::int64_t pid = 0;
  std::uint64_t ns = 0;    ///< producer CLOCK_MONOTONIC stamp
  std::int32_t tid = -1;   ///< producer thread slot
  std::int32_t code = 0;   ///< OMP_COLLECTORAPI_EVENT, or sampler state
  std::uint64_t arg = 0;   ///< samples: region id; JOIN: region duration ns
  bool sample = false;     ///< true = SIGPROF-sample bank
};

/// Raw ring record + bank tag, as the shard threads push it into a
/// producer's decode stage.
struct RawRecord {
  shm::Record rec;
  bool sample = false;
};

/// Per-producer summary, copied out by producers().
struct ProducerInfo {
  std::string name;    ///< segment name
  std::string label;   ///< producer-chosen display label
  std::int64_t pid = 0;
  bool finalized = false;  ///< clean shutdown observed
  bool dead = false;       ///< heartbeat stopped + pid gone
  bool stalled = false;    ///< pulse past the hard deadline, pid alive
  bool drained = false;    ///< all rings finalized, books closed
  bool quarantined = false;
  std::string quarantine_reason;
  std::uint64_t produced = 0;
  std::uint64_t read = 0;
  std::uint64_t lost = 0;
  shm::CrashSalvage salvage;  ///< kind == kCrashEmpty when nothing there
};

/// One quarantine decision, kept for the report and the CLI exit code.
/// attach_phase records whether the segment was rejected before a reader
/// ever existed (validation / retries exhausted) or evicted mid-session.
struct QuarantineRecord {
  std::string name;
  std::int64_t pid = 0;
  std::string reason;
  bool attach_phase = false;
};

class FleetMonitor {
 public:
  explicit FleetMonitor(MonitorOptions opts);
  ~FleetMonitor();
  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Blocking session: spawns the shard threads, runs discovery +
  /// liveness + reporting on the calling thread until a stop condition
  /// (stop(), duration, exit_when_idle), then drains, writes the trace
  /// and the final report. Returns the number of producers seen.
  std::size_t run();

  /// Ask a concurrent run() to wind down (signal handlers use this).
  void stop() noexcept { stop_.store(true, std::memory_order_release); }

  std::size_t attached_count() const;
  std::uint64_t events_seen() const noexcept {
    return events_seen_.load(std::memory_order_acquire);
  }
  std::vector<ProducerInfo> producers() const;

  /// Every quarantine decision so far (attach rejections included).
  std::vector<QuarantineRecord> quarantines() const;

  /// Times the shard watchdog replaced a wedged drain thread.
  std::uint64_t watchdog_restarts() const noexcept {
    return watchdog_restarts_.load(std::memory_order_acquire);
  }

  /// The fleet report (also what run() writes periodically).
  std::string render_report() const;

  /// Write the merged Perfetto trace-event JSON (write_fleet_trace over
  /// every producer and the retained events). False on I/O failure.
  bool write_trace(const std::string& path) const;

 private:
  /// Only forward, each move a CAS: kActive -> kDraining (run()'s liveness
  /// pass, or the shard that sees the producer finalized) -> kDone (the
  /// shard that closes the last ring), and any phase but kDone ->
  /// kQuarantined.
  enum Phase : int { kActive = 0, kDraining = 1, kDone = 2, kQuarantined = 3 };

  struct RingState {
    /// Drain mutual exclusion: normally only the owning shard touches a
    /// ring, but a watchdog replacement overlaps the (possibly still
    /// runnable) thread it replaced, so cursor access takes this latch.
    std::atomic<bool> busy{false};
    bool done = false;  ///< both banks finalized (read/written under busy)
  };

  struct Producer {
    std::size_t index = 0;
    std::unique_ptr<shm::SegmentReader> reader;
    pipeline::StagePtr<RawRecord> head;  ///< decode -> tag -> shared tail
    std::atomic<int> phase{kActive};
    std::atomic<bool> dead{false};
    std::atomic<bool> stalled{false};
    std::atomic<bool> finalized{false};
    /// Ring r drained by shard (index + r) % shards. Array, not vector:
    /// RingState holds an atomic, and the element count is fixed at
    /// attach anyway.
    std::unique_ptr<RingState[]> rings;
    std::uint32_t ring_count = 0;
    std::atomic<std::uint32_t> rings_done{0};
    /// FORK -> JOIN pairing, keyed by producer tid. FORK and JOIN for one
    /// region can surface on different rings (hence different shards), so
    /// the map takes a lock — held only for the two region-edge events.
    std::mutex fork_mu;
    std::unordered_map<std::int32_t, std::uint64_t> open_forks;
    /// Guarded by FleetMonitor::mu_; read only when phase is kQuarantined.
    std::string quarantine_reason;
    /// Produced-count snapshot taken (SIGBUS-guarded) at quarantine time,
    /// since the mapping must not be dereferenced afterwards.
    std::uint64_t produced_at_quarantine = 0;
    // Written by the run() thread once kDone:
    shm::CrashSalvage salvage;
    bool salvaged = false;
  };

  /// Retry state for a segment that failed attach retryably.
  struct PendingAttach {
    unsigned attempts = 0;
    std::uint64_t next_ns = 0;
    std::int64_t pid = 0;
  };

  struct Shard {
    std::atomic<std::uint64_t> beat{0};        ///< bumped once per pass
    std::atomic<std::uint64_t> generation{0};  ///< bump retires the thread
    std::thread thread;
    // Watchdog bookkeeping (run() thread only):
    std::uint64_t last_beat = 0;
    std::uint64_t last_change_ns = 0;
  };

  void attach_new_segments(std::uint64_t now_ns);
  void update_liveness(std::uint64_t now_ns);
  void check_shard_watchdog(std::uint64_t now_ns);
  void shard_loop(unsigned shard, std::uint64_t generation);
  /// Drain one producer ring (both banks). Returns true on any progress.
  bool drain_ring(Producer& p, std::uint32_t ring);
  /// Move a live producer to quarantine: record the reason, snapshot what
  /// the books can still say, and stop every future mapping dereference.
  void quarantine_producer(Producer& p, const std::string& reason);
  void record_attach_quarantine(const std::string& name, std::int64_t pid,
                                const std::string& reason);
  void emit_report(bool final_report);
  /// Wake run() ahead of its discover_ms timeout.
  void ring_bell();
  pipeline::StagePtr<RawRecord> build_head(std::int64_t pid, Producer* p);

  MonitorOptions opts_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shards_stop_{false};

  mutable std::mutex mu_;  ///< guards producers_ growth, names, quarantines
  std::vector<std::unique_ptr<Producer>> producers_;
  std::unordered_map<std::string, bool> seen_names_;
  std::unordered_map<std::string, PendingAttach> pending_;
  std::vector<QuarantineRecord> quarantines_;

  /// The monitor doorbell: a shard rings it when it closed a producer's
  /// books (kDone); run() waits on it with discover_ms as the timeout. A condvar, not a Parker: the
  /// Parker's spin would be paid on every timed-out tick.
  std::mutex bell_mu_;
  std::condition_variable bell_cv_;
  bool bell_ = false;  ///< guarded by bell_mu_

  // Shared pipeline tail (fanout -> {region aggregate, trace collect,
  // counting sink}), built once in the constructor.
  pipeline::StagePtr<FleetEvent> tail_;
  std::shared_ptr<pipeline::AggregateStage<FleetEvent>> region_agg_;
  std::shared_ptr<pipeline::CollectStage<FleetEvent>> trace_;
  std::atomic<std::uint64_t> events_seen_{0};
  std::atomic<std::uint64_t> watchdog_restarts_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> retired_threads_;  ///< wedged, joined in dtor
};

/// The fleet trace through telemetry::TraceWriter: one process track per
/// producer, one thread track per (pid, tid) in `events` (sorted by ns),
/// JOINs with a duration as region spans, everything else as instants.
/// False on I/O failure.
bool write_fleet_trace(const std::string& path,
                       const std::vector<ProducerInfo>& producers,
                       const std::vector<FleetEvent>& events);

}  // namespace orca::tool::orcamon
