/// \file async.hpp
/// Asynchronous event delivery: per-thread-slot bounded rings drained by a
/// dedicated consumer thread.
///
/// The paper keeps event *dispatch* synchronous — `__ompc_event` invokes the
/// registered callback on the application thread — and pushes the cost of
/// whatever the collector does (locking, allocation, callstack capture) onto
/// the measured program. Its own request path avoids exactly that pattern:
/// "requests to the API are pushed onto a queue associated with a thread
/// [to] avoid the contention otherwise incurred if a single global queue
/// processed requests" (Sec. IV-B). This module applies the same per-thread
/// decoupling to the event side: application threads append fixed-size
/// records to a private ring and return; one drainer thread batches records
/// out of all rings and runs the callbacks off the hot path.
///
/// Design points:
///  * one `ring::LocalRing` per thread slot — the seq-stamped ring of the
///    shm export (common/ring.hpp), placed in a private anonymous mapping;
///    capacity is a power of two taken from `ORCA_EVENT_RING_CAPACITY`;
///  * the drainer reads the rings the way orcamon reads a segment: one
///    `ring::Cursor` per ring, and an `EventRecord` decoded from each
///    polled cell (`seq` is the cursor position);
///  * explicit backpressure: `kBlock` (never lose an event), `kDropNewest`
///    (shed load, count it), `kOverwriteOldest` (keep the freshest window,
///    count what the producer lapped). Loss is *observable* — per-ring
///    books reconcile as submitted == delivered + overwritten, with
///    rejected pushes in `dropped` — never silent;
///  * a flush barrier (`flush()`, `stop_and_join()`) gives lifecycle edges
///    (PAUSE/STOP) a hard guarantee: no record admitted before the edge is
///    still undelivered when the request returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "common/clock.hpp"
#include "common/parking.hpp"
#include "common/ring.hpp"
#include "common/spinlock.hpp"
#include "telemetry/telemetry.hpp"

namespace orca::collector {

class EmitterCache;
class Registry;

/// What producers enqueue: everything the drainer (or a context-aware
/// collector, via `AsyncDispatcher::delivery_context()`) needs to know about
/// the event's origin, since the ORA callback signature carries only the
/// event kind.
struct EventRecord {
  std::uint64_t seq = 0;     ///< per-ring submission number (0-based)
  std::uint64_t ticks = 0;   ///< origin timestamp (TSC) taken at publish
  std::int32_t event = 0;    ///< OMP_COLLECTORAPI_EVENT
  std::int32_t origin_slot = 0;  ///< producer's thread slot (gtid)
};

/// Per-ring books; `delivered` counts records whose callback returned.
using EventRingStats = ring::RingStats;

/// The async delivery engine owned by a runtime instance: one ring per
/// thread slot plus the drainer thread that feeds registered callbacks.
///
/// Lifecycle mirrors the ORA state machine: the runtime starts the drainer
/// when the collector issues OMP_REQ_START, flushes on PAUSE, and
/// flush-then-joins on STOP, so no event crosses a lifecycle edge.
class AsyncDispatcher {
 public:
  /// `slots` rings of `ring_capacity` records each; callbacks are resolved
  /// against `registry` at delivery time (so STOP/UNREGISTER take effect
  /// for records still in flight).
  AsyncDispatcher(Registry& registry, std::size_t slots,
                  std::size_t ring_capacity, ring::Backpressure policy);
  ~AsyncDispatcher();

  AsyncDispatcher(const AsyncDispatcher&) = delete;
  AsyncDispatcher& operator=(const AsyncDispatcher&) = delete;

  /// Spawn the drainer if it is not running (idempotent). Also spawns the
  /// callback watchdog when a deadline is set.
  void start();

  /// Flush everything admitted so far, then stop and join the drainer.
  /// Safe to call repeatedly; `start()` can revive the dispatcher after.
  void stop_and_join();

  /// Arm the callback watchdog: a delivery whose callback runs longer than
  /// `ms` milliseconds is quarantined through Registry::quarantine() (the
  /// generation retire path) so no *further* events reach it; the stalled
  /// invocation itself still runs to completion — the watchdog protects
  /// the application's forward progress, it cannot cancel foreign code,
  /// so a callback that never returns will still stall shutdown's flush
  /// barrier. 0 (the default) disables the watchdog. Call before start().
  void set_callback_deadline(int ms) noexcept { deadline_ms_ = ms; }
  int callback_deadline_ms() const noexcept { return deadline_ms_; }

  // --- fork() support (pthread_atfork; see runtime/resilience.cpp) --------

  /// Prepare handler: flush everything admitted so far, then take the
  /// lifecycle and drain locks, so the child holds them on its own thread.
  void quiesce_for_fork();

  /// Parent-side handler: release the locks quiesce_for_fork() took, if it
  /// took them (not when it ran inside a delivery callback).
  void resume_parent_after_fork() noexcept;

  /// Child-side handler. The drainer and watchdog threads do not exist in
  /// the child, so their handles are detached (never joined) and all
  /// lifecycle state is rebuilt; with `rearm` a fresh drainer is started,
  /// otherwise the dispatcher stays down (publish() returns false and
  /// emission falls back to the registry's synchronous path).
  void reset_after_fork(bool rearm);

  /// Barrier: returns once every record accepted so far has been delivered
  /// (its callback returned) or overwritten. No-op from inside a delivery
  /// callback (the drainer cannot wait on itself). When the drainer is not
  /// running, drains inline on the calling thread; a callback that
  /// re-enters flush() from that inline drain returns at once too.
  void flush();

  /// Producer hot path: stamp and enqueue `event` on `slot`'s ring.
  /// Returns true when the dispatcher took responsibility for the event
  /// (enqueued OR consciously shed per policy), false when the caller
  /// should fall back to synchronous dispatch (drainer not running).
  bool publish(std::size_t slot, OMP_COLLECTORAPI_EVENT event) noexcept;

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  std::size_t ring_capacity() const noexcept { return rings_[0]->capacity(); }

  /// Callbacks that threw out of asynchronous delivery. The drainer
  /// contains the exception (a collector bug must not take down the
  /// measured program's runtime), counts it here, and keeps draining; the
  /// record still counts as delivered. Synchronous dispatch has no such
  /// net — `Registry::fire` is noexcept, per the paper's inline contract.
  std::uint64_t callback_failures() const noexcept {
    return callback_failures_.load(std::memory_order_acquire);
  }

  /// Sum of all per-ring counters.
  EventRingStats stats() const noexcept;

  /// Inside a delivery callback: the record being delivered (origin slot,
  /// origin timestamp, submission sequence). Null on application threads —
  /// i.e. under synchronous dispatch. This is how context-aware collectors
  /// (TracingCollector) recover the producing thread after the handoff.
  static const EventRecord* delivery_context() noexcept;

 private:
  void drain_loop();
  /// One batch from every ring under the drain lock, so each cursor has
  /// one reader at a time. True when it moved a cursor.
  bool drain_pass();
  /// Drain passes on the calling thread, marked as the drainer so a
  /// callback re-entering flush() or stop_and_join() returns at once.
  void drain_inline();
  void watchdog_loop();

  /// Deliver one record through `cache`, the EmitterCache the draining
  /// thread leased for this pass: the callback is resolved against the
  /// *currently published* generation (pinned for the duration of the
  /// call), so UNREGISTER/STOP take effect for records still in flight and
  /// no generation is reclaimed while its callback runs.
  void deliver(const EventRecord& rec, EmitterCache& cache);

  std::size_t map_slot(std::size_t slot) const noexcept {
    return slot < rings_.size() ? slot : rings_.size() - 1;
  }

  Registry& registry_;
  ring::Backpressure policy_;
  std::vector<std::unique_ptr<ring::LocalRing>> rings_;
  std::vector<ring::Cursor> cursors_;  ///< the drainer's, under drain_mu_
  SpinLock drain_mu_;                  ///< held for each drain pass

  Parker parker_;                      ///< drainer's bed
  std::atomic<bool> sleeping_{false};  ///< drainer is (about to be) parked
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> callback_failures_{0};
  std::thread drainer_;
  SpinLock lifecycle_mu_;  ///< serializes start()/stop_and_join()

  /// Watchdog state. The in-flight stamp pair is written by whichever
  /// thread is delivering (the drainer in steady state) around each
  /// callback: event first, then the begin timestamp with release, cleared
  /// to 0 after the callback returns. The watchdog thread polls it and
  /// quarantines at most once per stalled delivery (keyed by the stamp).
  int deadline_ms_ = 0;  ///< set before start(); 0 = watchdog off
  std::atomic<std::int32_t> inflight_event_{0};
  std::atomic<std::uint64_t> inflight_since_ns_{0};  ///< 0 = none in flight
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
};

}  // namespace orca::collector
