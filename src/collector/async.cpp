#include "collector/async.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "collector/registry.hpp"
#include "common/clock.hpp"
#include "testing/fault_injection.hpp"

namespace orca::collector {
namespace {

/// Set while the calling thread is delivering a record (the drainer, or a
/// thread draining inline); lets collectors (and the flush barrier) detect
/// delivery context without a thread-id lookup on the hot path.
thread_local const EventRecord* tls_delivery_record = nullptr;
thread_local bool tls_on_drainer = false;

/// Per-ring batch the drainer takes before moving to the next ring: large
/// enough to amortize the scan, small enough that one hot ring cannot
/// starve the others.
constexpr int kDrainBatch = 64;

/// How long the drainer sleeps when every ring is empty. A timed wait
/// bounds the cost of any lost wake-up race to one period instead of
/// requiring a seq-cst handshake on the producer fast path.
constexpr auto kIdleSleep = std::chrono::milliseconds(1);

/// Books one timed interval that began at `begin` and ends now: its
/// counter, its histogram, and a begin/end span pair on the timeline.
void record_interval(telemetry::Counter counter, telemetry::Histogram hist,
                     telemetry::SpanKind kind, std::uint64_t begin,
                     std::uint32_t arg = 0) noexcept {
  const std::uint64_t end = SteadyClock::now();
  telemetry::count(counter);
  telemetry::observe(hist, end - begin);
  telemetry::record_span_at(begin, kind, telemetry::Phase::kBegin, arg);
  telemetry::record_span_at(end, kind, telemetry::Phase::kEnd, arg);
}

}  // namespace

const EventRecord* AsyncDispatcher::delivery_context() noexcept {
  return tls_delivery_record;
}

AsyncDispatcher::AsyncDispatcher(Registry& registry, std::size_t slots,
                                 std::size_t ring_capacity,
                                 ring::Backpressure policy)
    : registry_(registry), policy_(policy) {
  if (slots == 0) slots = 1;
  rings_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    rings_.push_back(std::make_unique<ring::LocalRing>(ring_capacity));
  }
  cursors_.resize(slots);
}

AsyncDispatcher::~AsyncDispatcher() { stop_and_join(); }

void AsyncDispatcher::start() {
  std::scoped_lock lk(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (drainer_.joinable()) drainer_.join();  // reap a finished drainer
  if (watchdog_.joinable()) watchdog_.join();
  stop_requested_.store(false, std::memory_order_release);
  for (auto& ring : rings_) ring->reopen();
  running_.store(true, std::memory_order_release);
  drainer_ = std::thread([this] { drain_loop(); });
  if (deadline_ms_ > 0) {
    watchdog_stop_.store(false, std::memory_order_release);
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void AsyncDispatcher::stop_and_join() {
  if (tls_on_drainer) return;  // a callback cannot join its own thread
  std::scoped_lock lk(lifecycle_mu_);
  if (!drainer_.joinable()) return;
  flush();
  stop_requested_.store(true, std::memory_order_release);
  // Unblock producers waiting on full rings: after this point a kBlock
  // push fails fast (counted dropped) instead of waiting for a consumer
  // that is about to exit.
  for (auto& ring : rings_) ring->close();
  parker_.advance();
  drainer_.join();
  if (watchdog_.joinable()) {
    watchdog_stop_.store(true, std::memory_order_release);
    watchdog_.join();
  }
  running_.store(false, std::memory_order_release);
  // Retire records that raced past the drainer's final sweep: pushed after
  // its last empty pass but before the ring closed. Registrations are gone
  // by the time a STOP reaches here, so retirement stays silent — the
  // "no callback after STOP returns" contract holds — while the accounting
  // still reconciles (submitted == delivered + overwritten).
  drain_inline();
}

void AsyncDispatcher::flush() {
  ORCA_FAULT_POINT(kAsyncFlush);
  if (tls_on_drainer) return;  // delivery callback re-entry: already draining
  if (!running_.load(std::memory_order_acquire)) {
    // No drainer: retire whatever is buffered on the calling thread so the
    // barrier still holds (e.g. STOP after a drainer crash-join).
    drain_inline();
    return;
  }
  Backoff backoff;
  while (!std::all_of(rings_.begin(), rings_.end(),
                      [](const auto& ring) { return ring->settled(); })) {
    parker_.advance();  // drainer may be in its timed sleep
    backoff.pause();
  }
}

bool AsyncDispatcher::publish(std::size_t slot,
                              OMP_COLLECTORAPI_EVENT event) noexcept {
  if (!running_.load(std::memory_order_acquire)) return false;
  // Past admission, before the push: a producer held here lands its record
  // after whatever the drainer does meanwhile (STOP's final sweep included).
  ORCA_FAULT_POINT(kAsyncPublish);
  ring::LocalRing& ring = *rings_[map_slot(slot)];
  const ring::Record rec{TscClock::now(), static_cast<std::int32_t>(event),
                         static_cast<std::int32_t>(map_slot(slot))};
  // Lazily stamped the first time a kBlock push finds the ring full and
  // telemetry is armed: the common (non-full) push must not read the clock.
  std::uint64_t stall_begin = 0;
  const bool pushed = ring.push(rec, policy_, [&stall_begin] {
    if (stall_begin == 0 && telemetry::armed_mask() != 0) {
      stall_begin = SteadyClock::now();
    }
  });
  if (pushed && stall_begin != 0) {
    record_interval(telemetry::Counter::kRingEnqueueStalls,
                    telemetry::Histogram::kEnqueueStallNs,
                    telemetry::SpanKind::kRingEnqueueStall, stall_begin);
  }
  if (telemetry::metrics_armed()) {
    telemetry::gauge_max(telemetry::Gauge::kRingOccupancy, ring.size());
  }
  if (sleeping_.load(std::memory_order_acquire)) parker_.advance();
  return true;  // a record shed per policy still counts as handled
}

void AsyncDispatcher::deliver(const EventRecord& rec, EmitterCache& cache) {
  // Resolve the callback at *delivery* time: a record that outlives its
  // registration (UNREGISTER or STOP raced ahead) is retired silently, which
  // is exactly the lifecycle contract — no callback after STOP returns.
  // resolve_pinned() pins the current generation through `cache`, so the
  // table stays alive across the callback without taking the registration
  // lock (a callback re-entering the API must never deadlock here).
  const auto ev = static_cast<OMP_COLLECTORAPI_EVENT>(rec.event);
  const OMP_COLLECTORAPI_CALLBACK cb = registry_.resolve_pinned(ev, cache);
  if (cb != nullptr) {
    ORCA_FAULT_POINT(kAsyncDeliver);
    tls_delivery_record = &rec;
    // Watchdog stamp: publish the event + start time before entering foreign
    // code, clear it after. The 0-stamp doubles as the "nothing in flight"
    // sentinel, so the watchdog never needs a lock to read the pair.
    if (deadline_ms_ > 0) {
      ORCA_FAULT_POINT(kCallbackStall);
      inflight_event_.store(rec.event, std::memory_order_relaxed);
      inflight_since_ns_.store(SteadyClock::now(), std::memory_order_release);
    }
    // Contain a throwing collector callback: the drainer must outlive any
    // single bad delivery, or one collector bug stalls every ring and
    // deadlocks the next flush barrier. Counted, never silent.
    try {
      cb(static_cast<OMP_COLLECTORAPI_EVENT>(rec.event));
    } catch (...) {
      callback_failures_.fetch_add(1, std::memory_order_acq_rel);
      telemetry::count(telemetry::Counter::kCallbackFailures);
    }
    if (deadline_ms_ > 0) {
      inflight_since_ns_.store(0, std::memory_order_release);
    }
    tls_delivery_record = nullptr;
  }
}

bool AsyncDispatcher::drain_pass() {
  ORCA_FAULT_POINT(kAsyncDrain);
  std::scoped_lock lk(drain_mu_);
  const std::uint64_t pass_begin =
      telemetry::armed_mask() != 0 ? SteadyClock::now() : 0;
  // Lease an emitter-cache node for the pass. drain_pass may run on the
  // drainer *or* on a caller thread retiring records after the drainer is
  // gone; a per-pass lease keeps the node single-writer either way.
  EmitterCache* cache = registry_.acquire_emitter();
  std::uint32_t drained = 0;
  bool moved = false;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    ring::LocalRing& ring = *rings_[i];
    ring::Cursor& cur = cursors_[i];
    ring::Record cell;
    for (int n = 0; n < kDrainBatch; ++n) {
      const ring::Poll p = ring.poll(cur, &cell);
      if (p == ring::Poll::kEmpty) break;
      moved = true;
      if (p == ring::Poll::kRecord) {
        deliver({cur.next - 1, cell.ns, cell.event, cell.tid}, *cache);
        ++drained;
      }
      // After the callback returned: flush()'s "delivered" means the
      // collector has observed the event, not that it left the ring.
      ring.retire(cur);
    }
  }
  registry_.release_emitter(cache);
  // Empty passes (the idle poll) are not interesting; only batches that
  // moved records show up in the telemetry.
  if (drained > 0 && pass_begin != 0) {
    record_interval(telemetry::Counter::kDrainPasses,
                    telemetry::Histogram::kDrainPassNs,
                    telemetry::SpanKind::kDrainPass, pass_begin, drained);
  }
  return moved;
}

void AsyncDispatcher::drain_inline() {
  // Cleared even when a pass throws, or later flushes here would not wait.
  struct OnDrainer {
    OnDrainer() noexcept { tls_on_drainer = true; }
    ~OnDrainer() { tls_on_drainer = false; }
  } on_drainer;
  while (drain_pass()) {
  }
}

void AsyncDispatcher::drain_loop() {
  tls_on_drainer = true;
  telemetry::name_thread("drainer");
  for (;;) {
    const bool any = drain_pass();
    if (stop_requested_.load(std::memory_order_acquire)) {
      // Final sweep: everything admitted before the stop request drains.
      while (drain_pass()) {
      }
      break;
    }
    if (!any) {
      const std::uint64_t seen = parker_.epoch();
      sleeping_.store(true, std::memory_order_release);
      // Double-check after advertising the nap: a producer that pushed
      // before seeing sleeping_ == true is caught here; one that pushed
      // after will signal. The timed wait bounds the residual race.
      if (std::all_of(rings_.begin(), rings_.end(),
                      [](const auto& ring) { return ring->size() == 0; })) {
        parker_.wait_for(seen, kIdleSleep);
      }
      sleeping_.store(false, std::memory_order_release);
    }
  }
  tls_on_drainer = false;
}

void AsyncDispatcher::watchdog_loop() {
  telemetry::name_thread("watchdog");
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(deadline_ms_) * 1'000'000ull;
  const auto poll = std::chrono::milliseconds(std::max(1, deadline_ms_ / 4));
  // One quarantine per stalled delivery: the since-stamp is unique per
  // delivery (monotonic clock), so remembering the last acted-on stamp
  // prevents re-quarantining while the same callback keeps running.
  std::uint64_t last_acted = 0;
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    const std::uint64_t since =
        inflight_since_ns_.load(std::memory_order_acquire);
    if (since != 0 && since != last_acted &&
        SteadyClock::now() - since > deadline_ns) {
      // The stalled invocation itself cannot be cancelled — foreign code —
      // but quarantining unhooks the registration so no further events
      // reach it, and the application proceeds.
      registry_.quarantine(inflight_event_.load(std::memory_order_relaxed));
      last_acted = since;
    }
    std::this_thread::sleep_for(poll);
  }
}

void AsyncDispatcher::quiesce_for_fork() {
  // Forking from a callback: this thread already holds the drain lock, so
  // nothing is taken here, and the fork handlers (same thread, same
  // thread-local) release nothing.
  if (tls_on_drainer) return;
  flush();
  // Hold the lifecycle lock across fork() so the child never inherits it
  // mid-held and no start/stop can interleave with the kernel snapshot;
  // the drain lock likewise, so the fork never lands inside a drain pass.
  lifecycle_mu_.lock();
  drain_mu_.lock();
}

void AsyncDispatcher::resume_parent_after_fork() noexcept {
  if (tls_on_drainer) return;  // quiesce_for_fork() took nothing
  drain_mu_.unlock();
  lifecycle_mu_.unlock();
}

void AsyncDispatcher::reset_after_fork(bool rearm) {
  // The drainer/watchdog threads do not exist in the child — only the
  // forking thread survives. Joining would hang forever; detach the stale
  // handles and rebuild state as if never started.
  if (drainer_.joinable()) drainer_.detach();
  if (watchdog_.joinable()) watchdog_.detach();
  running_.store(false, std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_relaxed);
  sleeping_.store(false, std::memory_order_relaxed);
  watchdog_stop_.store(false, std::memory_order_relaxed);
  inflight_event_.store(0, std::memory_order_relaxed);
  inflight_since_ns_.store(0, std::memory_order_relaxed);
  resume_parent_after_fork();  // the child's copy of the locks
  if (rearm) start();
}

EventRingStats AsyncDispatcher::stats() const noexcept {
  EventRingStats total;
  for (const auto& ring : rings_) {
    const EventRingStats s = ring->stats();
    total.submitted += s.submitted;
    total.dropped += s.dropped;
    total.overwritten += s.overwritten;
    total.delivered += s.delivered;
  }
  return total;
}

}  // namespace orca::collector
