/// \file fault_injection.hpp
/// Fault-injection seams for the collector/runtime boundary.
///
/// The collector protocol's interesting failures live at seams — a callback
/// stalls the drainer mid-flush, a ring saturates while STOP races in, an
/// allocation fails under a builder append — that ordinary tests reach only
/// by luck. This header gives the product code named injection points that
/// are *always compiled in* and cost one relaxed atomic load + predicted
/// branch when disarmed, so shipping code and tested code are the same
/// code. Tests arm the singleton to attach hooks (block, re-enter, throw),
/// make the next N allocations at a point fail, or turn on seeded
/// schedule perturbation (random yields at every seam) to shake out
/// interleavings TSan alone cannot reach.
///
/// Header-only on purpose: the seams sit below every library in the
/// dependency graph (collector, runtime, perf), so the hook must not drag
/// in a link-time dependency on the testing library.
///
/// Concurrency contract: configuration (set_hook / fail_allocs / perturb)
/// happens while disarmed; arm() release-publishes it and the seam's
/// acquire re-check orders the reads, so armed runs are data-race-free.
/// disarm() may only be called when no seam is concurrently executing a
/// hook (tests join their threads first).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

namespace orca::testing {

/// Every injection seam in the system. Sites cost nothing when disarmed.
enum class FaultPoint : int {
  kEventFire = 0,     ///< Registry::fire — the event-dispatch hot path
  kApiEnter,          ///< process_messages entry (__omp_collector_api)
  kQueueDrain,        ///< per request drained from a thread's queue
  kLifecycleBefore,   ///< runtime lifecycle hook, ahead of the transition
  kLifecycleAfter,    ///< runtime lifecycle hook, after the transition
  kAsyncPublish,      ///< AsyncDispatcher::publish (producer side)
  kAsyncDeliver,      ///< AsyncDispatcher::deliver, before the callback
  kAsyncFlush,        ///< AsyncDispatcher::flush barrier entry
  kAsyncDrain,        ///< AsyncDispatcher::drain_pass (drainer loop)
  kMessageAppend,     ///< MessageBuilder::append_record allocation
  kSampleRecord,      ///< perf::SampleLane constructor mapping
  kGenerationPublish, ///< Registry::publish_locked — new generation swap
  kGenerationRetire,  ///< Registry::scan_retired_locked — reclamation scan
  kSignalDuringQuery, ///< collector_api entry, ahead of the fast-path walk
  kCallbackStall,     ///< AsyncDispatcher::deliver, watchdog-stamped window
  kForkRace,          ///< pthread_atfork prepare, before the pre-fork quiesce
  kShmArm,            ///< ShmExporter::create — segment sizing/mapping
  kShmMirror,         ///< heartbeat telemetry mirror refresh
  kShmAttach,         ///< SegmentReader::attach entry (reader side)
  kShardDrain,        ///< FleetMonitor shard loop, top of each pass
  kHeartbeat,         ///< exporter heartbeat loop, each beat
  kCount_
};

inline constexpr int kFaultPointCount = static_cast<int>(FaultPoint::kCount_);

constexpr const char* fault_point_name(FaultPoint p) noexcept {
  switch (p) {
    case FaultPoint::kEventFire: return "event_fire";
    case FaultPoint::kApiEnter: return "api_enter";
    case FaultPoint::kQueueDrain: return "queue_drain";
    case FaultPoint::kLifecycleBefore: return "lifecycle_before";
    case FaultPoint::kLifecycleAfter: return "lifecycle_after";
    case FaultPoint::kAsyncPublish: return "async_publish";
    case FaultPoint::kAsyncDeliver: return "async_deliver";
    case FaultPoint::kAsyncFlush: return "async_flush";
    case FaultPoint::kAsyncDrain: return "async_drain";
    case FaultPoint::kMessageAppend: return "message_append";
    case FaultPoint::kSampleRecord: return "sample_record";
    case FaultPoint::kGenerationPublish: return "generation_publish";
    case FaultPoint::kGenerationRetire: return "generation_retire";
    case FaultPoint::kSignalDuringQuery: return "signal_during_query";
    case FaultPoint::kCallbackStall: return "callback_stall";
    case FaultPoint::kForkRace: return "fork_race";
    case FaultPoint::kShmArm: return "shm_arm";
    case FaultPoint::kShmMirror: return "shm_mirror";
    case FaultPoint::kShmAttach: return "shm_attach";
    case FaultPoint::kShardDrain: return "shard_drain";
    case FaultPoint::kHeartbeat: return "heartbeat";
    case FaultPoint::kCount_: break;
  }
  return "?";
}

class FaultInjector {
 public:
  static FaultInjector& instance() noexcept {
    static FaultInjector injector;
    return injector;
  }

  /// The disarmed-path cost: one relaxed load, one predicted branch.
  static bool armed() noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Seam call site. Product code invokes this (or the macro below) at
  /// every FaultPoint; everything past the relaxed check is the slow path.
  static void point(FaultPoint p) {
    if (armed()) instance().on(p);
  }

  /// Allocation-failure seam: true when the site must behave as if the
  /// allocation failed. Consumes one unit of the point's failure budget.
  static bool alloc_fails(FaultPoint p) noexcept {
    return armed() && instance().consume_alloc_budget(p);
  }

  // --- test-side configuration (call while disarmed) -----------------------

  /// Release-publish the configuration and enable every seam.
  void arm() noexcept { armed_.store(true, std::memory_order_release); }

  /// Disable every seam and reset hooks, budgets, counters, perturbation.
  void disarm() noexcept {
    armed_.store(false, std::memory_order_release);
    for (auto& ps : points_) {
      ps.hook = nullptr;
      ps.alloc_budget.store(0, std::memory_order_relaxed);
      ps.hits.store(0, std::memory_order_relaxed);
    }
    perturb_seed_.store(0, std::memory_order_relaxed);
    yield_one_in_.store(0, std::memory_order_relaxed);
  }

  /// Run `fn` every time `p` is reached. The hook runs on whatever thread
  /// hit the seam (application thread, drainer, …) and may block, re-enter
  /// `omp_collector_api`, or throw (where the surrounding seam permits).
  void set_hook(FaultPoint p, std::function<void()> fn) {
    points_[index(p)].hook = std::move(fn);
  }

  /// Make the next `count` allocations at `p` fail.
  void fail_allocs(FaultPoint p, std::uint32_t count) noexcept {
    points_[index(p)].alloc_budget.store(count, std::memory_order_relaxed);
  }

  /// Schedule perturbation: every armed seam yields with probability
  /// 1/`one_in` (0 disables), drawn from a per-thread stream derived from
  /// `seed` — deterministic per thread, adversarial across them.
  void perturb(std::uint64_t seed, std::uint32_t one_in) noexcept {
    perturb_seed_.store(seed, std::memory_order_relaxed);
    yield_one_in_.store(one_in, std::memory_order_relaxed);
  }

  /// Times `p` was reached while armed (diagnostics / disarmed-cost tests).
  std::uint64_t hits(FaultPoint p) const noexcept {
    return points_[index(p)].hits.load(std::memory_order_relaxed);
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;

  static std::size_t index(FaultPoint p) noexcept {
    return static_cast<std::size_t>(static_cast<int>(p));
  }

  void on(FaultPoint p) {
    // Acquire re-check pairs with arm()'s release store: it orders the
    // configuration writes below (hooks, perturbation) for this thread.
    if (!armed_.load(std::memory_order_acquire)) return;
    PointState& ps = points_[index(p)];
    ps.hits.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t one_in = yield_one_in_.load(std::memory_order_relaxed);
    if (one_in != 0 && perturb_roll() % one_in == 0) {
      std::this_thread::yield();
    }
    if (ps.hook) ps.hook();
  }

  bool consume_alloc_budget(FaultPoint p) noexcept {
    if (!armed_.load(std::memory_order_acquire)) return false;
    std::atomic<std::uint32_t>& budget = points_[index(p)].alloc_budget;
    std::uint32_t n = budget.load(std::memory_order_relaxed);
    while (n > 0) {
      if (budget.compare_exchange_weak(n, n - 1, std::memory_order_relaxed)) {
        points_[index(p)].hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Per-thread SplitMix64 stream seeded from the global perturbation seed
  /// and the thread identity, so replays keep per-thread decisions stable.
  std::uint64_t perturb_roll() noexcept {
    thread_local std::uint64_t state = 0;
    if (state == 0) {
      state = perturb_seed_.load(std::memory_order_relaxed) ^
              (std::hash<std::thread::id>{}(std::this_thread::get_id()) |
               0x9E3779B97F4A7C15ULL);
    }
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  struct PointState {
    std::function<void()> hook;                 ///< mutated only disarmed
    std::atomic<std::uint32_t> alloc_budget{0};
    std::atomic<std::uint64_t> hits{0};
  };

  std::array<PointState, kFaultPointCount> points_{};
  std::atomic<std::uint64_t> perturb_seed_{0};
  std::atomic<std::uint32_t> yield_one_in_{0};
  static inline std::atomic<bool> armed_{false};
};

}  // namespace orca::testing

/// Seam call-site macro: reads better than the qualified call at sites
/// inside foreign namespaces.
#define ORCA_FAULT_POINT(p) \
  ::orca::testing::FaultInjector::point(::orca::testing::FaultPoint::p)
