/// \file parking.hpp
/// The runtime's one blocking primitive: spin for a while, then park.
///
/// OpenUH keeps slave threads "sleeping in between non-nested parallel
/// regions" (paper Sec. IV-C1). `Parker` is the piece that implements that
/// sleep, and the centralized team barrier waits on one too: both are "wait
/// until an epoch word moves past `seen`", woken by whoever advances it.
///
/// A futex sleep and wake costs tens of microseconds, more than the gap
/// between one region's join and the next fork, so `wait()` first spins
/// for a time budget (`kParkSpinBudget`), not a PAUSE count: PAUSE latency
/// differs about 10x across x86 generations. The long spin is throttled the
/// way libgomp throttles its spin count: it runs only while the process's
/// managed threads fit in the CPUs of its affinity mask. Oversubscribed,
/// a waiter keeps the short `kSpinBeforeYield` window and sleeps, so the
/// thread it waits for gets the CPU.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/spinlock.hpp"

namespace orca {

/// How long `Parker::wait` spins before it parks, when the throttle allows.
inline constexpr std::chrono::microseconds kParkSpinBudget{150};

/// Process-wide count of threads the runtime schedules work on, across
/// every runtime: pool workers and nested-team slaves, plus one for the
/// calling master. Threads are added on creation, removed on exit.
inline std::atomic<int>& managed_thread_count() noexcept {
  static std::atomic<int> count{1};
  return count;
}

/// CPUs in the process's affinity mask, read once. Cached in a plain
/// atomic rather than a guarded static: a fork() that lands while another
/// thread holds an init guard would leave the child waiting on it forever.
inline int affinity_cpus() noexcept {
  static std::atomic<int> cached{0};
  int cpus = cached.load(std::memory_order_relaxed);
  if (cpus == 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    cpus = ::sched_getaffinity(0, sizeof(set), &set) == 0
               ? CPU_COUNT(&set)
               : static_cast<int>(
                     std::max(1U, std::thread::hardware_concurrency()));
    cached.store(cpus, std::memory_order_relaxed);
  }
  return cpus;
}

/// The throttle: the full spin budget while `managed_threads` fit in
/// `cpus`, none (only the short PAUSE window) once they outnumber them.
inline std::chrono::microseconds park_spin_budget(int managed_threads,
                                                  int cpus) noexcept {
  return managed_threads <= cpus ? kParkSpinBudget
                                 : std::chrono::microseconds{0};
}

/// Who `Parker::advance` wakes when a waiter is parked.
enum class Wake { kOne, kAll };

/// Epoch word plus a condvar to park on. Waiters call `wait(seen)` and
/// return once the epoch has advanced past `seen`; a producer calls
/// `advance()` to bump the epoch and wake one parked waiter (a worker's
/// own parker) or all of them (a team barrier's release).
class Parker {
 public:
  /// Current epoch; a waiter records this before going to work so the
  /// next `wait()` can detect an advance that raced ahead of it.
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Block until `epoch() > seen`: the short PAUSE window, then (throttle
  /// permitting) up to `kParkSpinBudget` of PAUSE batches with a yield and
  /// a clock read between them, then the condvar sleep. Back-to-back
  /// parallel regions and barriers then never enter the kernel.
  void wait(std::uint64_t seen) {
    if (spin_short(seen) || spin_budget(seen)) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return advanced(seen); });
  }

  /// Like `wait()`, but only the short spin, and gives up after `timeout`.
  /// Returns true when the epoch advanced, false on timeout. Consumers
  /// whose producers signal opportunistically (the async event drainer)
  /// use this as a bounded backstop against lost wake-ups instead of a
  /// seq-cst handshake on the producer fast path.
  template <typename Rep, typename Period>
  bool wait_for(std::uint64_t seen,
                std::chrono::duration<Rep, Period> timeout) {
    if (spin_short(seen)) return true;
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return advanced(seen); });
  }

  /// Advance the epoch and wake one or every parked waiter.
  void advance(Wake wake = Wake::kOne) {
    {
      // The lock orders the epoch bump with a parking waiter's predicate
      // check; without it a wait could miss the advance and sleep forever.
      std::scoped_lock lk(mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    if (wake == Wake::kAll) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

 private:
  bool advanced(std::uint64_t seen) const noexcept {
    return epoch_.load(std::memory_order_acquire) > seen;
  }

  bool spin_short(std::uint64_t seen) const noexcept {
    for (int i = 0; i < kSpinBeforeYield; ++i) {
      if (advanced(seen)) return true;
      cpu_relax();
    }
    return false;
  }

  bool spin_budget(std::uint64_t seen) const noexcept {
    const auto budget = park_spin_budget(
        managed_thread_count().load(std::memory_order_relaxed),
        affinity_cpus());
    if (budget.count() == 0) return false;
    const auto deadline = std::chrono::steady_clock::now() + budget;
    do {
      std::this_thread::yield();
      if (spin_short(seen)) return true;
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  }

  std::atomic<std::uint64_t> epoch_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace orca
