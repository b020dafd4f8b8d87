/// \file samples.hpp
/// Sample storage for the collector tool — the "measurement/storage phase"
/// whose cost dominates the paper's overhead breakdown (Sec. V-B: 81-99% of
/// the observed overhead is measurement/storage, not callbacks).
///
/// Event samples go into `SampleLane`s: fixed-capacity, lock-free lanes,
/// one per writing thread. A writer claims a cell with one `fetch_add` and
/// publishes it with a per-cell stamp, so a signal handler interrupting a
/// record on the same thread still gets a cell of its own; the only loss
/// is a claim past capacity, and it is counted. The same lane backs the
/// PrototypeCollector's per-thread store and the SIGPROF sampler.
/// Join-time callstack records go into a per-thread growable store, since
/// their cost is exactly what experiment E6 measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"

namespace orca::perf {

/// One event notification sample. `event` and `lane` share the 32 bits
/// that once held a 32-bit event: on a little-endian host a trace written
/// before lanes existed reads back as lane 0.
struct EventSample {
  std::uint64_t ticks = 0;      ///< hardware time-counter value
  std::uint64_t region_id = 0;  ///< current parallel region (0 = none)
  std::int16_t event = 0;       ///< OMP_COLLECTORAPI_EVENT value
  std::uint16_t lane = 0;       ///< store lane (SampleStore::merged_samples)
  std::int32_t tid = 0;         ///< sampling thread's gtid
};
static_assert(sizeof(EventSample) == 24);

/// One join-time callstack record (implementation model, reconstructed to
/// the user model offline).
struct CallstackRecord {
  std::uint64_t ticks = 0;
  std::uint64_t region_id = 0;
  const void* region_fn = nullptr;        ///< outlined procedure
  std::vector<const void*> frames;        ///< innermost first
};

/// Fixed-capacity, multi-writer, async-signal-safe sample lane.
///
/// record() claims cell `tail.fetch_add(1)`, writes the sample, then
/// release-stores the cell's stamp `base + pos + 1`. No lock, allocation
/// or syscall. A lane normally has one writing thread, but a SIGPROF
/// handler re-entering on that thread, and the threads past a store's last
/// lane (SampleStore), each still get a cell of their own. A claim at or
/// past capacity is the only drop, so dropped() is just
/// `tail - capacity`.
///
/// Readers visit only cells whose stamp is published; a cell is written
/// once and never again before clear(), so a reader may run alongside the
/// writers (the sampler's pump, a crash handler). clear() advances `base`
/// by the capacity, which leaves every earlier stamp unpublished, so it is
/// O(1) — but quiescent-side, like the merge it precedes.
///
/// The cells live in a private anonymous mapping: a page counts toward RSS
/// only once a sample is written to it.
class SampleLane {
 public:
  /// Maps `capacity` cells. A failed mapping (or an injected
  /// FaultPoint::kSampleRecord failure) leaves a zero-capacity lane that
  /// counts every record as dropped.
  explicit SampleLane(std::size_t capacity);
  ~SampleLane();

  SampleLane(const SampleLane&) = delete;
  SampleLane& operator=(const SampleLane&) = delete;

  void record(const EventSample& s) noexcept {
    const std::uint64_t pos = tail_.fetch_add(1, std::memory_order_relaxed);
    if (pos >= capacity_) return;  // full: counted by dropped()
    Cell& cell = cells_[pos];
    cell.sample = s;
    cell.stamp.store(base_.load(std::memory_order_relaxed) + pos + 1,
                     std::memory_order_release);
  }

  /// Calls `fn(const EventSample&)` on every published cell, in claim
  /// order, and returns how many it visited. Async-signal-safe when `fn`
  /// is.
  template <typename Fn>
  std::size_t for_each(Fn&& fn) const {
    const std::uint64_t end = std::min<std::uint64_t>(
        tail_.load(std::memory_order_relaxed), capacity_);
    const std::uint64_t base = base_.load(std::memory_order_relaxed);
    std::size_t visited = 0;
    for (std::uint64_t pos = 0; pos < end; ++pos) {
      const Cell& cell = cells_[pos];
      if (cell.stamp.load(std::memory_order_acquire) != base + pos + 1) {
        continue;  // claimed, not yet published
      }
      fn(cell.sample);
      ++visited;
    }
    return visited;
  }

  /// Published samples.
  std::size_t size() const noexcept {
    return for_each([](const EventSample&) {});
  }

  /// Claimed cells, published or not: a bound on size() that reads no cell.
  std::size_t claimed() const noexcept {
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        tail_.load(std::memory_order_relaxed), capacity_));
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    return tail > capacity_ ? tail - capacity_ : 0;
  }

  void clear() noexcept {
    base_.fetch_add(capacity_, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> stamp;  ///< base + pos + 1 once published
    EventSample sample;
  };
  static_assert(sizeof(Cell) == 32);

  Cell* cells_ = nullptr;
  std::size_t capacity_ = 0;
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> base_{0};
};

/// Per-thread sample storage for one tool session: slot `i` is a sample
/// lane and a callstack store, each written by the thread that claimed
/// slot `i` (PrototypeCollector hands one to each calling thread).
class SampleStore {
 public:
  /// `threads` slots (at least 1, at most 65536) of `capacity` samples each.
  SampleStore(std::size_t threads, std::size_t capacity);

  /// Lane of slot `tid` (clamped to the last slot).
  SampleLane& buffer(int tid) noexcept;

  /// Append a callstack record for slot `tid`.
  void record_callstack(int tid, CallstackRecord record);

  /// All event samples, merged across slots, ordered by tick; equal ticks
  /// keep slot order, then claim order. Each sample's `lane` is its slot.
  std::vector<EventSample> merged_samples() const;

  /// All callstack records, merged, ordered by tick (ties as above).
  std::vector<CallstackRecord> merged_callstacks() const;

  /// Calls `fn(const CallstackRecord&)` on every callstack record in
  /// place, slot by slot (not in tick order), under each slot's lock.
  template <typename Fn>
  void for_each_callstack(Fn&& fn) const {
    for (const auto& slot : callstack_slots_) {
      std::scoped_lock lk(slot->mu);
      for (const CallstackRecord& rec : slot->records) fn(rec);
    }
  }

  std::uint64_t total_samples() const noexcept;
  std::uint64_t total_dropped() const noexcept;
  std::size_t slots() const noexcept { return lanes_.size(); }

  void clear();

 private:
  struct CallstackSlot {
    mutable SpinLock mu;
    std::vector<CallstackRecord> records;
  };

  /// Slot of `tid`, shared by the lanes and the callstack slots.
  std::size_t slot(int tid) const noexcept {
    return tid >= 0
               ? std::min(static_cast<std::size_t>(tid), lanes_.size() - 1)
               : 0;
  }

  std::vector<std::unique_ptr<CachePadded<SampleLane>>> lanes_;
  std::vector<CachePadded<CallstackSlot>> callstack_slots_;
};

}  // namespace orca::perf
