/// \file descriptor.hpp
/// Thread and team descriptors — the data structures the paper's runtime
/// modifications live in.
///
/// Paper Sec. IV-C: "The state values are stored in a field of the OpenMP
/// thread descriptor, a data structure that is kept within the runtime to
/// manage OpenMP threads. [...] The master thread is the only thread that
/// can run in parallel or serial mode and because of that it has two thread
/// descriptors."
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "collector/api.h"
#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "runtime/barrier.hpp"
#include "runtime/config.hpp"
#include "telemetry/telemetry.hpp"

namespace orca::collector {
class EmitterCache;
}  // namespace orca::collector

namespace orca::rt {

class Runtime;
struct TeamDescriptor;

/// Per-thread runtime bookkeeping. One exists per pool worker, one for the
/// master's serial persona, and one per member slot of an active team.
struct ThreadDescriptor {
  /// Global thread id within the owning runtime (0 = master). This is the
  /// `__ompv_gtid` value the outlined procedure receives (paper Fig. 2).
  int gtid = 0;

  /// Thread id within the current team (omp_get_thread_num()).
  int tid_in_team = 0;

  /// Current collector state. Always maintained once the runtime is
  /// initialized — "keeping track of the thread states is an inexpensive
  /// operation which consists of performing one assignment operation per
  /// state" (paper IV-C) — hence a relaxed store, no branches.
  std::atomic<int> state{THR_SERIAL_STATE};

  // Wait ids (paper IV-C2/3/4, IV-D): "Each thread keeps track of its own
  // wait IDs", incremented every time the thread enters the corresponding
  // wait. Only ever written by the owning thread.
  unsigned long ibar_id = 0;       ///< implicit-barrier id
  unsigned long ebar_id = 0;       ///< explicit-barrier id
  unsigned long lock_wait_id = 0;  ///< user-lock wait id
  unsigned long critical_wait_id = 0;
  unsigned long ordered_wait_id = 0;
  unsigned long atomic_wait_id = 0;

  /// Worksharing-loop instances this thread has encountered in the current
  /// team (selects the dispatch buffer, see WorkshareLoop).
  std::uint64_t loop_count = 0;

  /// `single` constructs encountered in the current team (claim ticket).
  std::uint64_t single_count = 0;

  /// Team this thread is currently executing in; nullptr when idle/serial.
  TeamDescriptor* team = nullptr;

  // Async-signal-safe region-id snapshots (docs/RESILIENCE.md). `team` and
  // the chain behind it are written by the *master* while a worker is
  // parked, so a signal landing on that worker cannot safely walk them.
  // Every site that changes a descriptor's team publishes the region ids
  // here (publish_region_snapshot, non-signal context); the fast path in
  // Runtime::collector_api reads only these relaxed atomics.
  std::atomic<unsigned long> snap_current_prid{0};
  std::atomic<unsigned long> snap_parent_prid{0};
  std::atomic<int> snap_in_parallel{0};  ///< 0 => PRID answers SEQUENCE_ERR

  /// Re-derive the snapshot from `team` (walking out of serialized nested
  /// teams exactly like the slow-path providers). Call after every write to
  /// `team`; defined after TeamDescriptor below.
  void publish_region_snapshot() noexcept;

  /// Pending-children counter of the task (or thread) currently executing
  /// on this thread: spawned tasks register here, and `taskwait` waits for
  /// exactly this counter — OpenMP's child-only semantics. Outside any
  /// explicit task it points at `own_task_children`.
  std::atomic<int>* task_children = nullptr;

  /// Children spawned directly from this thread's implicit task.
  std::atomic<int> own_task_children{0};

  /// Owning runtime instance.
  Runtime* runtime = nullptr;

  /// This thread's leased event-admission cache (64-bit armed mask + pinned
  /// callback generation; see collector/registry.hpp). Owned by the
  /// registry; the descriptor only carries the lease so emission sites can
  /// take the one-load fast path. nullptr for ephemeral descriptors
  /// (serialized scratch teams), which fall back to the ambient path.
  collector::EmitterCache* emitter = nullptr;

  void set_state(OMP_COLLECTOR_API_THR_STATE s) noexcept {
    state.store(static_cast<int>(s), std::memory_order_relaxed);
    // Timeline piggyback on the paper's "one assignment per state" point:
    // disarmed this is one relaxed load + branch on top of the store.
    telemetry::record_state(static_cast<int>(s));
  }
  OMP_COLLECTOR_API_THR_STATE get_state() const noexcept {
    return static_cast<OMP_COLLECTOR_API_THR_STATE>(
        state.load(std::memory_order_relaxed));
  }

  /// Reset the per-team counters when the thread joins a new team.
  void begin_team(TeamDescriptor* t, int tid) noexcept {
    team = t;
    tid_in_team = tid;
    loop_count = 0;
    single_count = 0;
    own_task_children.store(0, std::memory_order_relaxed);
    task_children = &own_task_children;
    publish_region_snapshot();
  }
};

/// Shared state of one worksharing loop instance. Teams keep a small ring
/// of these ("dispatch buffers") so a nowait loop can still be draining
/// while the next loop initializes.
struct WorkshareLoop {
  SpinLock init_mu;
  std::uint64_t sequence = 0;  ///< loop instance number occupying this buffer
  bool initialized = false;

  Schedule kind = Schedule::kStaticEven;
  long lower = 0;
  long upper = 0;
  long incr = 1;
  long chunk = 1;
  long trip_count = 0;

  /// Next unclaimed logical iteration index [0, trip_count).
  std::atomic<long> next{0};
};

/// Compiler-visible handle for a critical section / reduction lock. The
/// OpenUH compiler materializes one static variable per critical name and
/// passes its address to `__ompc_critical`; the runtime allocates the lock
/// on first use. `orca_lock_word` plays that static variable's role.
using orca_lock_word = std::atomic<void*>;

/// One parallel-region team.
struct TeamDescriptor {
  Runtime* runtime = nullptr;
  int size = 1;

  /// ORA region ids (paper IV-E): updated each time a team executes a
  /// parallel region; parent id is 0 for non-nested regions.
  unsigned long region_id = 0;
  unsigned long parent_region_id = 0;

  /// True for a real parallel region (PRID queries answer OK); false for
  /// the synthetic serial "team" wrapping serialized nested regions.
  bool is_parallel = false;

  /// Enclosing team (nullptr for top-level teams). Serialized nested
  /// "teams" use this so region-id queries can walk out to the innermost
  /// *parallel* team (paper IV-E keeps reporting the outer region's id).
  TeamDescriptor* parent_team = nullptr;

  /// Outlined procedure and its frame pointer (paper Fig. 2:
  /// `__ompdo_main1` and `stack_pointer_of_main1`).
  void (*fn)(int, void*) = nullptr;
  void* frame = nullptr;

  TeamBarrier barrier;

  /// `single` construct: monotonically increasing claim counter; the
  /// thread that advances it from k-1 to k executes the k-th single.
  std::atomic<std::uint64_t> single_claimed{0};

  /// `ordered` construct: next logical iteration allowed to enter.
  std::atomic<long> ordered_next{0};

  /// Per-team lock backing `__ompc_reduction` (the compiler-generated lock
  /// of paper Fig. 2).
  TicketLock reduction_lock;

  /// Dispatch buffers for in-flight worksharing loops.
  static constexpr std::uint64_t kLoopBuffers = 4;
  CachePadded<WorkshareLoop> loops[kLoopBuffers];

  /// Highest loop sequence number initialized so far.
  std::uint64_t loop_hwm = 0;
  SpinLock loop_mu;

  /// One deferred task: the packaged body plus the pending-children
  /// counter of its parent (decremented when this task completes).
  struct TaskFrame {
    std::function<void()> body;
    std::atomic<int>* parent_children = nullptr;
  };

  /// Explicit-task pool (OpenMP 3.0 tasking, the ORCA extension of the
  /// paper's future work): deferred tasks pushed by any team member and
  /// drained at scheduling points (taskwait, barriers).
  SpinLock task_mu;
  std::deque<TaskFrame> task_queue;
  std::atomic<int> tasks_in_flight{0};

  /// Member descriptors, indexed by tid (slot 0 = master persona).
  std::vector<ThreadDescriptor*> members;

  WorkshareLoop& loop_buffer(std::uint64_t sequence) noexcept {
    return *loops[sequence % kLoopBuffers];
  }

  void reset_for_region(unsigned long rid, unsigned long parent_rid, int n,
                        void (*outlined)(int, void*), void* fp) {
    region_id = rid;
    parent_region_id = parent_rid;
    parent_team = nullptr;
    size = n;
    is_parallel = true;
    fn = outlined;
    frame = fp;
    barrier.init(n);
    single_claimed.store(0, std::memory_order_relaxed);
    ordered_next.store(0, std::memory_order_relaxed);
    loop_hwm = 0;
    for (auto& buf : loops) {
      buf->initialized = false;
      buf->sequence = 0;
    }
    {
      std::scoped_lock lk(task_mu);
      task_queue.clear();
    }
    tasks_in_flight.store(0, std::memory_order_relaxed);
    members.assign(static_cast<std::size_t>(n), nullptr);
  }
};

inline void ThreadDescriptor::publish_region_snapshot() noexcept {
  // Same walk as the slow-path PRID providers: serialized nested "teams"
  // defer to the innermost *parallel* team (paper IV-E).
  const TeamDescriptor* t = team;
  while (t != nullptr && !t->is_parallel) t = t->parent_team;
  if (t == nullptr) {
    snap_in_parallel.store(0, std::memory_order_relaxed);
    snap_current_prid.store(0, std::memory_order_relaxed);
    snap_parent_prid.store(0, std::memory_order_relaxed);
    return;
  }
  snap_current_prid.store(t->region_id, std::memory_order_relaxed);
  snap_parent_prid.store(t->parent_region_id, std::memory_order_relaxed);
  // in_parallel last (release) so a fast-path reader that sees 1 also sees
  // the ids of this region, not a torn mix with the previous one.
  snap_in_parallel.store(1, std::memory_order_release);
}

}  // namespace orca::rt
