/// \file runtime.hpp
/// The ORCA OpenMP-style runtime — the host for the paper's ORA
/// implementation (the OpenUH runtime library stand-in).
///
/// A `Runtime` owns a persistent pool of worker threads that sleep between
/// parallel regions (exactly OpenUH's model: "all the threads survive (and
/// are sleeping) in between non-nested parallel regions"), the collector
/// registry, and all worksharing/synchronization state. It is
/// *instance-based*: MiniMPI ranks each own a private Runtime inside one
/// process. The C ABI in ompc_api.h binds to a thread-local current
/// runtime, falling back to a lazily constructed process-global default.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collector/async.hpp"
#include "collector/dispatch.hpp"
#include "collector/queue.hpp"
#include "collector/registry.hpp"
#include "common/parking.hpp"
#include "common/spinlock.hpp"
#include "runtime/config.hpp"
#include "runtime/descriptor.hpp"
#include "shm/exporter.hpp"

namespace orca::rt {

/// User-visible OpenMP lock (omp_lock_t analog). Lock waits are reported
/// through THR_LKWT_STATE and the LKWT events via the try-lock-first path
/// (paper IV-C3).
struct OmpLock {
  TicketLock impl;
};

/// Nestable OpenMP lock (omp_nest_lock_t analog).
struct OmpNestLock {
  TicketLock impl;
  std::atomic<const void*> owner{nullptr};  ///< owning thread descriptor
  int depth = 0;                            ///< only touched by the owner
};

/// Outlined parallel-region procedure: (global thread id, frame pointer),
/// the signature the OpenUH compiler gives `__ompdo_*` functions (Fig. 2).
using Microtask = void (*)(int gtid, void* frame);

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg = RuntimeConfig::from_env());
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- thread-local binding ----------------------------------------------

  /// Runtime the calling thread is bound to; lazily creates the process
  /// default on first use (which is how a collector can initialize ORA
  /// "before the OpenMP runtime library is initialized" — touching the API
  /// constructs the runtime and its serial master descriptor).
  static Runtime& current();

  /// Bind the calling thread to `rt` (MiniMPI rank setup); nullptr unbinds.
  static void make_current(Runtime* rt) noexcept;

  /// The process-global default runtime (created on demand).
  static Runtime& global();

  // --- parallel regions ---------------------------------------------------

  /// `__ompc_fork`: run `fn` on a team of `num_threads` threads
  /// (0 = the configured default). Fires OMP_EVENT_FORK/JOIN on the master,
  /// BEGIN/END_IDLE on the slaves, and brackets the region with the
  /// implicit barrier (IBAR state + events) per paper Sec. IV-C1/2.
  void fork(Microtask fn, void* frame, int num_threads = 0);

  /// Block until every pool worker has fully departed its last region
  /// (post-barrier events fired, idle again). The master returns from
  /// fork() as soon as *it* clears the join barrier; slaves may still be
  /// emitting their END_IBAR/BEGIN_IDLE events. Callers that snapshot
  /// collector state between regions use this to draw a clean line.
  void quiesce();

  /// Descriptor of the calling thread: the team-slot descriptor inside a
  /// region, the serial persona on the master outside one, or nullptr for
  /// threads unknown to this runtime.
  ThreadDescriptor* self() noexcept;

  /// Like self(), but never null: unknown threads get the serial persona
  /// (every thread must always have *a* state, paper IV-D).
  ThreadDescriptor& self_or_serial() noexcept;

  // --- worksharing --------------------------------------------------------

  /// `__ompc_static_init_4`: compute the calling thread's bounds for a
  /// statically scheduled loop. In/out: lower/upper; out: stride of the
  /// thread's block sequence. Returns false when the thread has no
  /// iterations.
  bool static_init(ThreadDescriptor& td, Schedule kind, long* lower,
                   long* upper, long* stride, long incr, long chunk);

  /// `__ompc_scheduler_init_4`: publish a dynamic/guided/runtime loop.
  void scheduler_init(ThreadDescriptor& td, Schedule kind, long lower,
                      long upper, long incr, long chunk);

  /// `__ompc_schedule_next_4`: claim the next chunk. Returns false when
  /// the loop is exhausted.
  bool schedule_next(ThreadDescriptor& td, long* lower, long* upper);

  /// `__ompc_single`: true when the calling thread executes this single
  /// block (fires the BEGIN_SINGLE event on that thread).
  bool single_begin(ThreadDescriptor& td);
  void single_end(ThreadDescriptor& td, bool executed);

  /// `__ompc_master`: true on the team master (fires BEGIN_MASTER there).
  bool master_begin(ThreadDescriptor& td);
  void master_end(ThreadDescriptor& td);

  /// `__ompc_ordered`: block until `iteration` may enter the ordered
  /// section (ODWT state/events while waiting).
  void ordered_begin(ThreadDescriptor& td, long iteration);
  void ordered_end(ThreadDescriptor& td);

  // --- synchronization ----------------------------------------------------

  /// Explicit barrier (`#pragma omp barrier` -> `__ompc_barrier`):
  /// EBAR state, per-thread ebar id, BEGIN/END_EBAR events.
  void explicit_barrier(ThreadDescriptor& td);

  /// Implicit barrier (region/worksharing end -> `__ompc_ibarrier`):
  /// IBAR state, per-thread ibar id, BEGIN/END_IBAR events. The compiler
  /// had to emit *distinct* calls for the two barrier flavours (paper
  /// IV-C2) — hence two entry points of identical machinery.
  void implicit_barrier(ThreadDescriptor& td);

  /// Critical section (`__ompc_critical` / `__ompc_end_critical`). `word`
  /// is the compiler-generated per-name lock variable; the runtime interns
  /// an actual lock per (runtime, word) on first use.
  void critical_begin(ThreadDescriptor& td, orca_lock_word* word);
  void critical_end(ThreadDescriptor& td, orca_lock_word* word);

  /// Reduction update bracket (`__ompc_reduction`/`__ompc_end_reduction`):
  /// THR_REDUC_STATE around the team reduction lock (paper IV-C5 gave
  /// reductions their own runtime call, split from critical).
  void reduction_begin(ThreadDescriptor& td);
  void reduction_end(ThreadDescriptor& td);

  /// Atomic fallback path (`__ompc_atomic_begin/end`). With
  /// `config().atomic_events` set, generates ATWT state/events — the
  /// extension OpenUH declined to implement (paper IV-C7).
  void atomic_begin(ThreadDescriptor& td);
  void atomic_end(ThreadDescriptor& td);

  // --- explicit tasks (OpenMP 3.0 extension, paper Sec. VI) ----------------

  /// `orca::omp::task`: defer `body` to the team's task pool. Serial
  /// teams (or tasking disabled) execute it immediately (undeferred).
  /// Fires ORCA_EVENT_TASK_BEGIN/END around execution either way.
  void task_spawn(ThreadDescriptor& td, std::function<void()> body);

  /// `orca::omp::taskwait`: execute/await pool tasks until none remain.
  /// (Simplification over full 3.0 semantics — waits on *all* team tasks,
  /// not just children — matching OpenUH's "partial implementation".)
  void taskwait(ThreadDescriptor& td);

  /// Pop and run one pending task; false when the pool is empty. Barriers
  /// call this in a loop, making them task scheduling points.
  bool execute_pending_task(ThreadDescriptor& td);

  // --- user-visible locks -------------------------------------------------

  void lock_init(OmpLock& lk);
  void lock_destroy(OmpLock& lk);
  void lock_acquire(ThreadDescriptor& td, OmpLock& lk);
  bool lock_test(ThreadDescriptor& td, OmpLock& lk);
  void lock_release(ThreadDescriptor& td, OmpLock& lk);

  void nest_lock_init(OmpNestLock& lk);
  void nest_lock_destroy(OmpNestLock& lk);
  void nest_lock_acquire(ThreadDescriptor& td, OmpNestLock& lk);
  void nest_lock_release(ThreadDescriptor& td, OmpNestLock& lk);

  // --- user API ------------------------------------------------------------

  int thread_num() noexcept;   ///< omp_get_thread_num
  int num_threads() noexcept;  ///< omp_get_num_threads (current team size)
  bool in_parallel() noexcept; ///< omp_in_parallel
  int max_threads() const noexcept { return config_.num_threads; }
  void set_num_threads(int n) noexcept;
  void set_nested(bool enabled) noexcept { config_.nested = enabled; }

  // --- collector glue -------------------------------------------------------

  collector::Registry& registry() noexcept { return registry_; }
  const RuntimeConfig& config() const noexcept { return config_; }

  /// `__omp_collector_api` bound to this runtime instance.
  ///
  /// Buffers containing only STATE/CURRENT_PRID/PARENT_PRID/
  /// RESILIENCE_STATS records are answered on an async-signal-safe fast
  /// path: per-thread atomic snapshots, no locks, no allocation, no queue
  /// routing — callable from a SIGPROF handler. Any other request mix
  /// takes the full dispatcher; if a signal handler re-enters the API
  /// while that dispatcher is live on the same thread, the non-signal-safe
  /// records are refused with OMP_ERRCODE_ERROR instead of deadlocking.
  int collector_api(void* arg);

  /// Requests answered on the signal-safe fast path so far.
  std::uint64_t signal_queries_served() const noexcept {
    return signal_queries_served_.load(std::memory_order_relaxed);
  }

  // --- fork()/crash glue (resilience.cpp pthread_atfork handlers) ----------

  /// atfork-prepare: flush async delivery, then hold the dispatcher and
  /// registry locks across the kernel snapshot.
  void prepare_fork();

  /// atfork-parent: release the locks taken by prepare_fork().
  void resume_parent_after_fork() noexcept;

  /// atfork-child: release inherited locks, detach the worker pool (those
  /// threads only exist in the parent), and disarm or re-arm event
  /// delivery per config().fork_mode.
  void resume_child_after_fork();

  /// Fire an event — `__ompc_event` from the paper — through the ambient
  /// (no-descriptor) path. Foreign threads and compat callers only; runtime
  /// code with a descriptor in hand uses the two-argument overload.
  /// With ORCA_EVENT_DELIVERY=async the registry's sink enqueues the event
  /// on the calling thread's ring and the drainer invokes the callback; the
  /// admission checks (registered/initialized/!paused) stay on this thread
  /// either way.
  void event(OMP_COLLECTORAPI_EVENT e) noexcept {
    shm::mirror_event(-1, static_cast<int>(e));
    registry_.fire(e);
  }

  /// Fire an event on behalf of `td` via its leased EmitterCache: the
  /// disarmed case is one relaxed 64-bit load + predictable branch, no
  /// shared-state traffic (the epoch fast path).
  void event(ThreadDescriptor& td, OMP_COLLECTORAPI_EVENT e) noexcept {
    // The shm mirror rides in front of the registry fast path; disarmed it
    // is one acquire load + branch, the same budget class as the epoch
    // fast path's relaxed mask load (docs/FLEET.md).
    shm::mirror_event(td.gtid, static_cast<int>(e));
    registry_.fire(e, td.emitter);
  }

  /// Quiescent-point hook: re-pin `td`'s emitter cache on the currently
  /// published callback generation so superseded generations can be
  /// reclaimed. Called at fork, after barriers, and on collector-API entry.
  void quiescent(ThreadDescriptor& td) noexcept {
    registry_.refresh(td.emitter);
  }

  /// Asynchronous delivery engine; nullptr when configured for synchronous
  /// dispatch (the default).
  collector::AsyncDispatcher* async_dispatcher() noexcept {
    return async_.get();
  }

  /// Total parallel regions executed (Tables I/II instrumentation).
  std::uint64_t regions_executed() const noexcept {
    return next_region_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Number of pool threads created so far (pthread_create count).
  int pool_size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Barrier algorithm of this runtime's last forked region (`kAuto`
  /// before the first). The telemetry snapshot reports 1 + this.
  BarrierKind barrier_kind() const noexcept {
    return last_barrier_.load(std::memory_order_relaxed);
  }

  /// Number of *distinct* parallel regions (unique outlined procedures)
  /// executed so far — the static region count of the paper's Table I.
  std::size_t distinct_region_count() const;

  /// Snapshot of per-outlined-procedure invocation counts (Table I/II
  /// instrumentation: "# region calls" per region).
  std::unordered_map<void*, std::uint64_t> region_call_counts() const;

 private:
  struct Worker;

  void ensure_pool(int needed);
  void worker_main(Worker& w);
  void run_region(TeamDescriptor& team, ThreadDescriptor& td);
  void fork_serialized(ThreadDescriptor& parent, Microtask fn, void* frame);
  void fork_nested(ThreadDescriptor& parent, Microtask fn, void* frame,
                   int num_threads);
  void quiesce_workers(int count);
  /// Record a freshly reset team's algorithm for barrier_kind() and the
  /// `barrier_algorithm` gauge.
  void note_barrier(BarrierKind kind) noexcept;

  /// Scratch loop state for orphaned (outside-any-team) worksharing.
  static WorkshareLoop& serial_fallback_loop() noexcept;
  TicketLock& intern_critical_lock(orca_lock_word* word);

  // Collector provider trampolines (collector::Providers hooks).
  static OMP_COLLECTOR_API_THR_STATE provider_state(void* ctx,
                                                    unsigned long* wait_id);
  static OMP_COLLECTORAPI_EC provider_current_prid(void* ctx,
                                                   unsigned long* id);
  static OMP_COLLECTORAPI_EC provider_parent_prid(void* ctx,
                                                  unsigned long* id);
  static std::size_t provider_queue_slot(void* ctx);
  static void provider_lifecycle(void* ctx, OMP_COLLECTORAPI_REQUEST req,
                                 int before, OMP_COLLECTORAPI_EC ec);
  static OMP_COLLECTORAPI_EC provider_event_stats(void* ctx,
                                                  orca_event_stats* out);
  static OMP_COLLECTORAPI_EC provider_telemetry_snapshot(
      void* ctx, orca_telemetry_snapshot* out);
  static OMP_COLLECTORAPI_EC provider_resilience_stats(
      void* ctx, orca_resilience_stats* out);

  /// Crash-dump section: loss counters and event-stats footer, written
  /// with the resilience module's signal-safe helpers.
  static void crash_section(void* ctx, int fd);

  /// Crash-dump section trampoline for the shm export layer (the runtime
  /// registers it to keep shm free of a resilience dependency).
  static void shm_crash_section(void* ctx, int fd);

  /// Answer an all-fast-kinds buffer from atomic snapshots. Returns 0
  /// (answered) or -1 (malformed) when the buffer was eligible; 1 when it
  /// holds any record the signal-safe path cannot serve.
  int signal_safe_query_path(void* arg) noexcept;

  void fill_resilience_stats(orca_resilience_stats* out) noexcept;

  /// Registry::AsyncSink trampoline: enqueue an admitted event on the
  /// calling thread's ring.
  static bool async_sink(void* ctx, OMP_COLLECTORAPI_EVENT event) noexcept;

  RuntimeConfig config_;

  /// Telemetry bits this instance armed at construction (0 = none); the
  /// destructor disarms exactly these, so concurrently-live runtimes with
  /// different configs compose through the refcounted global mask.
  std::uint64_t telemetry_bits_ = 0;

  collector::Registry registry_;
  collector::RequestQueues queues_;

  /// Master's serial persona — the second descriptor of the paper's
  /// "master has two thread descriptors" design (Sec. IV-C).
  ThreadDescriptor serial_master_;

  /// Master's in-team persona (team slot 0).
  ThreadDescriptor parallel_master_;

  std::vector<std::unique_ptr<Worker>> workers_;
  TeamDescriptor team_;           ///< recycled top-level team
  std::atomic<BarrierKind> last_barrier_{BarrierKind::kAuto};
  std::atomic<std::uint64_t> next_region_id_{1};
  std::atomic<bool> master_claimed_{false};
  std::atomic<std::uint32_t> nested_gtid_counter_{0};

  SpinLock critical_mu_;
  std::unordered_map<orca_lock_word*, std::unique_ptr<TicketLock>>
      critical_locks_;

  /// Global lock backing the atomic fallback path.
  TicketLock atomic_lock_;

  mutable SpinLock regions_mu_;
  std::unordered_map<void*, std::uint64_t> region_calls_;  ///< fn -> calls

  /// Requests answered by signal_safe_query_path().
  std::atomic<std::uint64_t> signal_queries_served_{0};

  /// Crash-dump section slot (-1 when the dump is not armed or the table
  /// was full).
  int crash_section_slot_ = -1;

  /// Whether this instance holds a refcount on the process shm exporter,
  /// and its crash-section slot (-1 when none).
  bool shm_armed_ = false;
  int shm_crash_slot_ = -1;

  /// Asynchronous event delivery (EventDelivery::kAsync only). Declared
  /// last so its destructor — which joins the drainer thread that still
  /// reads registry_ — runs before the members it depends on are torn down.
  std::unique_ptr<collector::AsyncDispatcher> async_;
};

}  // namespace orca::rt
