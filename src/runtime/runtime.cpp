#include "runtime/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <string>

#include "collector/message.hpp"
#include "collector/names.hpp"
#include "runtime/resilience.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/fault_injection.hpp"

namespace orca::rt {
namespace {

/// Thread-local binding: which runtime this OS thread belongs to, and its
/// descriptor there. Workers bind themselves at startup; MiniMPI ranks bind
/// via make_current(); the first foreign thread to touch a runtime claims
/// its master persona.
thread_local Runtime* tls_runtime = nullptr;
thread_local ThreadDescriptor* tls_descriptor = nullptr;

/// Reentrancy sentinel for collector_api: set while the full (lock-taking)
/// dispatcher runs on this thread, so a signal handler re-entering the API
/// mid-dispatch can be refused instead of self-deadlocking on the queue or
/// registry locks.
thread_local bool tls_in_collector_api = false;

}  // namespace

/// Pool worker: a slave thread that survives, sleeping, between parallel
/// regions (paper IV-C1).
struct Runtime::Worker {
  Worker(Runtime& owner, int slot) : runtime(owner) {
    desc.gtid = slot + 1;
    desc.runtime = &owner;
    // Paper IV-D: slave descriptors start in THR_OVHD_STATE "to reflect
    // the slave threads are in the process of being created", so a state
    // query during creation still has an answer.
    desc.set_state(THR_OVHD_STATE);
    desc.emitter = owner.registry().acquire_emitter();
    managed_thread_count().fetch_add(1, std::memory_order_relaxed);
    thread = std::thread([this] { runtime.worker_main(*this); });
  }

  ~Worker() {
    shutdown.store(true, std::memory_order_release);
    // The advance exists only to wake the thread for the join. After a
    // fork() the child detaches the handle first (the thread exists only
    // in the parent), and skipping the advance then is what keeps this
    // destructor fork-safe: Parker::advance() locks a mutex the vanished
    // worker may have held at the snapshot instant.
    if (thread.joinable()) {
      parker.advance();
      thread.join();
    }
    managed_thread_count().fetch_sub(1, std::memory_order_relaxed);
    runtime.registry().release_emitter(desc.emitter);
  }

  Runtime& runtime;
  ThreadDescriptor desc;
  Parker parker;
  std::atomic<TeamDescriptor*> inbox{nullptr};
  std::atomic<bool> shutdown{false};
  std::thread thread;  // last member: starts only after the rest is ready
};

namespace {

/// Capabilities advertised to collectors, derived from the configuration:
/// the OpenUH 2009 baseline, plus whichever extensions are switched on.
collector::EventCapabilities capabilities_for(const RuntimeConfig& cfg) {
  collector::EventCapabilities caps =
      collector::EventCapabilities::openuh_default();
  if (cfg.atomic_events) {
    caps.enable(OMP_EVENT_THR_BEGIN_ATWT);
    caps.enable(OMP_EVENT_THR_END_ATWT);
  }
  if (cfg.tasking) {
    caps.enable(ORCA_EVENT_TASK_BEGIN);
    caps.enable(ORCA_EVENT_TASK_END);
  }
  return caps;
}

}  // namespace

Runtime::Runtime(RuntimeConfig cfg)
    : config_(cfg),
      registry_(capabilities_for(cfg)),
      queues_(static_cast<std::size_t>(cfg.max_threads) + 1,
              cfg.per_thread_queues ? collector::QueuePolicy::kPerThread
                                    : collector::QueuePolicy::kGlobal) {
  config_.num_threads = std::clamp(config_.num_threads, 1, config_.max_threads);
  // Arm self-telemetry before any state store or worker spawn so the very
  // first transitions are captured. Reference-counted: the destructor
  // disarms the same bits, so runtime-per-test storms compose.
  if (config_.telemetry_timeline || config_.telemetry_metrics) {
    if (config_.telemetry_timeline) {
      telemetry::set_ring_capacity(config_.telemetry_ring_capacity);
    }
    telemetry_bits_ =
        (config_.telemetry_timeline ? telemetry::kTimelineBit : 0) |
        (config_.telemetry_metrics ? telemetry::kMetricsBit : 0);
    telemetry::arm(telemetry_bits_);
    telemetry::name_thread("master");
  }
  serial_master_.gtid = 0;
  serial_master_.runtime = this;
  serial_master_.set_state(THR_SERIAL_STATE);
  serial_master_.emitter = registry_.acquire_emitter();
  parallel_master_.gtid = 0;
  parallel_master_.runtime = this;
  parallel_master_.emitter = registry_.acquire_emitter();
  team_.runtime = this;
  if (config_.event_delivery == EventDelivery::kAsync) {
    async_ = std::make_unique<collector::AsyncDispatcher>(
        registry_, static_cast<std::size_t>(config_.max_threads) + 1,
        config_.event_ring_capacity, config_.event_backpressure);
    // Installed before any event can fire; the drainer itself starts
    // lazily on OMP_REQ_START (provider_lifecycle) so uninstrumented runs
    // never pay for the extra thread.
    registry_.set_async_sink(&Runtime::async_sink, this);
    // Deadline set before the drainer can start: start() reads it to
    // decide whether to spawn the watchdog.
    async_->set_callback_deadline(config_.callback_deadline_ms);
  }
  if (!config_.crash_dump.empty()) {
    resilience::arm_crash_dump(config_.crash_dump.c_str());
    crash_section_slot_ =
        resilience::register_crash_section("runtime", &Runtime::crash_section,
                                           this);
  }
  if (config_.shm_export) {
    // Hygiene first: segments a crashed run left behind would otherwise
    // sit in /dev/shm forever and confuse fleet discovery.
    shm::cleanup_stale_segments(config_.shm_prefix);
    shm::ExporterOptions sopts;
    sopts.name = shm::default_segment_name(config_.shm_prefix);
#if defined(__GLIBC__)
    sopts.label = program_invocation_short_name;
#else
    sopts.label = "orca";
#endif
    sopts.ring_count = static_cast<std::uint32_t>(config_.max_threads) + 1;
    sopts.warm_rings = static_cast<std::uint32_t>(config_.num_threads);
    sopts.event_capacity =
        static_cast<std::uint32_t>(config_.shm_ring_capacity);
    sopts.heartbeat_ms = static_cast<std::uint32_t>(config_.shm_heartbeat_ms);
    shm_armed_ = shm::arm(sopts);
    if (shm_armed_) {
      // Crash handlers go in even without ORCA_CRASH_DUMP: the shm crash
      // region is its own sink, so a SIGSEGV postmortem lands there (and
      // the heartbeat's rolling snapshot covers SIGKILL, where no handler
      // can run).
      resilience::arm_crash_sections();
      shm_crash_slot_ = resilience::register_crash_section(
          "shm-export", &Runtime::shm_crash_section, nullptr);
    }
  }
  resilience::register_fork_participant(this);
}

Runtime::~Runtime() {
  // Unhook from the process-global tables first: an atfork or crash
  // handler firing mid-destruction must not walk into a dying runtime.
  resilience::unregister_fork_participant(this);
  resilience::unregister_crash_section(crash_section_slot_);
  resilience::unregister_crash_section(shm_crash_slot_);
  // Workers join in ~Worker (CP.25: threads are joined, never detached) —
  // before ~async_ so every event producer is gone when the drainer stops.
  workers_.clear();
  if (async_) async_->stop_and_join();
  // Every event producer is quiescent now; the last disarm finalizes the
  // segment (final telemetry mirror — so it must run before telemetry
  // disarms below) and unlinks it.
  if (shm_armed_) shm::disarm();
  registry_.release_emitter(serial_master_.emitter);
  registry_.release_emitter(parallel_master_.emitter);
  // Export before disarming: workers and the drainer are quiescent, so the
  // timeline/metric reads are exact.
  if (telemetry_bits_ != 0) {
    if (!config_.telemetry_trace.empty()) {
      telemetry::write_chrome_trace(config_.telemetry_trace, {});
    }
    telemetry::shutdown_report(config_.telemetry_report);
    telemetry::disarm(telemetry_bits_);
  }
  if (tls_runtime == this) {
    tls_runtime = nullptr;
    tls_descriptor = nullptr;
  }
}

Runtime& Runtime::global() {
  // Magic-static: thread-safe since C++11, avoids hand-rolled
  // double-checked locking (Core Guidelines CP.110).
  static Runtime instance;
  return instance;
}

Runtime& Runtime::current() {
  if (tls_runtime != nullptr) return *tls_runtime;
  Runtime& g = global();
  tls_runtime = &g;
  return g;
}

void Runtime::make_current(Runtime* rt) noexcept {
  tls_runtime = rt;
  tls_descriptor = nullptr;
  if (rt != nullptr) (void)rt->self();  // claim the master persona if free
}

ThreadDescriptor* Runtime::self() noexcept {
  if (tls_descriptor != nullptr && tls_descriptor->runtime == this) {
    return tls_descriptor;
  }
  bool expected = false;
  if (master_claimed_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    tls_runtime = this;
    tls_descriptor = &serial_master_;
    return tls_descriptor;
  }
  return nullptr;
}

ThreadDescriptor& Runtime::self_or_serial() noexcept {
  ThreadDescriptor* td = self();
  // Threads unknown to the runtime still get an answer (paper IV-D: any
  // thread "will always return a correct value"): they observe the serial
  // persona, whose state is at least THR_SERIAL_STATE.
  return td != nullptr ? *td : serial_master_;
}

void Runtime::ensure_pool(int needed) {
  while (static_cast<int>(workers_.size()) < needed) {
    workers_.push_back(
        std::make_unique<Worker>(*this, static_cast<int>(workers_.size())));
  }
}

void Runtime::quiesce() { quiesce_workers(static_cast<int>(workers_.size())); }

void Runtime::quiesce_workers(int count) {
  Backoff backoff;
  for (int i = 0; i < count && i < static_cast<int>(workers_.size()); ++i) {
    while (workers_[static_cast<std::size_t>(i)]->inbox.load(
               std::memory_order_acquire) != nullptr) {
      backoff.pause();
    }
    backoff.reset();
  }
}

void Runtime::worker_main(Worker& w) {
  tls_runtime = this;
  tls_descriptor = &w.desc;
  telemetry::name_thread("worker-" + std::to_string(w.desc.gtid));
  // Creation complete: the slave parks between regions in the idle state
  // (paper IV-C1: "as soon as the threads are created, they are set to be
  // in the THR_IDLE_STATE and OMP_EVENT_THR_BEGIN_IDLE triggers").
  w.desc.set_state(THR_IDLE_STATE);
  event(w.desc, OMP_EVENT_THR_BEGIN_IDLE);

  // Start from epoch 0, not the current epoch: the master may already have
  // signalled this worker's first assignment while the thread was starting
  // up, and that signal must not be lost.
  std::uint64_t seen = 0;
  for (;;) {
    // A parked thread is quiescent: drop the generation pin so REGISTER
    // churn between regions never keeps retired callback tables alive.
    registry_.unpin(w.desc.emitter);
    w.parker.wait(seen);
    seen = w.parker.epoch();
    if (w.shutdown.load(std::memory_order_acquire)) break;
    TeamDescriptor* team = w.inbox.load(std::memory_order_acquire);
    if (team == nullptr) continue;  // spurious wake-up

    registry_.refresh(w.desc.emitter);  // wake-up = quiescent point
    event(w.desc, OMP_EVENT_THR_END_IDLE);
    w.desc.set_state(THR_WORK_STATE);
    run_region(*team, w.desc);
    w.desc.team = nullptr;
    w.desc.publish_region_snapshot();
    w.desc.set_state(THR_IDLE_STATE);
    event(w.desc, OMP_EVENT_THR_BEGIN_IDLE);
    // Last store: tells the master's quiesce that this worker has fully
    // departed the team (the team object may be recycled afterwards).
    w.inbox.store(nullptr, std::memory_order_release);
  }
}

void Runtime::run_region(TeamDescriptor& team, ThreadDescriptor& td) {
  team.fn(td.gtid, team.frame);
  // Every parallel region ends in an implicit barrier; the compiler plants
  // `__ompc_ibarrier` in the outlined procedure (paper Fig. 2).
  implicit_barrier(td);
}

void Runtime::fork(Microtask fn, void* frame, int num_threads) {
  ThreadDescriptor* caller = self();
  if (caller == nullptr) {
    // A thread the runtime has never seen (and whose master persona is
    // taken) executes the region serially with a scratch descriptor.
    thread_local ThreadDescriptor scratch;
    scratch.runtime = this;
    scratch.gtid = 0;
    fork_serialized(scratch, fn, frame);
    return;
  }

  // Fork entry is a natural quiescent point: re-pin the caller's emitter
  // cache on the current generation before any event of this region fires.
  registry_.refresh(caller->emitter);

  if (caller->team != nullptr) {
    if (config_.nested) {
      fork_nested(*caller, fn, frame, num_threads);
    } else {
      // OpenUH serializes nested parallel regions and fires no fork event
      // for them (paper IV-C1).
      fork_serialized(*caller, fn, frame);
    }
    return;
  }

  int n = num_threads > 0 ? num_threads : config_.num_threads;
  n = std::clamp(n, 1, config_.max_threads);

  // The master is in the overhead state while it prepares the fork and
  // updates the slave descriptors (paper IV-C1).
  caller->set_state(THR_OVHD_STATE);

  // Conceptually every parallel region forks, even when the runtime only
  // wakes sleeping threads; the event precedes thread creation/wake-up.
  event(*caller, OMP_EVENT_FORK);
  telemetry::count(telemetry::Counter::kForks);

  ensure_pool(n - 1);
  quiesce_workers(static_cast<int>(workers_.size()));

  const auto rid =
      static_cast<unsigned long>(next_region_id_.fetch_add(1, std::memory_order_relaxed));
  telemetry::record_span(telemetry::SpanKind::kParallelRegion,
                         telemetry::Phase::kBegin,
                         static_cast<std::uint32_t>(rid));
  team_.reset_for_region(rid, 0UL, n, fn, frame);
  note_barrier(team_.barrier.kind());
  {
    std::scoped_lock lk(regions_mu_);
    ++region_calls_[reinterpret_cast<void*>(fn)];
  }

  parallel_master_.begin_team(&team_, 0);
  team_.members[0] = &parallel_master_;
  for (int i = 1; i < n; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i - 1)];
    w.desc.begin_team(&team_, i);
    team_.members[static_cast<std::size_t>(i)] = &w.desc;
  }
  for (int i = 1; i < n; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i - 1)];
    w.inbox.store(&team_, std::memory_order_release);
    w.parker.advance();
  }

  // The master becomes team member 0 and does its share of the work.
  ThreadDescriptor* prev_tls = tls_descriptor;
  tls_descriptor = &parallel_master_;
  parallel_master_.set_state(THR_WORK_STATE);
  run_region(team_, parallel_master_);

  // Join: "OMP_EVENT_JOIN is triggered and the state of the master thread
  // is set to THR_OVHD_STATE as soon as it leaves the implicit barrier at
  // the end of the parallel region" (paper IV-C1).
  parallel_master_.set_state(THR_OVHD_STATE);
  event(parallel_master_, OMP_EVENT_JOIN);
  telemetry::count(telemetry::Counter::kJoins);
  telemetry::record_span(telemetry::SpanKind::kParallelRegion,
                         telemetry::Phase::kEnd,
                         static_cast<std::uint32_t>(rid));
  parallel_master_.team = nullptr;
  parallel_master_.publish_region_snapshot();
  tls_descriptor = prev_tls;
  serial_master_.set_state(THR_SERIAL_STATE);
}

void Runtime::note_barrier(BarrierKind kind) noexcept {
  last_barrier_.store(kind, std::memory_order_relaxed);
  telemetry::gauge_set(telemetry::Gauge::kBarrierAlgorithm,
                       static_cast<std::uint64_t>(kind) + 1);
}

void Runtime::fork_serialized(ThreadDescriptor& parent, Microtask fn,
                              void* frame) {
  TeamDescriptor serial_team;
  serial_team.runtime = this;
  const unsigned long rid = parent.team != nullptr ? parent.team->region_id : 0;
  const unsigned long parent_rid =
      parent.team != nullptr ? parent.team->parent_region_id : 0;
  serial_team.reset_for_region(rid, parent_rid, 1, fn, frame);
  serial_team.is_parallel = false;  // region-id queries walk to parent_team
  serial_team.parent_team = parent.team;

  TeamDescriptor* prev_team = parent.team;
  const int prev_tid = parent.tid_in_team;
  const std::uint64_t prev_loops = parent.loop_count;
  const std::uint64_t prev_singles = parent.single_count;

  parent.begin_team(&serial_team, 0);
  fn(parent.gtid, frame);
  implicit_barrier(parent);

  parent.team = prev_team;
  parent.tid_in_team = prev_tid;
  parent.loop_count = prev_loops;
  parent.single_count = prev_singles;
  parent.publish_region_snapshot();
}

void Runtime::fork_nested(ThreadDescriptor& parent, Microtask fn, void* frame,
                          int num_threads) {
  int n = num_threads > 0 ? num_threads : config_.num_threads;
  n = std::clamp(n, 1, config_.max_threads);

  const auto prev_state = parent.get_state();
  parent.set_state(THR_OVHD_STATE);
  // Future-work behaviour the paper sketches: "a fork event will be
  // generated whenever we create a nested parallel region".
  event(parent, OMP_EVENT_FORK);
  telemetry::count(telemetry::Counter::kForks);

  // Ephemeral slaves are managed threads too: a nested team can push the
  // process past its CPUs, and the parking throttle and the barrier rule
  // must see that.
  managed_thread_count().fetch_add(n - 1, std::memory_order_relaxed);
  auto team = std::make_unique<TeamDescriptor>();
  team->runtime = this;
  const auto rid = static_cast<unsigned long>(
      next_region_id_.fetch_add(1, std::memory_order_relaxed));
  const unsigned long parent_rid =
      parent.team != nullptr ? parent.team->region_id : 0;
  team->reset_for_region(rid, parent_rid, n, fn, frame);
  note_barrier(team->barrier.kind());
  team->parent_team = parent.team;
  {
    std::scoped_lock lk(regions_mu_);
    ++region_calls_[reinterpret_cast<void*>(fn)];
  }

  // Ephemeral slaves for the nested team (OpenUH's future compiler would
  // "create a nested parallel region and the corresponding OpenMP threads").
  std::vector<std::unique_ptr<ThreadDescriptor>> slaves;
  slaves.reserve(static_cast<std::size_t>(n - 1));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n - 1));

  TeamDescriptor* prev_team = parent.team;
  const int prev_tid = parent.tid_in_team;
  const std::uint64_t prev_loops = parent.loop_count;
  const std::uint64_t prev_singles = parent.single_count;
  parent.begin_team(team.get(), 0);
  team->members[0] = &parent;

  for (int i = 1; i < n; ++i) {
    auto desc = std::make_unique<ThreadDescriptor>();
    desc->runtime = this;
    desc->gtid = static_cast<int>(
        1 + nested_gtid_counter_.fetch_add(1, std::memory_order_relaxed) %
                static_cast<std::uint32_t>(config_.max_threads));
    desc->set_state(THR_OVHD_STATE);
    desc->begin_team(team.get(), i);
    team->members[static_cast<std::size_t>(i)] = desc.get();
    slaves.push_back(std::move(desc));
  }
  for (int i = 1; i < n; ++i) {
    ThreadDescriptor* desc = slaves[static_cast<std::size_t>(i - 1)].get();
    threads.emplace_back([this, desc] {
      tls_runtime = this;
      tls_descriptor = desc;
      desc->emitter = registry_.acquire_emitter();
      desc->set_state(THR_WORK_STATE);
      run_region(*desc->team, *desc);
      registry_.release_emitter(desc->emitter);
      desc->emitter = nullptr;
      tls_descriptor = nullptr;
    });
  }

  parent.set_state(THR_WORK_STATE);
  run_region(*team, parent);

  for (auto& t : threads) t.join();
  managed_thread_count().fetch_sub(n - 1, std::memory_order_relaxed);

  parent.set_state(THR_OVHD_STATE);
  event(parent, OMP_EVENT_JOIN);
  telemetry::count(telemetry::Counter::kJoins);

  parent.team = prev_team;
  parent.tid_in_team = prev_tid;
  parent.loop_count = prev_loops;
  parent.single_count = prev_singles;
  parent.publish_region_snapshot();
  parent.set_state(prev_state);
}

int Runtime::thread_num() noexcept { return self_or_serial().tid_in_team; }

int Runtime::num_threads() noexcept {
  const ThreadDescriptor& td = self_or_serial();
  return td.team != nullptr ? td.team->size : 1;
}

bool Runtime::in_parallel() noexcept {
  const ThreadDescriptor& td = self_or_serial();
  const TeamDescriptor* team = td.team;
  while (team != nullptr) {
    if (team->is_parallel && team->size >= 1) return true;
    team = team->parent_team;
  }
  return false;
}

void Runtime::set_num_threads(int n) noexcept {
  config_.num_threads = std::clamp(n, 1, config_.max_threads);
}

std::size_t Runtime::distinct_region_count() const {
  std::scoped_lock lk(regions_mu_);
  return region_calls_.size();
}

std::unordered_map<void*, std::uint64_t> Runtime::region_call_counts() const {
  std::scoped_lock lk(regions_mu_);
  return region_calls_;
}

// --- collector glue ---------------------------------------------------------

OMP_COLLECTOR_API_THR_STATE Runtime::provider_state(void* ctx,
                                                    unsigned long* wait_id) {
  auto& rt = *static_cast<Runtime*>(ctx);
  ThreadDescriptor& td = rt.self_or_serial();
  const auto state = td.get_state();
  switch (state) {
    case THR_IBAR_STATE: *wait_id = td.ibar_id; break;
    case THR_EBAR_STATE: *wait_id = td.ebar_id; break;
    case THR_LKWT_STATE: *wait_id = td.lock_wait_id; break;
    case THR_CTWT_STATE: *wait_id = td.critical_wait_id; break;
    case THR_ODWT_STATE: *wait_id = td.ordered_wait_id; break;
    case THR_ATWT_STATE: *wait_id = td.atomic_wait_id; break;
    default: break;
  }
  return state;
}

OMP_COLLECTORAPI_EC Runtime::provider_current_prid(void* ctx,
                                                   unsigned long* id) {
  auto& rt = *static_cast<Runtime*>(ctx);
  const ThreadDescriptor& td = rt.self_or_serial();
  const TeamDescriptor* team = td.team;
  while (team != nullptr && !team->is_parallel) team = team->parent_team;
  if (team == nullptr) {
    // Outside any parallel region: id 0 plus an out-of-sequence error
    // (paper IV-E).
    *id = 0;
    return OMP_ERRCODE_SEQUENCE_ERR;
  }
  *id = team->region_id;
  return OMP_ERRCODE_OK;
}

OMP_COLLECTORAPI_EC Runtime::provider_parent_prid(void* ctx,
                                                  unsigned long* id) {
  auto& rt = *static_cast<Runtime*>(ctx);
  const ThreadDescriptor& td = rt.self_or_serial();
  const TeamDescriptor* team = td.team;
  while (team != nullptr && !team->is_parallel) team = team->parent_team;
  if (team == nullptr) {
    *id = 0;
    return OMP_ERRCODE_SEQUENCE_ERR;
  }
  // Non-nested regions report parent id 0 (paper IV-E).
  *id = team->parent_region_id;
  return OMP_ERRCODE_OK;
}

std::size_t Runtime::provider_queue_slot(void* ctx) {
  auto& rt = *static_cast<Runtime*>(ctx);
  const ThreadDescriptor& td = rt.self_or_serial();
  return td.gtid >= 0 ? static_cast<std::size_t>(td.gtid) : 0;
}

void Runtime::provider_lifecycle(void* ctx, OMP_COLLECTORAPI_REQUEST req,
                                 int before, OMP_COLLECTORAPI_EC ec) {
  if (before) {
    ORCA_FAULT_POINT(kLifecycleBefore);
  } else {
    ORCA_FAULT_POINT(kLifecycleAfter);
  }
  auto& rt = *static_cast<Runtime*>(ctx);
  collector::AsyncDispatcher* async = rt.async_.get();
  if (async == nullptr) return;
  switch (req) {
    case OMP_REQ_START:
      if (!before && ec == OMP_ERRCODE_OK) async->start();
      break;
    case OMP_REQ_STOP:
      // Flush *before* the registry clears the callback table: events
      // admitted before the STOP edge are delivered while their callbacks
      // still exist. Afterwards (on success) the drainer joins, so no
      // callback can fire once OMP_REQ_STOP has returned (paper IV-A
      // lifecycle contract, extended to the decoupled path).
      if (before) {
        async->flush();
      } else if (ec == OMP_ERRCODE_OK) {
        async->stop_and_join();
      }
      break;
    case OMP_REQ_PAUSE:
      // Pause gates admission first (registry transition), then the flush
      // guarantees every pre-PAUSE event has been observed when the
      // request returns.
      if (!before && ec == OMP_ERRCODE_OK) async->flush();
      break;
    case OMP_REQ_RESUME:
      if (!before && ec == OMP_ERRCODE_OK) async->start();
      break;
    default:
      break;
  }
}

OMP_COLLECTORAPI_EC Runtime::provider_event_stats(void* ctx,
                                                  orca_event_stats* out) {
  auto& rt = *static_cast<Runtime*>(ctx);
  const collector::AsyncDispatcher* async = rt.async_.get();
  if (async == nullptr) {
    // Async delivery compiled in but disabled (ORCA_EVENT_DELIVERY=sync):
    // the runtime recognizes the request but has no delivery engine, so the
    // honest answer is "not supported here", not fabricated zero counters.
    return OMP_ERRCODE_UNSUPPORTED;
  }
  const collector::EventRingStats s = async->stats();
  out->submitted = s.submitted;
  out->delivered = s.delivered;
  out->dropped = s.dropped;
  out->overwritten = s.overwritten;
  out->ring_capacity = async->ring_capacity();
  out->active = async->running() ? 1 : 0;
  return OMP_ERRCODE_OK;
}

OMP_COLLECTORAPI_EC Runtime::provider_telemetry_snapshot(
    void* ctx, orca_telemetry_snapshot* out) {
  auto& rt = *static_cast<Runtime*>(ctx);
  // Deterministic per *this runtime's* configuration, not the volatile
  // global armed mask: another runtime arming telemetry concurrently must
  // not flip this answer (the conformance model mirrors the config).
  if (!rt.config_.telemetry_timeline && !rt.config_.telemetry_metrics) {
    return OMP_ERRCODE_UNSUPPORTED;
  }
  const telemetry::MetricsView m = telemetry::metrics();
  const auto counter = [&m](telemetry::Counter c) {
    return static_cast<unsigned long long>(
        m.counters[static_cast<std::size_t>(c)]);
  };
  const auto gauge = [&m](telemetry::Gauge g) {
    return static_cast<unsigned long long>(
        m.gauges[static_cast<std::size_t>(g)]);
  };
  out->armed_mask = m.armed;
  out->threads_tracked = m.threads_tracked;
  out->timeline_records = m.timeline_records;
  out->timeline_dropped = counter(telemetry::Counter::kTimelineOverwrites);
  out->forks = counter(telemetry::Counter::kForks);
  out->joins = counter(telemetry::Counter::kJoins);
  out->barrier_waits = counter(telemetry::Counter::kBarrierWaits);
  out->barrier_wait_ns =
      m.histograms[static_cast<std::size_t>(
                       telemetry::Histogram::kBarrierWaitNs)]
          .sum_ns;
  out->tasks_executed = counter(telemetry::Counter::kTasksExecuted);
  out->task_queue_depth_hwm = gauge(telemetry::Gauge::kTaskQueueDepth);
  out->ring_enqueue_stalls = counter(telemetry::Counter::kRingEnqueueStalls);
  out->ring_occupancy_hwm = gauge(telemetry::Gauge::kRingOccupancy);
  out->callback_failures = counter(telemetry::Counter::kCallbackFailures);
  out->generations_published =
      counter(telemetry::Counter::kGenerationsPublished);
  out->generations_retired = counter(telemetry::Counter::kGenerationsRetired);
  out->retire_latency_ns_max =
      m.histograms[static_cast<std::size_t>(
                       telemetry::Histogram::kRetireLatencyNs)]
          .max_ns;
  // This runtime's last region, not the cross-runtime gauge.
  out->barrier_algorithm =
      static_cast<unsigned long long>(rt.barrier_kind()) + 1;
  return OMP_ERRCODE_OK;
}

void Runtime::fill_resilience_stats(orca_resilience_stats* out) noexcept {
  // Atomic loads only: this fills on the signal-safe fast path too.
  out->quarantined_collectors = registry_.quarantined();
  out->crash_dump_armed = resilience::crash_dump_armed() ? 1 : 0;
  out->signal_queries_served =
      signal_queries_served_.load(std::memory_order_relaxed);
  out->fork_events = resilience::fork_events();
}

OMP_COLLECTORAPI_EC Runtime::provider_resilience_stats(
    void* ctx, orca_resilience_stats* out) {
  static_cast<Runtime*>(ctx)->fill_resilience_stats(out);
  return OMP_ERRCODE_OK;
}

void Runtime::crash_section(void* ctx, int fd) {
  auto& rt = *static_cast<Runtime*>(ctx);
  // Everything below is loads of atomics + raw write(2): safe with the
  // process in an arbitrary (crashed) state.
  resilience::write_kv(fd, "quarantined_collectors",
                       rt.registry_.quarantined());
  resilience::write_kv(
      fd, "signal_queries_served",
      rt.signal_queries_served_.load(std::memory_order_relaxed));
  if (rt.async_ != nullptr) {
    const collector::EventRingStats s = rt.async_->stats();
    resilience::write_kv(fd, "events_submitted", s.submitted);
    resilience::write_kv(fd, "events_delivered", s.delivered);
    resilience::write_kv(fd, "events_dropped", s.dropped);
    resilience::write_kv(fd, "events_overwritten", s.overwritten);
  }
}

void Runtime::shm_crash_section(void* /*ctx*/, int fd) {
  // Writes the postmortem into the shm crash region (its own sink — works
  // with fd == -1 under sections-only arming) and drops a breadcrumb into
  // the dump file when there is one.
  shm::crash_postmortem(fd);
}

void Runtime::prepare_fork() {
  if (async_ != nullptr) async_->quiesce_for_fork();
  registry_.prepare_fork();
}

void Runtime::resume_parent_after_fork() noexcept {
  registry_.resume_after_fork();
  if (async_ != nullptr) async_->resume_parent_after_fork();
}

void Runtime::resume_child_after_fork() {
  registry_.resume_after_fork();
  // Only the forking thread crossed into the child: the pool threads exist
  // solely in the parent. Joining them would hang forever, so their handles
  // are detached and the pool rebuilt lazily by the next parallel region.
  // The Worker structs themselves are deliberately LEAKED, not destroyed:
  // each embeds the parker mutex/condvar the vanished thread may have been
  // blocked on at the snapshot instant, and glibc's pthread_cond_destroy
  // waits for such a waiter to leave — which in the child can never happen.
  // Only the emitter nodes (plain atomics under the registry SpinLock,
  // which the resume above already unlocked) go back to the pool, and the
  // managed-thread count drops by the workers the destructor never sees.
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.detach();
    w->shutdown.store(true, std::memory_order_relaxed);
    w->inbox.store(nullptr, std::memory_order_relaxed);
    registry_.release_emitter(w->desc.emitter);
    (void)w.release();
  }
  managed_thread_count().fetch_sub(static_cast<int>(workers_.size()),
                                   std::memory_order_relaxed);
  workers_.clear();
  // The recycled team's barrier Parker is wait state of the same kind: a
  // worker waking from the last region's barrier may have held its mutex
  // at the snapshot, so it is replaced too, whichever algorithm ran. The
  // team's other locks (task_mu, loop_mu, each loop buffer's init_mu, the
  // reduction lock) are taken only inside a region, before a member
  // arrives at the closing barrier, so a fork from outside a region never
  // copies them held.
  team_.barrier.reset_after_fork();
  const bool rearm = config_.fork_mode == ForkMode::kRearm;
  if (async_ != nullptr) {
    async_->reset_after_fork(rearm && registry_.initialized());
  }
  if (!rearm) {
    // Disable mode: tear down the collection session. State/region-id
    // queries keep working; callbacks are gone until the collector in the
    // child runs a fresh START/REGISTER sequence.
    (void)registry_.stop();
  }
}

bool Runtime::async_sink(void* ctx, OMP_COLLECTORAPI_EVENT event) noexcept {
  auto& rt = *static_cast<Runtime*>(ctx);
  collector::AsyncDispatcher* async = rt.async_.get();
  if (async == nullptr) return false;
  return async->publish(provider_queue_slot(ctx), event);
}

int Runtime::signal_safe_query_path(void* arg) noexcept {
  using collector::MessageCursor;
  // Pass 1: validate-all. Only buffers made up entirely of the four
  // signal-safe kinds are eligible; a malformed record rejects the whole
  // buffer unanswered, exactly as the full dispatcher would.
  MessageCursor scan(arg);
  while (!scan.at_terminator()) {
    if (!scan.valid()) return -1;
    switch (scan.request()) {
      case OMP_REQ_STATE:
      case OMP_REQ_CURRENT_PRID:
      case OMP_REQ_PARENT_PRID:
      case ORCA_REQ_RESILIENCE_STATS:
        break;
      default:
        return 1;  // needs the full dispatcher
    }
    scan.advance();
  }
  // Pass 2: answer-all from atomic snapshots. self() is lock-free (a TLS
  // read, at worst one CAS claiming the master persona), and every reply
  // below is memcpy into the caller's buffer — byte-identical to what
  // dispatch.cpp's answer() would produce for the same records.
  ThreadDescriptor* td = self();
  ThreadDescriptor& d = td != nullptr ? *td : serial_master_;
  MessageCursor cursor(arg);
  while (!cursor.at_terminator()) {
    switch (cursor.request()) {
      case OMP_REQ_STATE: {
        // Wait ids are written only by the descriptor's owner, so reading
        // them from that thread's own signal handler is safe; the state
        // itself is an atomic.
        unsigned long wait_id = 0;
        const OMP_COLLECTOR_API_THR_STATE state = d.get_state();
        switch (state) {
          case THR_IBAR_STATE: wait_id = d.ibar_id; break;
          case THR_EBAR_STATE: wait_id = d.ebar_id; break;
          case THR_LKWT_STATE: wait_id = d.lock_wait_id; break;
          case THR_CTWT_STATE: wait_id = d.critical_wait_id; break;
          case THR_ODWT_STATE: wait_id = d.ordered_wait_id; break;
          case THR_ATWT_STATE: wait_id = d.atomic_wait_id; break;
          default: break;
        }
        const int state_value = static_cast<int>(state);
        if (!cursor.write_reply(&state_value, sizeof(state_value))) break;
        if (collector::state_has_wait_id(state) &&
            !cursor.write_reply(&wait_id, sizeof(wait_id),
                                sizeof(state_value))) {
          break;
        }
        cursor.set_errcode(OMP_ERRCODE_OK);
        signal_queries_served_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case OMP_REQ_CURRENT_PRID:
      case OMP_REQ_PARENT_PRID: {
        unsigned long id = 0;
        OMP_COLLECTORAPI_EC ec = OMP_ERRCODE_SEQUENCE_ERR;
        if (d.snap_in_parallel.load(std::memory_order_acquire) != 0) {
          id = cursor.request() == OMP_REQ_CURRENT_PRID
                   ? d.snap_current_prid.load(std::memory_order_relaxed)
                   : d.snap_parent_prid.load(std::memory_order_relaxed);
          ec = OMP_ERRCODE_OK;
        }
        if (!cursor.write_reply(&id, sizeof(id))) break;
        cursor.set_errcode(ec);
        signal_queries_served_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case ORCA_REQ_RESILIENCE_STATS: {
        orca_resilience_stats stats = {};
        if (cursor.payload_capacity() < sizeof(stats)) {
          cursor.set_errcode(OMP_ERRCODE_MEM_TOO_SMALL);
          break;
        }
        fill_resilience_stats(&stats);
        if (!cursor.write_reply(&stats, sizeof(stats))) break;
        cursor.set_errcode(OMP_ERRCODE_OK);
        signal_queries_served_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      default:
        break;  // unreachable: pass 1 filtered the kinds
    }
    cursor.advance();
  }
  return 0;
}

int Runtime::collector_api(void* arg) {
  ORCA_FAULT_POINT(kSignalDuringQuery);
  if (arg == nullptr) return -1;
  // Query-only buffers take the async-signal-safe path: no locks, no
  // allocation, no queue routing. Everything else falls through to the
  // full dispatcher below.
  if (const int rc = signal_safe_query_path(arg); rc != 1) return rc;
  if (tls_in_collector_api) {
    // A signal handler re-entered the API while the full dispatcher was
    // live on this very thread, with records the lock-free path cannot
    // serve. Refuse them all rather than deadlock on the queue/registry
    // locks the interrupted frame may hold.
    collector::MessageCursor cursor(arg);
    while (!cursor.at_terminator()) {
      if (!cursor.valid()) return -1;
      cursor.set_errcode(OMP_ERRCODE_ERROR);
      cursor.advance();
    }
    return 0;
  }
  tls_in_collector_api = true;
  // Dispatch entry is a quiescent point: registration churn arriving here
  // re-pins the caller's generation so superseded tables get reclaimed even
  // when no parallel work is running.
  if (ThreadDescriptor* td = self(); td != nullptr) {
    registry_.refresh(td->emitter);
  }
  const collector::Providers providers{
      &Runtime::provider_state,
      &Runtime::provider_current_prid,
      &Runtime::provider_parent_prid,
      &Runtime::provider_queue_slot,
      this,
      &Runtime::provider_lifecycle,
      &Runtime::provider_event_stats,
      &Runtime::provider_telemetry_snapshot,
      &Runtime::provider_resilience_stats,
  };
  const int rc = collector::process_messages(registry_, queues_, providers, arg);
  tls_in_collector_api = false;
  return rc;
}

}  // namespace orca::rt
