/// \file bench_primitives.cpp
/// Primitive-level synchronization costs, isolated from whole-benchmark
/// noise (EPCC/NPB measure directive overhead end to end; this measures the
/// hot loops those numbers decompose into):
///
///  * barrier round-trip — one arrive..release episode through
///    `Runtime::explicit_barrier`, per thread count. Each row is labelled
///    with the algorithm the team barrier's rule picked for that team on
///    this host. The master times batches of `--inner` crossings; since a
///    barrier holds the team in lockstep, its per-batch time is the team
///    round-trip.
///  * fork/join round-trip — one empty `Runtime::fork` from the serial
///    master: wake the pool, run nothing, and meet at the join barrier.
///    This is the worker wake-up hop the spin-then-park wait exists for.
///  * spinlock acquire — one TTAS SpinLock lock/unlock under contention
///    from the rest of the team (non-masters hammer the lock until the
///    master's timed batches complete).
///  * disarmed event emit — one `Runtime::event` with no collector
///    registered: the epoch fast path every uninstrumented program pays
///    (one relaxed EmitterCache mask load + branch).
///
/// Per cell, batch samples are reduced to mean/p50/p99 (bench_util.hpp
/// Summary) and emitted as one JSON row; `scripts/ci.sh` harvests the
/// rows into build/artifacts/BENCH_primitives.json, which
/// `scripts/perf_gate.py` diffs against bench/baselines/.
///
/// Usage: bench_primitives [--reps=30] [--inner=1000] [--smoke]
///   Full mode times 30 batches of 1000 barrier / fork-join crossings:
///   on a 4-vCPU VM 20 batches of 100 moved a 2-thread barrier p50
///   between 295 ns and 3.2 us from run to run, while 30 x 1000 held each
///   cell within about +-10 %.
///   --smoke: CI sanity mode (ctest -L perf-smoke) — 8 batches of 30,
///   fewer thread counts, same code paths, no timing claims.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "common/strutil.hpp"
#include "runtime/barrier.hpp"
#include "runtime/runtime.hpp"

namespace {

using orca::SpinLock;
using orca::SteadyClock;
using orca::bench::Summary;
using orca::rt::BarrierKind;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::rt::ThreadDescriptor;

struct Frame {
  Runtime* rt = nullptr;
  int reps = 0;   ///< timed batches (master-side samples)
  int inner = 0;  ///< operations per batch
  std::vector<double> samples;  ///< ns/op per batch, filled by the master
  SpinLock* lock = nullptr;
  std::atomic<bool> done{false};  ///< master finished its timed batches
};

void barrier_microtask(int, void* raw) {
  Frame& frame = *static_cast<Frame*>(raw);
  ThreadDescriptor* td = frame.rt->self();
  if (td == nullptr) return;
  const bool master = td->tid_in_team == 0;
  for (int b = 0; b < frame.reps; ++b) {
    const std::uint64_t begin = master ? SteadyClock::now() : 0;
    for (int i = 0; i < frame.inner; ++i) {
      frame.rt->explicit_barrier(*td);
    }
    if (master) {
      frame.samples.push_back(
          static_cast<double>(SteadyClock::now() - begin) /
          static_cast<double>(frame.inner));
    }
  }
}

void empty_microtask(int, void*) {}

void spinlock_microtask(int, void* raw) {
  Frame& frame = *static_cast<Frame*>(raw);
  ThreadDescriptor* td = frame.rt->self();
  if (td == nullptr) return;
  if (td->tid_in_team != 0) {
    // Contention generators: hammer the lock until the master is done
    // timing, so every timed acquire races a realistic opponent.
    while (!frame.done.load(std::memory_order_acquire)) {
      frame.lock->lock();
      frame.lock->unlock();
    }
    return;
  }
  for (int b = 0; b < frame.reps; ++b) {
    const std::uint64_t begin = SteadyClock::now();
    for (int i = 0; i < frame.inner; ++i) {
      frame.lock->lock();
      frame.lock->unlock();
    }
    frame.samples.push_back(static_cast<double>(SteadyClock::now() - begin) /
                            static_cast<double>(frame.inner));
  }
  frame.done.store(true, std::memory_order_release);
}

void emit_microtask(int, void* raw) {
  Frame& frame = *static_cast<Frame*>(raw);
  ThreadDescriptor* td = frame.rt->self();
  if (td == nullptr) return;
  const bool master = td->tid_in_team == 0;
  // Every thread fires the same load (the disarmed path is per-thread and
  // contention-free); only the master's batches are timed.
  for (int b = 0; b < frame.reps; ++b) {
    const std::uint64_t begin = master ? SteadyClock::now() : 0;
    for (int i = 0; i < frame.inner; ++i) {
      frame.rt->event(*td, OMP_EVENT_FORK);
    }
    if (master) {
      frame.samples.push_back(
          static_cast<double>(SteadyClock::now() - begin) /
          static_cast<double>(frame.inner));
    }
  }
}

struct Cell {
  Summary dist;
  BarrierKind algo = BarrierKind::kAuto;  ///< what the rule picked
};

Cell run_cell(void (*microtask)(int, void*), int threads, int reps,
              int inner) {
  RuntimeConfig cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  SpinLock lock;
  Frame frame;
  frame.rt = &rt;
  frame.reps = reps;
  frame.inner = inner;
  frame.lock = &lock;
  frame.samples.reserve(static_cast<std::size_t>(reps));

  rt.fork(microtask, &frame, threads);
  rt.quiesce();
  Runtime::make_current(nullptr);

  Cell cell;
  cell.dist = orca::bench::summarize(frame.samples);
  cell.algo = rt.barrier_kind();
  return cell;
}

/// Times batches of empty regions forked from the serial master; the
/// first fork (pool creation) is outside the timed batches.
Cell run_fork_join(int threads, int reps, int inner) {
  RuntimeConfig cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  rt.fork(&empty_microtask, nullptr, threads);

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int b = 0; b < reps; ++b) {
    const std::uint64_t begin = SteadyClock::now();
    for (int i = 0; i < inner; ++i) {
      rt.fork(&empty_microtask, nullptr, threads);
    }
    samples.push_back(static_cast<double>(SteadyClock::now() - begin) /
                      static_cast<double>(inner));
  }
  rt.quiesce();
  Runtime::make_current(nullptr);

  Cell cell;
  cell.dist = orca::bench::summarize(samples);
  cell.algo = rt.barrier_kind();
  return cell;
}

void print_row(orca::TextTable& table, const char* primitive,
               const char* algo, int threads, int reps, int inner,
               const Summary& dist) {
  table.add_row({primitive, algo, orca::strfmt("%d", threads),
                 orca::strfmt("%.1f", dist.mean),
                 orca::strfmt("%.1f", dist.p50),
                 orca::strfmt("%.1f", dist.p99)});
  orca::bench::JsonRow("primitives")
      .str("primitive", primitive)
      .str("algo", algo)
      .num("threads", threads)
      .num("reps", reps)
      .num("inner", inner)
      .fixed("ns_per_op", dist.mean)
      .latency_tail(dist, "ns")
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = orca::bench::has_flag(argc, argv, "smoke");
  // Batch counts sized for the worst cell (an oversubscribed team on a
  // small host): every barrier crossing can cost scheduling quanta.
  const int reps = orca::bench::flag_int(argc, argv, "reps", smoke ? 8 : 30);
  const int barrier_inner =
      orca::bench::flag_int(argc, argv, "inner", smoke ? 30 : 1000);
  const int op_inner = smoke ? 2000 : 20000;

  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3, 4};

  std::printf("Synchronization primitives: ns/op, %d batches "
              "(barrier inner=%d, lock/emit inner=%d)%s\n\n",
              reps, barrier_inner, op_inner, smoke ? " [smoke mode]" : "");
  orca::TextTable table(
      {"primitive", "algo", "threads", "mean ns", "p50 ns", "p99 ns"});

  for (const int threads : thread_counts) {
    const Cell cell =
        run_cell(&barrier_microtask, threads, reps, barrier_inner);
    print_row(table, "barrier", orca::rt::barrier_kind_name(cell.algo),
              threads, reps, barrier_inner, cell.dist);
  }
  for (const int threads : thread_counts) {
    const Cell cell = run_fork_join(threads, reps, barrier_inner);
    print_row(table, "fork_join", orca::rt::barrier_kind_name(cell.algo),
              threads, reps, barrier_inner, cell.dist);
  }
  for (const int threads : thread_counts) {
    const Cell cell = run_cell(&spinlock_microtask, threads, reps, op_inner);
    print_row(table, "spinlock_acquire", "none", threads, reps, op_inner,
              cell.dist);
  }
  for (const int threads : thread_counts) {
    const Cell cell = run_cell(&emit_microtask, threads, reps, op_inner);
    print_row(table, "disarmed_emit", "none", threads, reps, op_inner,
              cell.dist);
  }

  std::printf("\n%s\n", table.render().c_str());
  return 0;
}
