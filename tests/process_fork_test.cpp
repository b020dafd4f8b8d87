/// Process-fork() survival tests (docs/RESILIENCE.md): the pthread_atfork
/// protocol quiesces delivery and the registry around the fork, the child
/// observes a consistent runtime in both ORCA_FORK_MODE settings —
/// `disable` keeps state/region queries answering but stops event
/// delivery, `rearm` restarts the drainer — and the parent's collection
/// continues unperturbed.
///
/// Child-side checks communicate through exit codes (no gtest in the
/// child, no Runtime destruction — the child leaves via _exit, the only
/// sanctioned way out of a forked multithreaded process).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "collector/message.hpp"
#include "common/parking.hpp"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"

// TSan forbids creating threads after a multi-threaded fork
// (die_after_fork); child-side checks that spawn threads skip under it.
#if defined(__SANITIZE_THREAD__)
#define ORCA_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ORCA_TEST_TSAN 1
#endif
#endif

namespace {

using orca::collector::Client;
using orca::collector::MessageBuilder;
using orca::rt::EventDelivery;
using orca::rt::ForkMode;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;

std::atomic<std::uint64_t> g_count{0};
void counting_callback(OMP_COLLECTORAPI_EVENT) {
  g_count.fetch_add(1, std::memory_order_relaxed);
}

RuntimeConfig fork_cfg(ForkMode mode) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.event_delivery = EventDelivery::kAsync;
  cfg.fork_mode = mode;
  return cfg;
}

/// Child-side probe, shared by both modes. Returns the exit code: 0 = all
/// checks passed, otherwise the number of the first failing check.
int child_probe(Runtime& rt, bool expect_running) {
  // 1: the atfork child hook ran (fork episode counted).
  const Client client([&rt](void* b) { return rt.collector_api(b); });
  const auto stats = client.resilience_stats();
  if (!stats || stats->fork_events < 1) return 1;

  // 2: state queries still answer on the fast path.
  const auto state = client.state();
  if (!state || state->state != THR_SERIAL_STATE) return 2;

  // 3: drainer state matches the mode.
  if (rt.async_dispatcher() == nullptr) return 3;
  if (rt.async_dispatcher()->running() != expect_running) return 4;

  // 5: firing an event in the child must be benign in both modes.
  const std::uint64_t before = g_count.load(std::memory_order_relaxed);
  rt.registry().fire(OMP_EVENT_FORK);
  if (expect_running) {
    // rearm: the child's own drainer delivers it (PAUSE is the flush
    // barrier, exactly like the parent's lifecycle).
    if (client.pause() != OMP_ERRCODE_OK) return 5;
    if (g_count.load(std::memory_order_relaxed) != before + 1) return 6;
  } else {
    // disable: collection stopped, the callback must NOT run.
    if (g_count.load(std::memory_order_relaxed) != before) return 7;
  }
  return 0;
}

void run_fork_mode_test(ForkMode mode, bool expect_running) {
  g_count = 0;
  Runtime rt(fork_cfg(mode));
  Runtime::make_current(&rt);
  const Client client([&rt](void* b) { return rt.collector_api(b); });

  ASSERT_EQ(client.start(), OMP_ERRCODE_OK);
  ASSERT_EQ(client.register_event(OMP_EVENT_FORK, &counting_callback),
            OMP_ERRCODE_OK);
  rt.registry().fire(OMP_EVENT_FORK);
  ASSERT_EQ(client.pause(), OMP_ERRCODE_OK);  // flush barrier
  ASSERT_EQ(g_count.load(), 1u);
  ASSERT_EQ(client.resume(), OMP_ERRCODE_OK);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    _exit(child_probe(rt, expect_running));
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child check #" << WEXITSTATUS(status)
                                    << " failed (see child_probe)";

  // Parent-side collection is unperturbed: events keep flowing to the
  // callback, and the parent counted the fork episode too.
  const std::uint64_t before = g_count.load();
  rt.registry().fire(OMP_EVENT_FORK);
  ASSERT_EQ(client.pause(), OMP_ERRCODE_OK);
  EXPECT_EQ(g_count.load(), before + 1);
  const auto stats = client.resilience_stats();
  ASSERT_TRUE(stats);
  EXPECT_GE(stats->fork_events, 1u);

  ASSERT_EQ(client.resume(), OMP_ERRCODE_OK);
  ASSERT_EQ(client.stop(), OMP_ERRCODE_OK);
  Runtime::make_current(nullptr);
}

TEST(ProcessFork, DisableModeChildKeepsQueriesStopsDelivery) {
  run_fork_mode_test(ForkMode::kDisable, /*expect_running=*/false);
}

TEST(ProcessFork, RearmModeChildRestartsDrainer) {
#if defined(ORCA_TEST_TSAN)
  GTEST_SKIP() << "TSan forbids creating threads after a multi-threaded "
                  "fork (die_after_fork); rearm mode does exactly that";
#endif
  run_fork_mode_test(ForkMode::kRearm, /*expect_running=*/true);
}

TEST(ProcessFork, ForkWithNoCollectionIsTransparent) {
  // A runtime that never STARTed: the atfork protocol must still be safe,
  // and the child must still be able to query.
  Runtime rt(fork_cfg(ForkMode::kRearm));
  Runtime::make_current(&rt);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const Client client([&rt](void* b) { return rt.collector_api(b); });
    const auto state = client.state();
    _exit(state && state->state == THR_SERIAL_STATE ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  Runtime::make_current(nullptr);
}

void noop_microtask(int, void*) {}

TEST(ProcessFork, ChildManagedThreadCountMatchesRebuiltPool) {
  // The parking throttle compares the managed-thread count with the CPU
  // count. The child leaks its parent's pool without running the Worker
  // destructors, so the fork hook must take those workers off the count.
  RuntimeConfig cfg;
  cfg.num_threads = 3;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  rt.fork(&noop_microtask, nullptr, 3);
  rt.quiesce();
  ASSERT_EQ(rt.pool_size(), 2);
  const int base = orca::managed_thread_count().load() - rt.pool_size();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // 1: the parent's pool is gone and no longer counted.
    if (rt.pool_size() != 0 || orca::managed_thread_count().load() != base) {
      _exit(1);
    }
#if !defined(ORCA_TEST_TSAN)
    // 2: the next region rebuilds the pool, and the count follows it.
    rt.fork(&noop_microtask, nullptr, 3);
    rt.quiesce();
    if (rt.pool_size() != 2 ||
        orca::managed_thread_count().load() != base + rt.pool_size()) {
      _exit(2);
    }
#endif
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child check #" << WEXITSTATUS(status)
                                    << " failed";
  EXPECT_EQ(orca::managed_thread_count().load(), base + rt.pool_size());
  Runtime::make_current(nullptr);
}

}  // namespace
