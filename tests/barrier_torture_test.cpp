/// Team-barrier torture tests, parameterized over both algorithms (pinned
/// through the TeamBarrier test seam, so each runs on any host whatever
/// the rule would pick): randomized team sizes, repeated team-descriptor
/// reuse (the runtime recycles one top-level TeamDescriptor, so `init()`
/// runs per region on warm state — where stale sense bits or episode
/// counters would bite), oversubscription (threads ≫ cores), true nested
/// regions, and process-fork survival. The invariant checked everywhere is
/// the barrier contract itself: after crossing, every team member observes
/// all n phase arrivals.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "translate/omp.hpp"

namespace orca::testing {
/// Reaches the lock of a team barrier's wait state, so a test can hold it
/// across fork() the way a waking pool worker can.
struct WaitStatePeer {
  static std::mutex& lock(rt::TeamBarrier& barrier) {
    return barrier.generation_.mu_;
  }
};
}  // namespace orca::testing

namespace {

using orca::rt::BarrierKind;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::rt::TeamBarrier;

/// How long a forked child may take before the test kills it and fails.
constexpr auto kChildDeadline = std::chrono::seconds(10);

// Same skip as process_fork_test's rearm case: the child rebuilds the
// worker pool, and TSan forbids creating threads after a multi-threaded
// fork (die_after_fork).
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif
constexpr const char* kTsanForkSkip =
    "TSan forbids creating threads after a multi-threaded fork "
    "(die_after_fork); the child's pool rebuild does that";

/// Run one parallel region of `n` threads × `phases` lockstep phases.
/// Each phase: count in, cross the barrier, verify all n arrivals are
/// visible, cross again so no thread races into the next phase's counter.
/// Returns true when no thread ever passed a barrier early. gtest-free on
/// purpose — the fork-survival test calls it from the child.
bool lockstep_ok(int n, int phases) {
  std::vector<std::atomic<int>> arrivals(static_cast<std::size_t>(phases));
  std::atomic<bool> ok{true};
  orca::omp::parallel(
      [&](int) {
        for (int p = 0; p < phases; ++p) {
          arrivals[static_cast<std::size_t>(p)].fetch_add(
              1, std::memory_order_relaxed);
          orca::omp::barrier();
          if (arrivals[static_cast<std::size_t>(p)].load(
                  std::memory_order_relaxed) != n) {
            ok.store(false, std::memory_order_relaxed);
          }
          orca::omp::barrier();
        }
      },
      n);
  return ok.load();
}

/// Wait for a forked child with a deadline: a child that hangs is killed
/// and fails the test instead of stalling the suite until ctest's timeout.
void expect_child_exits_ok(pid_t pid) {
  const auto deadline = std::chrono::steady_clock::now() + kChildDeadline;
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    ADD_FAILURE() << "forked child hung past the deadline; killed";
    return;
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

class BarrierTorture : public ::testing::TestWithParam<BarrierKind> {
 protected:
  void SetUp() override { TeamBarrier::pin_for_testing(GetParam()); }
  void TearDown() override { TeamBarrier::pin_for_testing(BarrierKind::kAuto); }

  static RuntimeConfig config(int num_threads) {
    RuntimeConfig cfg;
    cfg.num_threads = num_threads;
    return cfg;
  }
};

TEST_P(BarrierTorture, RandomizedTeamSizes) {
  Runtime rt(config(4));
  Runtime::make_current(&rt);
  // Seeded: a failure reproduces. Sizes span serial (1) to heavily
  // oversubscribed (32 on however few cores CI has).
  std::mt19937 rng(20260809u);
  std::uniform_int_distribution<int> size_dist(1, 32);
  for (int region = 0; region < 30; ++region) {
    const int n = size_dist(rng);
    EXPECT_TRUE(lockstep_ok(n, 3)) << "region " << region << " size " << n;
  }
  Runtime::make_current(nullptr);
}

TEST_P(BarrierTorture, InitReuseAcrossShrinkAndGrow) {
  Runtime rt(config(4));
  Runtime::make_current(&rt);
  // Deterministic worst-case reuse pattern for generation/flag state:
  // serial regions interleaved with the extremes, on one recycled
  // TeamDescriptor whose barrier keeps its inbox allocation across
  // init() calls.
  for (const int n : {1, 32, 2, 17, 1, 8, 32, 3, 1, 16}) {
    EXPECT_TRUE(lockstep_ok(n, 4)) << "size " << n;
  }
  Runtime::make_current(nullptr);
}

TEST_P(BarrierTorture, OversubscribedLockstep) {
  Runtime rt(config(32));
  Runtime::make_current(&rt);
  // threads ≫ cores: every wait path (spin, yield, sleep escalation, CV)
  // is exercised because the team cannot run simultaneously.
  for (int region = 0; region < 3; ++region) {
    EXPECT_TRUE(lockstep_ok(32, 3)) << "region " << region;
  }
  Runtime::make_current(nullptr);
}

TEST_P(BarrierTorture, NestedRegionsKeepLockstep) {
  RuntimeConfig cfg = config(3);
  cfg.nested = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  std::atomic<bool> ok{true};
  std::atomic<int> inner_teams{0};
  orca::omp::parallel(
      [&](int) {
        // Each outer member runs its own inner team; the inner lockstep
        // state lives on this outer thread's stack, so inner barriers are
        // verified independently per nested team.
        std::vector<std::atomic<int>> arrivals(4);
        constexpr int kInner = 2;
        orca::omp::parallel(
            [&](int) {
              for (int p = 0; p < 4; ++p) {
                arrivals[static_cast<std::size_t>(p)].fetch_add(
                    1, std::memory_order_relaxed);
                orca::omp::barrier();
                if (arrivals[static_cast<std::size_t>(p)].load(
                        std::memory_order_relaxed) != kInner) {
                  ok.store(false, std::memory_order_relaxed);
                }
                orca::omp::barrier();
              }
            },
            kInner);
        inner_teams.fetch_add(1, std::memory_order_relaxed);
      },
      3);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(inner_teams.load(), 3);
  Runtime::make_current(nullptr);
}

TEST_P(BarrierTorture, SurvivesProcessFork) {
  if (kTsan) GTEST_SKIP() << kTsanForkSkip;
  Runtime rt(config(2));
  Runtime::make_current(&rt);
  ASSERT_TRUE(lockstep_ok(2, 2));  // pool warm before the fork

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: only the forking thread crossed; the pool rebuilds lazily on
    // the next region. The barrier (same algorithm, warm generation
    // state) must still uphold lockstep. _exit is the only sanctioned
    // way out of a forked multithreaded process.
    ::_exit(lockstep_ok(2, 2) ? 0 : 1);
  }
  // Parent: collection and synchronization continue unperturbed.
  EXPECT_TRUE(lockstep_ok(2, 2));
  expect_child_exits_ok(pid);
  Runtime::make_current(nullptr);
}

TEST_P(BarrierTorture, ForkWhileBarrierLockHeld) {
  if (kTsan) GTEST_SKIP() << kTsanForkSkip;
  Runtime rt(config(2));
  Runtime::make_current(&rt);
  // The recycled top-level team, seen from inside a region.
  orca::rt::TeamDescriptor* top = nullptr;
  orca::omp::parallel(
      [&](int) {
        orca::rt::ThreadDescriptor* td = rt.self();
        if (td->tid_in_team == 0) top = td->team;
      },
      2);
  ASSERT_NE(top, nullptr);

  // A thread that does not cross the fork holds the barrier's wait lock at
  // the snapshot: the state a pool worker leaves when the fork lands while
  // it reacquires that lock on wake-up, reached here without timing luck.
  std::mutex& lock = orca::testing::WaitStatePeer::lock(top->barrier);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    std::scoped_lock lk(lock);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Whichever algorithm ran before the fork, the child's next regions
    // may use either one.
    TeamBarrier::pin_for_testing(BarrierKind::kCentralized);
    bool ok = lockstep_ok(2, 2);
    TeamBarrier::pin_for_testing(BarrierKind::kDissemination);
    ok = lockstep_ok(3, 2) && ok;
    ::_exit(ok ? 0 : 1);
  }
  release.store(true);
  holder.join();
  EXPECT_TRUE(lockstep_ok(2, 2));
  expect_child_exits_ok(pid);
  Runtime::make_current(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BarrierTorture,
    ::testing::Values(BarrierKind::kCentralized, BarrierKind::kDissemination),
    [](const ::testing::TestParamInfo<BarrierKind>& info) {
      return std::string(orca::rt::barrier_kind_name(info.param));
    });

}  // namespace
