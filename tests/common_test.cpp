/// Unit tests for the common substrate: locks, parking, stats, RNGs,
/// string utilities, env parsing, cache padding.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/parking.hpp"
#include "common/rng.hpp"
#include "common/spinlock.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "runtime/barrier.hpp"

namespace {

using namespace orca;

// --- locks -------------------------------------------------------------------

template <typename Lock>
void exercise_mutual_exclusion(int threads, int iterations) {
  Lock lock;
  long counter = 0;  // intentionally non-atomic: the lock must protect it
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < iterations; ++i) {
        std::scoped_lock lk(lock);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, static_cast<long>(threads) * iterations);
}

TEST(SpinLockTest, MutualExclusion) {
  exercise_mutual_exclusion<SpinLock>(4, 5000);
}

TEST(TicketLockTest, MutualExclusion) {
  exercise_mutual_exclusion<TicketLock>(4, 5000);
}

TEST(SpinLockTest, TryLockSemantics) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());  // held
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLockTest, TryLockFailsWhenHeld) {
  TicketLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLockTest, IsFifoFair) {
  // Serialized handoff check: with the lock held, queued lockers acquire
  // in ticket order.
  TicketLock lock;
  lock.lock();
  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      // Stagger the queueing so ticket order is deterministic.
      while (started.load() != t) std::this_thread::yield();
      started.store(t + 1);
      lock.lock();
      {
        std::scoped_lock lk(order_mu);
        order.push_back(t);
      }
      lock.unlock();
    });
  }
  while (started.load() != 3) std::this_thread::yield();
  // Give all three a moment to enqueue their tickets.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.unlock();
  for (auto& w : workers) w.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- parking -------------------------------------------------------------------

TEST(ParkerTest, AdvanceBeforeWaitIsNotLost) {
  Parker parker;
  parker.advance();  // producer runs first
  parker.wait(0);    // must return immediately
  SUCCEED();
}

TEST(ParkerTest, WakesWaiterParkedAfterSpinBudget) {
  Parker parker;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    parker.wait(0);
    woke.store(true);
  });
  // Far past the spin budget: the consumer has given up spinning and is
  // asleep on the condvar, so only the advance's notify can wake it.
  std::this_thread::sleep_for(20 * kParkSpinBudget);
  EXPECT_FALSE(woke.load());
  parker.advance();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(ParkerTest, WakeAllReleasesEveryParkedWaiter) {
  Parker parker;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      parker.wait(0);
      woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(20 * kParkSpinBudget);
  EXPECT_EQ(woke.load(), 0);
  parker.advance(Wake::kAll);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(ParkerTest, EpochAdvancesPerAdvance) {
  Parker parker;
  EXPECT_EQ(parker.epoch(), 0u);
  parker.advance();
  parker.advance(Wake::kAll);
  EXPECT_EQ(parker.epoch(), 2u);
}

TEST(ParkerTest, WaitForTimesOutWithoutAdvance) {
  Parker parker;
  EXPECT_FALSE(parker.wait_for(0, std::chrono::milliseconds(1)));
  parker.advance();
  EXPECT_TRUE(parker.wait_for(0, std::chrono::milliseconds(1)));
}

TEST(ParkSpinBudgetTest, ThrottlesOnceThreadsOutnumberCpus) {
  // The long spin runs only while every managed thread has a CPU.
  EXPECT_EQ(park_spin_budget(1, 1), kParkSpinBudget);
  EXPECT_EQ(park_spin_budget(4, 4), kParkSpinBudget);
  EXPECT_EQ(park_spin_budget(5, 4).count(), 0);
  EXPECT_EQ(park_spin_budget(2, 1).count(), 0);
  EXPECT_EQ(park_spin_budget(32, 4).count(), 0);
}

TEST(ParkSpinBudgetTest, BarrierRuleReadsTheSameInputs) {
  // Dissemination only for teams of more than two whose process fits its
  // CPUs; a pair or an oversubscribed process keeps the centralized one.
  using rt::BarrierKind;
  using rt::choose_barrier;
  for (const int team : {1, 2}) {
    EXPECT_EQ(choose_barrier(team, team, 4), BarrierKind::kCentralized);
    EXPECT_EQ(choose_barrier(team, 8, 4), BarrierKind::kCentralized);
  }
  for (const int team : {3, 4}) {
    EXPECT_EQ(choose_barrier(team, team, 4), BarrierKind::kDissemination);
    EXPECT_EQ(choose_barrier(team, 5, 4), BarrierKind::kCentralized);
    EXPECT_EQ(choose_barrier(team, team, 1), BarrierKind::kCentralized);
  }
  // Idle pool workers count too: a team of 3 in a process of 4 managed
  // threads on 4 CPUs still fits.
  EXPECT_EQ(choose_barrier(3, 4, 4), BarrierKind::kDissemination);
}

TEST(ParkSpinBudgetTest, HostInputsAreSane) {
  EXPECT_GE(affinity_cpus(), 1);
  // No runtime exists in this binary: only the calling master counts.
  EXPECT_EQ(managed_thread_count().load(), 1);
}

// --- stats --------------------------------------------------------------------

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(42.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(SampleSetTest, PercentilesAndTrimming) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  EXPECT_NEAR(set.median(), 50.5, 1e-9);
  EXPECT_NEAR(set.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(set.percentile(1.0), 100.0, 1e-9);

  // One extreme outlier gets trimmed by the mean±3σ rule.
  SampleSet with_outlier;
  for (int i = 0; i < 50; ++i) with_outlier.add(10.0 + 0.01 * i);
  with_outlier.add(1e9);
  const RunningStats trimmed = with_outlier.trimmed_stats();
  EXPECT_EQ(trimmed.count(), 50u);
  EXPECT_LT(trimmed.max(), 11.0);
}

// --- RNGs ----------------------------------------------------------------------

TEST(SplitMix64Test, StatefulMatchesStateless) {
  SplitMix64 rng(12345);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next(), SplitMix64::at(12345, i)) << i;
  }
}

TEST(SplitMix64Test, DoublesInUnitInterval) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(NpbRandlcTest, JumpMatchesSequentialStepping) {
  NpbRandlc sequential;
  for (int i = 0; i < 1000; ++i) sequential.next();

  NpbRandlc jumper;
  jumper.jump(1000);
  EXPECT_EQ(jumper.state(), sequential.state());
  EXPECT_DOUBLE_EQ(jumper.next(), sequential.next());
}

TEST(NpbRandlcTest, ValuesInOpenUnitInterval) {
  NpbRandlc rng;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next();
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// --- strings / env ----------------------------------------------------------------

TEST(StrfmtTest, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strfmt("empty"), "empty");
  // Long output beyond any small-buffer assumption.
  const std::string long_str(500, 'a');
  EXPECT_EQ(strfmt("%s", long_str.c_str()).size(), 500u);
}

TEST(TextTableTest, AlignsColumnsAndPadsRaggedRows) {
  TextTable table({"a", "long-header"});
  table.add_row({"x"});
  table.add_row({"wide-cell", "y"});
  const std::string out = table.render();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
  // Every rendered line has the same width.
  std::size_t width = 0;
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    if (width == 0) width = end - start;
    EXPECT_EQ(end - start, width);
    start = end + 1;
  }
}

TEST(EnvTest, ParsesIntsBoolsAndLists) {
  ::setenv("ORCA_TEST_INT", "42", 1);
  ::setenv("ORCA_TEST_BAD", "xyz", 1);
  ::setenv("ORCA_TEST_BOOL", "TRUE", 1);
  ::setenv("ORCA_TEST_OFF", "off", 1);
  EXPECT_EQ(env::get_int("ORCA_TEST_INT", 7), 42);
  EXPECT_EQ(env::get_int("ORCA_TEST_BAD", 7), 7);
  EXPECT_EQ(env::get_int("ORCA_TEST_MISSING", 7), 7);
  EXPECT_TRUE(env::get_bool("ORCA_TEST_BOOL", false));
  EXPECT_FALSE(env::get_bool("ORCA_TEST_OFF", true));
  EXPECT_TRUE(env::get_bool("ORCA_TEST_MISSING", true));

  const auto parts = env::split(" dynamic , 4 ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "dynamic");
  EXPECT_EQ(parts[1], "4");
  EXPECT_EQ(env::split("", ',').size(), 1u);
}

// --- cache padding ------------------------------------------------------------------

TEST(CachePaddedTest, EachElementOwnsItsLine) {
  CachePadded<int> padded[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&padded[i].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&padded[i + 1].value);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

TEST(ClockTest, StopwatchAndMonotonicity) {
  const std::uint64_t t0 = SteadyClock::now();
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(sw.elapsed(), 0.004);
  EXPECT_GT(SteadyClock::now(), t0);
  const std::uint64_t c0 = TscClock::now();
  const std::uint64_t c1 = TscClock::now();
  EXPECT_GE(c1, c0);
}

}  // namespace
