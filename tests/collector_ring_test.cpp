/// In-process ring tests (common/ring.hpp `LocalRing`, the ring behind
/// async event delivery): capacity rounding, wraparound, full/empty edges,
/// every backpressure policy, counter accuracy, a two-thread
/// producer/consumer hammer with sequence verification, two producers
/// sharing one ring under kBlock and under kOverwriteOldest, and inline
/// drains: a callback that flushes, a pass that throws, and fork handlers
/// run from a callback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <cstdint>
#include <thread>
#include <vector>

#include "collector/async.hpp"
#include "collector/registry.hpp"
#include "common/ring.hpp"
#include "testing/fault_injection.hpp"

namespace {

using orca::collector::AsyncDispatcher;
using orca::collector::EventRingStats;
using orca::collector::Registry;
using orca::ring::Backpressure;
using orca::ring::Cursor;
using orca::ring::LocalRing;
using orca::ring::Poll;
using orca::ring::Record;
using orca::testing::FaultInjector;
using orca::testing::FaultPoint;

Record make_record(std::uint64_t seq, std::int32_t tid = 0) {
  Record rec;
  rec.ns = seq * 10;
  rec.event = OMP_EVENT_FORK;
  rec.tid = tid;
  rec.arg = seq;
  return rec;
}

/// The reader's side of one delivery: the next record at `cur`, retired
/// at once. Returns false when the ring is empty.
bool pop(LocalRing& ring, Cursor& cur, Record* out) {
  for (;;) {
    const Poll p = ring.poll(cur, out);
    if (p == Poll::kEmpty) return false;
    ring.retire(cur);
    if (p == Poll::kRecord) return true;
  }
}

TEST(LocalRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(LocalRing(0).capacity(), 4u);
  EXPECT_EQ(LocalRing(1).capacity(), 4u);
  EXPECT_EQ(LocalRing(4).capacity(), 4u);
  EXPECT_EQ(LocalRing(5).capacity(), 8u);
  EXPECT_EQ(LocalRing(1000).capacity(), 1024u);
}

TEST(LocalRing, PollOnEmptyFails) {
  LocalRing ring(4);
  Cursor cur;
  Record out;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(pop(ring, cur, &out));
}

TEST(LocalRing, FifoAcrossManyWraparounds) {
  LocalRing ring(4);
  Cursor cur;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  // Push 3 / pop 3 repeatedly: the cursors lap the 4-cell ring many times
  // and every record must come back in FIFO order.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.push(make_record(next_push++), Backpressure::kBlock));
    }
    Record out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pop(ring, cur, &out));
      EXPECT_EQ(cur.next - 1, next_pop);  // the record's position
      EXPECT_EQ(out.arg, next_pop);
      EXPECT_EQ(out.ns, next_pop * 10);
      ++next_pop;
    }
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.stats().submitted, 300u);
}

TEST(LocalRing, DropNewestCountsExactly) {
  LocalRing ring(4);
  int accepted = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (ring.push(make_record(i), Backpressure::kDropNewest)) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.dropped, 6u);
  EXPECT_EQ(s.overwritten, 0u);
  // The survivors are the *first* four records.
  Cursor cur;
  Record out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pop(ring, cur, &out));
    EXPECT_EQ(out.arg, i);
  }
  EXPECT_FALSE(pop(ring, cur, &out));
}

TEST(LocalRing, OverwriteOldestKeepsFreshestWindow) {
  LocalRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.push(make_record(i), Backpressure::kOverwriteOldest));
  }
  EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(s.overwritten, 6u);
  EXPECT_EQ(s.dropped, 0u);
  // The survivors are the *last* four records.
  Cursor cur;
  Record out;
  for (std::uint64_t i = 6; i < 10; ++i) {
    ASSERT_TRUE(pop(ring, cur, &out));
    EXPECT_EQ(out.arg, i);
  }
  EXPECT_FALSE(pop(ring, cur, &out));
  // The reader booked the lap it found as its own loss: the same six.
  s = ring.stats();
  EXPECT_EQ(cur.lost, 6u);
  EXPECT_EQ(s.overwritten, 6u);
  EXPECT_EQ(s.delivered, 4u);
  EXPECT_TRUE(ring.settled());
}

TEST(LocalRing, BlockWaitsForConsumerWithoutLoss) {
  LocalRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.push(make_record(i), Backpressure::kBlock));
  }
  // The ring is full; a kBlock push must wait until the consumer frees a
  // cell, then succeed with nothing dropped.
  std::thread consumer([&ring] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Cursor cur;
    Record out;
    ASSERT_TRUE(pop(ring, cur, &out));
    EXPECT_EQ(out.arg, 0u);
  });
  EXPECT_TRUE(ring.push(make_record(4), Backpressure::kBlock));
  consumer.join();
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.overwritten, 0u);
}

TEST(LocalRing, CloseUnblocksBlockedProducer) {
  LocalRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.push(make_record(i), Backpressure::kBlock));
  }
  std::thread producer([&ring] {
    // Full ring, no consumer: this push waits until close(), then must
    // fail fast and be counted as dropped.
    EXPECT_FALSE(ring.push(make_record(4), Backpressure::kBlock));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.close();
  producer.join();
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.dropped, 1u);
}

TEST(LocalRing, CountersReconcileAfterDeliveries) {
  LocalRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.push(make_record(i), Backpressure::kBlock));
  }
  EXPECT_FALSE(ring.settled());
  Cursor cur;
  Record out;
  // Polled but not yet retired (the callback is still running): the cell
  // is free, the record is not delivered.
  ASSERT_EQ(ring.poll(cur, &out), Poll::kRecord);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.stats().delivered, 0u);
  EXPECT_FALSE(ring.settled());
  ring.retire(cur);
  while (pop(ring, cur, &out)) {
  }
  EXPECT_TRUE(ring.settled());
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.delivered, 5u);
  EXPECT_EQ(s.submitted, s.delivered + s.overwritten);
}

TEST(LocalRing, TwoThreadHammerPreservesSequence) {
  constexpr std::uint64_t kRecords = 100000;
  LocalRing ring(64);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(ring.push(make_record(i), Backpressure::kBlock));
    }
  });
  // Consume on this thread: every record must arrive exactly once, in
  // submission order, across thousands of wraparounds of the 64-cell ring.
  Cursor cur;
  std::uint64_t expected = 0;
  Record out;
  while (expected < kRecords) {
    if (pop(ring, cur, &out)) {
      ASSERT_EQ(out.arg, expected);
      ASSERT_EQ(cur.next - 1, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ring.size(), 0u);
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, kRecords);
  EXPECT_EQ(s.delivered, kRecords);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.overwritten, 0u);
}

TEST(LocalRing, TwoProducersOnOneRingUnderBlockLoseNothing) {
  // Two threads sharing one ring (threads past the last slot, nested gtid
  // reuse): the CAS claim hands each position out once, and kBlock loses
  // nothing. Each producer's records arrive in its own order.
  constexpr std::uint64_t kPerProducer = 50000;
  LocalRing ring(16);
  auto produce = [&ring](std::int32_t tid) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      ASSERT_TRUE(ring.push(make_record(i, tid), Backpressure::kBlock));
    }
  };
  std::thread a(produce, 0);
  std::thread b(produce, 1);
  Cursor cur;
  std::uint64_t next[2] = {0, 0};
  Record out;
  while (next[0] + next[1] < 2 * kPerProducer) {
    if (!pop(ring, cur, &out)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_TRUE(out.tid == 0 || out.tid == 1);
    ASSERT_EQ(out.arg, next[out.tid]) << "producer " << out.tid;
    ++next[out.tid];
  }
  a.join();
  b.join();
  EXPECT_FALSE(pop(ring, cur, &out));
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 2 * kPerProducer);
  EXPECT_EQ(s.delivered, 2 * kPerProducer);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.overwritten, 0u);
  EXPECT_EQ(cur.lost, 0u);
}

TEST(LocalRing, TwoProducersOnOneRingUnderOverwriteSettle) {
  // Two threads lapping one 4-cell ring: the claim waits for the cell's
  // previous lap, so no store lands a lap late. Every record read is
  // whole and in its producer's order, and the books settle.
  constexpr std::uint64_t kPerProducer = 50000;
  LocalRing ring(4);
  std::atomic<int> done{0};
  auto produce = [&ring, &done](std::int32_t tid) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      ASSERT_TRUE(ring.push(make_record(i, tid),
                            Backpressure::kOverwriteOldest));
    }
    done.fetch_add(1, std::memory_order_release);
  };
  std::thread a(produce, 0);
  std::thread b(produce, 1);
  Cursor cur;
  std::uint64_t last[2] = {0, 0};
  bool seen[2] = {false, false};
  Record out;
  auto check = [&] {
    ASSERT_TRUE(out.tid == 0 || out.tid == 1);
    ASSERT_EQ(out.ns, out.arg * 10) << "mixed payload at " << cur.next - 1;
    if (seen[out.tid]) {
      ASSERT_GT(out.arg, last[out.tid]);
    }
    seen[out.tid] = true;
    last[out.tid] = out.arg;
  };
  while (done.load(std::memory_order_acquire) < 2) {
    if (pop(ring, cur, &out)) {
      check();
    } else {
      std::this_thread::yield();
    }
  }
  a.join();
  b.join();
  while (pop(ring, cur, &out)) check();
  EXPECT_TRUE(ring.settled());
  const EventRingStats s = ring.stats();
  EXPECT_EQ(s.submitted, 2 * kPerProducer);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.submitted, s.delivered + s.overwritten);
  EXPECT_EQ(cur.next, s.submitted);
}

AsyncDispatcher* g_dispatcher = nullptr;
std::thread::id g_flusher;
std::atomic<int> g_inline_deliveries{0};

/// Flushes from inside its own delivery. On the drainer that is a no-op;
/// from an inline drain it must return at once too, not wait on itself.
void flushing_callback(OMP_COLLECTORAPI_EVENT) {
  g_dispatcher->flush();
  if (std::this_thread::get_id() == g_flusher) {
    g_inline_deliveries.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Leaves one record in `async`'s rings with its drainer gone: a producer
/// held past admission lands it after stop_and_join(), so only an inline
/// drain can deliver it.
void strand_one_record(AsyncDispatcher& async) {
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  auto& fi = FaultInjector::instance();
  fi.disarm();
  fi.set_hook(FaultPoint::kAsyncPublish, [&held, &release] {
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  fi.arm();
  async.start();
  std::thread producer(
      [&async] { EXPECT_TRUE(async.publish(0, OMP_EVENT_FORK)); });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  async.stop_and_join();
  release.store(true, std::memory_order_release);
  producer.join();
  fi.disarm();

  EXPECT_FALSE(async.running());
  EXPECT_EQ(async.stats().submitted, 1u);
  EXPECT_EQ(async.stats().delivered, 0u);
}

TEST(AsyncInlineDrain, CallbackFlushingDuringInlineDrainReturnsAtOnce) {
  Registry registry;
  ASSERT_EQ(registry.start(), OMP_ERRCODE_OK);
  ASSERT_EQ(registry.register_callback(OMP_EVENT_FORK, &flushing_callback),
            OMP_ERRCODE_OK);
  AsyncDispatcher async(registry, 2, 8, Backpressure::kBlock);
  g_dispatcher = &async;
  g_flusher = std::this_thread::get_id();
  g_inline_deliveries = 0;

  strand_one_record(async);
  async.flush();  // no drainer: delivers on this thread
  EXPECT_EQ(g_inline_deliveries.load(), 1);
  const EventRingStats s = async.stats();
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.submitted, s.delivered + s.overwritten);
  g_dispatcher = nullptr;
}

std::atomic<int> g_counted{0};
void counting_callback(OMP_COLLECTORAPI_EVENT) {
  g_counted.fetch_add(1, std::memory_order_relaxed);
}

TEST(AsyncInlineDrain, ThrowingDrainLeavesLaterFlushesWorking) {
  // A drain pass that throws out of an inline drain must not leave the
  // thread marked as the drainer, or every later flush() returns early.
  Registry registry;
  ASSERT_EQ(registry.start(), OMP_ERRCODE_OK);
  ASSERT_EQ(registry.register_callback(OMP_EVENT_FORK, &counting_callback),
            OMP_ERRCODE_OK);
  AsyncDispatcher async(registry, 2, 8, Backpressure::kBlock);
  g_counted = 0;
  strand_one_record(async);

  auto& fi = FaultInjector::instance();
  fi.set_hook(FaultPoint::kAsyncDrain, [] { throw std::runtime_error("x"); });
  fi.arm();
  EXPECT_THROW(async.flush(), std::runtime_error);
  fi.disarm();
  EXPECT_EQ(async.stats().delivered, 0u);

  async.flush();
  EXPECT_EQ(g_counted.load(), 1);
  EXPECT_EQ(async.stats().delivered, 1u);
}

std::atomic<bool> g_other_flush_done{false};
std::atomic<bool> g_other_flush_early{false};
std::thread g_other_flush;

/// Runs the fork handlers from inside an inline drain, as a callback that
/// calls fork() would, then starts a second inline drain on another
/// thread: the drain lock this thread holds must still keep it out.
void forking_callback(OMP_COLLECTORAPI_EVENT) {
  g_dispatcher->quiesce_for_fork();
  g_dispatcher->resume_parent_after_fork();
  g_other_flush = std::thread([] {
    g_dispatcher->flush();
    g_other_flush_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  g_other_flush_early = g_other_flush_done.load(std::memory_order_acquire);
}

TEST(AsyncInlineDrain, ForkHandlersInsideADrainReleaseNoLock) {
  Registry registry;
  ASSERT_EQ(registry.start(), OMP_ERRCODE_OK);
  ASSERT_EQ(registry.register_callback(OMP_EVENT_FORK, &forking_callback),
            OMP_ERRCODE_OK);
  AsyncDispatcher async(registry, 2, 8, Backpressure::kBlock);
  g_dispatcher = &async;
  g_other_flush_done = false;
  g_other_flush_early = false;
  strand_one_record(async);

  async.flush();
  EXPECT_FALSE(g_other_flush_early.load())
      << "a second drain ran inside the first one's pass";
  g_other_flush.join();
  EXPECT_EQ(async.stats().delivered, 1u);
  g_dispatcher = nullptr;
}

}  // namespace
