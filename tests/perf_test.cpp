/// Measurement-substrate tests: time counters, sample stores, the binary
/// trace format, and the libpsx-style C API.
#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perf/counter.hpp"
#include "perf/psx.h"
#include "perf/samples.hpp"
#include "perf/trace.hpp"
#include "translate/region_registry.hpp"

namespace {

using namespace orca::perf;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(HwTimeCounter, MonotonicAndCalibrated) {
  for (const auto source : {CounterSource::kTsc, CounterSource::kSteady}) {
    HwTimeCounter counter(source);
    const std::uint64_t a = counter.read();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t b = counter.read();
    EXPECT_GT(b, a);
    const double seconds = counter.to_seconds(b - a);
    EXPECT_GT(seconds, 0.001);
    EXPECT_LT(seconds, 1.0);
  }
  // Calibrated TSC frequency should be in a plausible CPU range.
  EXPECT_GT(HwTimeCounter::tsc_hz(), 1e8);
  EXPECT_LT(HwTimeCounter::tsc_hz(), 1e11);
}

TEST(SampleLane, RecordsUntilCapThenDropsAndClearsStaleCells) {
  SampleLane lane(10);
  for (int i = 0; i < 15; ++i) {
    lane.record({.ticks = static_cast<std::uint64_t>(i), .event = 1});
  }
  EXPECT_EQ(lane.size(), 10u);
  EXPECT_EQ(lane.dropped(), 5u);

  lane.clear();
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(lane.dropped(), 0u);
  // The cells still hold the first run's samples; none may resurface.
  for (int i = 0; i < 3; ++i) {
    lane.record({.ticks = static_cast<std::uint64_t>(100 + i), .event = 2});
  }
  std::vector<std::uint64_t> ticks;
  lane.for_each([&](const EventSample& s) { ticks.push_back(s.ticks); });
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{100, 101, 102}));
  EXPECT_EQ(lane.dropped(), 0u);
}

TEST(SampleLane, ConcurrentWritersOnOneLaneLoseNothing) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  SampleLane lane(kWriters * kPerWriter);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&lane, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        lane.record({.ticks = i, .event = 1, .tid = w});
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(lane.size(), kWriters * kPerWriter);
  EXPECT_EQ(lane.dropped(), 0u);

  // Every writer's samples arrive whole and in its own program order.
  std::vector<std::uint64_t> next(kWriters, 0);
  lane.for_each([&](const EventSample& s) {
    EXPECT_EQ(s.ticks, next[static_cast<std::size_t>(s.tid)]++);
  });
  for (const std::uint64_t n : next) EXPECT_EQ(n, kPerWriter);
}

SampleLane* g_signal_lane = nullptr;
std::atomic<std::uint64_t> g_signal_records{0};

void record_from_signal(int) {
  g_signal_lane->record({.event = 2});
  g_signal_records.fetch_add(1, std::memory_order_relaxed);
}

TEST(SampleLane, SignalReentryOnTheWritingThreadLosesNothing) {
  constexpr std::uint64_t kMinLoop = 20000;
  constexpr std::uint64_t kMaxLoop = 3000000;
  SampleLane lane(1u << 22);
  g_signal_lane = &lane;
  g_signal_records.store(0);
  struct sigaction sa {};
  sa.sa_handler = &record_from_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> done{false};
  std::uint64_t loop_records = 0;
  std::thread writer([&] {
    // Keep writing until the handler has interrupted us a fair number of
    // times, so some signals land mid-record.
    while (loop_records < kMaxLoop &&
           (loop_records < kMinLoop ||
            g_signal_records.load(std::memory_order_relaxed) < 100)) {
      lane.record({.ticks = loop_records++, .event = 1});
    }
    done.store(true);
  });
  while (!done.load()) {
    pthread_kill(writer.native_handle(), SIGUSR1);
    std::this_thread::yield();
  }
  writer.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

  const std::uint64_t attempted = loop_records + g_signal_records.load();
  EXPECT_GT(g_signal_records.load(), 0u);
  EXPECT_EQ(lane.size() + lane.dropped(), attempted);
  EXPECT_EQ(lane.dropped(), 0u);
  g_signal_lane = nullptr;
}

TEST(SampleLane, ReaderSeesOnlyPublishedCellsWhileWritersRun) {
  constexpr int kWriters = 3;
  constexpr std::uint64_t kPerWriter = 50000;
  constexpr std::uint64_t kTag = 0x5A5A5A5A5A5A5A5AULL;
  SampleLane lane(kWriters * kPerWriter);
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) {
        lane.record({.ticks = i, .region_id = i ^ kTag, .event = 1, .tid = w});
      }
      running.fetch_sub(1);
    });
  }
  // A torn or unpublished cell would show a zero tick or a broken tag.
  std::uint64_t torn = 0;
  std::size_t passes = 0;
  do {
    lane.for_each([&](const EventSample& s) {
      if (s.ticks == 0 || s.region_id != (s.ticks ^ kTag)) ++torn;
    });
    ++passes;
  } while (running.load() > 0);
  for (auto& t : writers) t.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(lane.size(), kWriters * kPerWriter);
}

TEST(SampleStore, MergesAcrossThreadsSortedByTicks) {
  SampleStore store(4, 100);
  store.buffer(0).record({.ticks = 30, .event = 1, .tid = 0});
  store.buffer(2).record({.ticks = 10, .event = 1, .tid = 2});
  store.buffer(1).record({.ticks = 20, .event = 2, .tid = 1});
  const auto merged = store.merged_samples();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].ticks, 10u);
  EXPECT_EQ(merged[1].ticks, 20u);
  EXPECT_EQ(merged[2].ticks, 30u);
  EXPECT_EQ(merged[0].lane, 2u);  // stamped with the slot it came from
  EXPECT_EQ(merged[1].lane, 1u);
  EXPECT_EQ(merged[2].lane, 0u);
  EXPECT_EQ(store.total_samples(), 3u);
  EXPECT_EQ(store.total_dropped(), 0u);
}

TEST(SampleStore, TidClampingAndCallstacks) {
  SampleStore store(2, 10);
  store.buffer(99).record({.ticks = 1, .event = 1, .tid = 99});  // last slot
  store.buffer(-3).record({.ticks = 2, .event = 1, .tid = -3});  // slot 0
  EXPECT_EQ(store.total_samples(), 2u);

  CallstackRecord rec;
  rec.ticks = 5;
  rec.region_id = 7;
  rec.frames = {reinterpret_cast<const void*>(0x10),
                reinterpret_cast<const void*>(0x20)};
  store.record_callstack(1, rec);
  store.record_callstack(0, {3, 1, nullptr, {}});
  const auto stacks = store.merged_callstacks();
  ASSERT_EQ(stacks.size(), 2u);
  EXPECT_EQ(stacks[0].ticks, 3u);  // sorted by ticks
  EXPECT_EQ(stacks[1].region_id, 7u);
  EXPECT_EQ(stacks[1].frames.size(), 2u);

  store.clear();
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_TRUE(store.merged_callstacks().empty());
}

/// What merged_samples() must equal: every lane's samples, lane by lane,
/// stamped with their lane, then stable-sorted by tick.
std::vector<EventSample> stable_sorted_concat(
    const std::vector<std::vector<EventSample>>& lanes) {
  std::vector<EventSample> out;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    for (EventSample s : lanes[i]) {
      s.lane = static_cast<std::uint16_t>(i);
      out.push_back(s);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventSample& a, const EventSample& b) {
                     return a.ticks < b.ticks;
                   });
  return out;
}

void expect_same_samples(const std::vector<EventSample>& got,
                         const std::vector<EventSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ticks, want[i].ticks) << "at " << i;
    EXPECT_EQ(got[i].region_id, want[i].region_id) << "at " << i;
    EXPECT_EQ(got[i].event, want[i].event) << "at " << i;
    EXPECT_EQ(got[i].lane, want[i].lane) << "at " << i;
    EXPECT_EQ(got[i].tid, want[i].tid) << "at " << i;
  }
}

TEST(SampleStore, MergeEqualsStableSortOfTheConcatenation) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    constexpr std::size_t kLanes = 7;
    SampleStore store(kLanes, 4096);
    std::vector<std::vector<EventSample>> lanes(kLanes);
    std::uint64_t serial = 0;  // region_id: tells equal-tick samples apart
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (lane == 2 || lane == 5) continue;  // empty lanes
      const std::size_t n = 1 + rng() % 600;
      std::uint64_t ticks = rng() % 8;
      for (std::size_t i = 0; i < n; ++i) {
        // Few distinct ticks, so lanes tie often; lane 3 is out of order.
        ticks = lane == 3 ? rng() % 64 : ticks + rng() % 3;
        const EventSample s{.ticks = ticks,
                            .region_id = serial++,
                            .event = static_cast<std::int16_t>(1 + rng() % 4),
                            .tid = static_cast<std::int32_t>(lane)};
        lanes[lane].push_back(s);
        store.buffer(static_cast<int>(lane)).record(s);
      }
    }
    expect_same_samples(store.merged_samples(), stable_sorted_concat(lanes));
  }
}

TEST(SampleStore, MergeOfOneLaneOrNoneIsThatLane) {
  SampleStore store(3, 64);
  EXPECT_TRUE(store.merged_samples().empty());
  std::vector<std::vector<EventSample>> lanes(3);
  for (const std::uint64_t ticks : {5u, 3u, 3u, 9u, 1u}) {  // unsorted
    const EventSample s{.ticks = ticks,
                        .region_id = lanes[1].size(),
                        .event = 1,
                        .tid = 1};
    lanes[1].push_back(s);
    store.buffer(1).record(s);
  }
  expect_same_samples(store.merged_samples(), stable_sorted_concat(lanes));
}

TEST(Trace, BinaryRoundTrip) {
  TraceData data;
  for (int i = 0; i < 100; ++i) {
    data.samples.push_back({.ticks = static_cast<std::uint64_t>(i * 10),
                            .region_id = static_cast<std::uint64_t>(i % 7),
                            .event = static_cast<std::int16_t>(i % 5),
                            .lane = static_cast<std::uint16_t>(i % 2),
                            .tid = i % 3});
  }
  data.callstacks.push_back(
      {42, 3, reinterpret_cast<const void*>(0xABC),
       {reinterpret_cast<const void*>(0x1), reinterpret_cast<const void*>(0x2)}});

  const std::string path = temp_path("roundtrip.orcatrc");
  ASSERT_TRUE(write_trace(path, data));

  TraceData loaded;
  ASSERT_TRUE(read_trace(path, &loaded));
  ASSERT_EQ(loaded.samples.size(), data.samples.size());
  EXPECT_EQ(loaded.samples[50].ticks, data.samples[50].ticks);
  EXPECT_EQ(loaded.samples[50].event, data.samples[50].event);
  EXPECT_EQ(loaded.samples[51].lane, data.samples[51].lane);
  EXPECT_EQ(loaded.samples[52].tid, data.samples[52].tid);
  ASSERT_EQ(loaded.callstacks.size(), 1u);
  EXPECT_EQ(loaded.callstacks[0].region_fn,
            reinterpret_cast<const void*>(0xABC));
  ASSERT_EQ(loaded.callstacks[0].frames.size(), 2u);
  EXPECT_EQ(loaded.callstacks[0].frames[1],
            reinterpret_cast<const void*>(0x2));
  std::remove(path.c_str());
}

TEST(Trace, SamplesWrittenBeforeLanesReadAsLaneZero) {
  // The sample layout before lanes: a 32-bit event where event and lane
  // now sit.
  struct OldSample {
    std::uint64_t ticks;
    std::uint64_t region_id;
    std::int32_t event;
    std::int32_t tid;
  };
  const std::string path = temp_path("prelane.orcatrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint64_t counts[2] = {2, 0};  // samples, callstacks
  const OldSample old[2] = {{10, 7, 2, 0}, {20, 0, 8, 3}};
  std::fwrite("ORCATRC1", 1, 8, f);
  std::fwrite(counts, sizeof(counts), 1, f);
  std::fwrite(old, sizeof(old), 1, f);
  std::fclose(f);

  TraceData loaded;
  ASSERT_TRUE(read_trace(path, &loaded));
  ASSERT_EQ(loaded.samples.size(), 2u);
  EXPECT_EQ(loaded.samples[0].region_id, 7u);
  EXPECT_EQ(loaded.samples[0].event, 2);
  EXPECT_EQ(loaded.samples[1].event, 8);
  EXPECT_EQ(loaded.samples[1].tid, 3);
  for (const EventSample& s : loaded.samples) EXPECT_EQ(s.lane, 0u);
  std::remove(path.c_str());
}

TEST(Trace, RejectsMissingAndMalformedFiles) {
  TraceData out;
  EXPECT_FALSE(read_trace("/nonexistent/file.orcatrc", &out));
  EXPECT_FALSE(read_trace("/dev/null", &out));

  const std::string path = temp_path("badmagic.orcatrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTATRACE-GARBAGE", f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(path, &out));
  EXPECT_FALSE(read_trace(path, nullptr));
  std::remove(path.c_str());
}

TEST(Trace, CsvExport) {
  const std::string path = temp_path("samples.csv");
  ASSERT_TRUE(write_csv(
      path, {{.ticks = 100, .region_id = 5, .event = 1, .tid = 2},
             {.ticks = 200, .region_id = 6, .event = 2, .tid = 3}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "ticks,event,tid,region_id\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "100,1,2,5\n");
  std::fclose(f);
  std::remove(path.c_str());
}

// --- libpsx-style C API ----------------------------------------------------------

TEST(Psx, CallstackGet) {
  const void* frames[16] = {};
  const int n = psx_callstack_get(frames, 16, 0);
  ASSERT_GT(n, 0);
  for (int i = 0; i < n; ++i) EXPECT_NE(frames[i], nullptr);
  EXPECT_EQ(psx_callstack_get(nullptr, 16, 0), 0);
  EXPECT_EQ(psx_callstack_get(frames, 0, 0), 0);
}

TEST(Psx, IpToSourceThroughRegionRegistry) {
  const int anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &anchor, {"kernel", "kernel.cpp", 17, "parallel"});
  psx_source_info info{};
  ASSERT_EQ(psx_ip_to_source(&anchor, &info), 0);
  EXPECT_EQ(info.exact, 1);
  EXPECT_STREQ(info.file, "kernel.cpp");
  EXPECT_EQ(info.line, 17u);

  EXPECT_EQ(psx_ip_to_source(nullptr, &info), -1);
  EXPECT_EQ(psx_ip_to_source(&anchor, nullptr), -1);
}

TEST(Psx, TimerReadsAndConverts) {
  const unsigned long long a = psx_timer_read();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const unsigned long long b = psx_timer_read();
  EXPECT_GT(b, a);
  EXPECT_GT(psx_timer_seconds(b - a), 0.001);
}

}  // namespace
