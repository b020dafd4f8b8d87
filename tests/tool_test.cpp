/// Collector-tool tests: dlsym discovery, the prototype tool's
/// attach/measure/finalize cycle, the communication-only arm, pause/
/// resume, trace spill, the offline sample analysis (fork/join and
/// interval pairing), and the tracing collector's event-ordering
/// invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "collector/names.hpp"
#include "perf/trace.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"
#include "tool/collector_tool.hpp"
#include "tool/tracer.hpp"
#include "translate/omp.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using CollectorApiClient = orca::collector::Client;
using orca::tool::PrototypeCollector;
using orca::tool::Report;
using orca::tool::ToolOptions;
using orca::tool::TracingCollector;

TEST(Client, DiscoversSymbolThroughDynamicLinker) {
  const auto client = CollectorApiClient::discover();
  ASSERT_TRUE(client.has_value());
}

TEST(Client, LifecycleRoundTrip) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  auto client = CollectorApiClient::discover();
  ASSERT_TRUE(client.has_value());

  EXPECT_EQ(client->start(), OMP_ERRCODE_OK);
  EXPECT_EQ(client->start(), OMP_ERRCODE_SEQUENCE_ERR);
  EXPECT_EQ(client->pause(), OMP_ERRCODE_OK);
  EXPECT_EQ(client->resume(), OMP_ERRCODE_OK);
  EXPECT_EQ(client->stop(), OMP_ERRCODE_OK);
  EXPECT_EQ(client->stop(), OMP_ERRCODE_SEQUENCE_ERR);
  Runtime::make_current(nullptr);
}

TEST(PrototypeTool, FullMeasurementCycle) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.use_region_fn_extension = true;
  ASSERT_TRUE(tool.attach(opts));
  EXPECT_FALSE(tool.attach(opts));  // double attach refused
  EXPECT_TRUE(tool.attached());

  constexpr int kRegions = 20;
  for (int i = 0; i < kRegions; ++i) {
    orca::omp::parallel([](int) {
      volatile int spin = 0;
      for (int k = 0; k < 100; ++k) spin = spin + 1;
    }, 2);
  }
  rt.quiesce();
  tool.detach();
  EXPECT_FALSE(tool.attached());

  const Report report = tool.finalize();
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_FORK),
            static_cast<std::uint64_t>(kRegions));
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_JOIN),
            static_cast<std::uint64_t>(kRegions));
  // Implicit barrier begin/end: 2 threads per region.
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_THR_BEGIN_IBAR),
            static_cast<std::uint64_t>(2 * kRegions));
  EXPECT_EQ(report.dropped_samples, 0u);

  // Fork/join pairing: every region produced one interval with a valid id.
  std::uint64_t invocations = 0;
  for (const auto& region : report.regions) {
    invocations += region.invocations;
    EXPECT_GE(region.max_seconds, region.min_seconds);
    EXPECT_GT(region.region_id, 0u);
  }
  EXPECT_EQ(invocations, static_cast<std::uint64_t>(kRegions));

  // One call site: the user-model profile collapses to one entry with all
  // join samples.
  ASSERT_FALSE(report.callstack_profile.empty());
  EXPECT_EQ(report.callstack_profile[0].samples,
            static_cast<std::uint64_t>(kRegions));
  EXPECT_NE(report.callstack_profile[0].rendered.find("tool_test.cpp"),
            std::string::npos);

  // Interval metrics: per-thread implicit-barrier time was accumulated
  // (2 threads x kRegions implicit barriers, each a begin/end pair).
  std::uint64_t ibar_intervals = 0;
  for (const auto& iv : report.intervals) {
    if (iv.begin_event == OMP_EVENT_THR_BEGIN_IBAR) {
      ibar_intervals += iv.intervals;
      EXPECT_GE(iv.total_seconds, 0.0);
    }
  }
  EXPECT_EQ(ibar_intervals, static_cast<std::uint64_t>(2 * kRegions));

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("OMP_EVENT_FORK"), std::string::npos);
  Runtime::make_current(nullptr);
}

TEST(PrototypeTool, CommunicationOnlyArmStoresNothing) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.measure = false;  // the E6 "comm-only" arm
  ASSERT_TRUE(tool.attach(opts));
  for (int i = 0; i < 10; ++i) orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  tool.detach();

  EXPECT_GT(tool.callback_invocations(), 0u);
  const Report report = tool.finalize();
  EXPECT_EQ(report.total_events, 0u);  // nothing stored
  Runtime::make_current(nullptr);
}

TEST(PrototypeTool, PauseSuppressesSamples) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ASSERT_TRUE(tool.attach(ToolOptions{}));
  orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  const std::uint64_t before = tool.callback_invocations();
  ASSERT_TRUE(tool.pause());
  orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  EXPECT_EQ(tool.callback_invocations(), before);
  ASSERT_TRUE(tool.resume());
  orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  EXPECT_GT(tool.callback_invocations(), before);
  tool.detach();
  Runtime::make_current(nullptr);
}

TEST(PrototypeTool, TraceSpillRoundTrip) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ASSERT_TRUE(tool.attach(ToolOptions{}));
  for (int i = 0; i < 5; ++i) orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  tool.detach();

  const orca::perf::TraceData data = tool.trace_data();
  EXPECT_GT(data.samples.size(), 0u);
  EXPECT_EQ(data.callstacks.size(), 5u);  // one per join

  const std::string path =
      std::string(::testing::TempDir()) + "tool_spill.orcatrc";
  ASSERT_TRUE(orca::perf::write_trace(path, data));
  orca::perf::TraceData loaded;
  ASSERT_TRUE(orca::perf::read_trace(path, &loaded));
  EXPECT_EQ(loaded.samples.size(), data.samples.size());
  EXPECT_EQ(loaded.callstacks.size(), data.callstacks.size());
  std::remove(path.c_str());
  Runtime::make_current(nullptr);
}

// --- analyze_samples on synthetic, tick-ordered samples ---------------------

using orca::perf::EventSample;

EventSample sample(std::uint64_t ticks, int event, int tid,
                   std::uint64_t region_id = 0, std::uint16_t lane = 0) {
  EventSample s;
  s.ticks = ticks;
  s.region_id = region_id;
  s.event = static_cast<std::int16_t>(event);
  s.lane = lane;
  s.tid = tid;
  return s;
}

const orca::perf::HwTimeCounter kNanoseconds(
    orca::perf::CounterSource::kSteady);

TEST(AnalyzeSamples, SequentialMastersPairEveryJoin) {
  const std::vector<EventSample> samples = {
      sample(100, OMP_EVENT_FORK, 0), sample(300, OMP_EVENT_JOIN, 0, 1),
      sample(400, OMP_EVENT_FORK, 0), sample(900, OMP_EVENT_JOIN, 0, 2),
  };
  const Report report = orca::tool::analyze_samples(samples, kNanoseconds);
  EXPECT_EQ(report.total_events, 4u);
  EXPECT_EQ(report.unpaired_joins, 0u);
  ASSERT_EQ(report.regions.size(), 2u);
  EXPECT_EQ(report.regions[0].region_id, 1u);
  EXPECT_DOUBLE_EQ(report.regions[0].total_seconds, 200e-9);
  EXPECT_DOUBLE_EQ(report.regions[1].total_seconds, 500e-9);
  EXPECT_EQ(report.render().find("unpaired joins"), std::string::npos);
}

TEST(AnalyzeSamples, InterleavedMastersOnTwoLanesPairTheirOwnForks) {
  // Two MiniMPI rank masters, both gtid 0, whose regions overlap. Each has
  // a lane of its own, so each join pairs with its own rank's fork.
  const std::vector<EventSample> samples = {
      sample(100, OMP_EVENT_FORK, 0, 0, /*lane=*/0),  // rank A
      sample(150, OMP_EVENT_FORK, 0, 0, /*lane=*/1),  // rank B
      sample(400, OMP_EVENT_JOIN, 0, 1, /*lane=*/0),  // rank A
      sample(450, OMP_EVENT_JOIN, 0, 2, /*lane=*/1),  // rank B
  };
  const Report report = orca::tool::analyze_samples(samples, kNanoseconds);
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_JOIN), 2u);
  EXPECT_EQ(report.unpaired_joins, 0u);
  ASSERT_EQ(report.regions.size(), 2u);
  EXPECT_EQ(report.regions[0].region_id, 1u);
  EXPECT_DOUBLE_EQ(report.regions[0].total_seconds, 300e-9);
  EXPECT_EQ(report.regions[1].region_id, 2u);
  EXPECT_DOUBLE_EQ(report.regions[1].total_seconds, 300e-9);
  EXPECT_EQ(report.render().find("unpaired joins"), std::string::npos);
}

TEST(AnalyzeSamples, JoinWithoutAForkOnItsLaneIsUnpaired) {
  // Rank B's lane never saw its fork (attached mid-region): rank A's open
  // fork on another lane must not close it.
  const std::vector<EventSample> samples = {
      sample(100, OMP_EVENT_FORK, 0, 0, /*lane=*/0),
      sample(200, OMP_EVENT_JOIN, 0, 2, /*lane=*/1),
      sample(400, OMP_EVENT_JOIN, 0, 1, /*lane=*/0),
  };
  const Report report = orca::tool::analyze_samples(samples, kNanoseconds);
  EXPECT_EQ(report.unpaired_joins, 1u);
  ASSERT_EQ(report.regions.size(), 1u);
  EXPECT_EQ(report.regions[0].region_id, 1u);
  EXPECT_DOUBLE_EQ(report.regions[0].total_seconds, 300e-9);
  EXPECT_NE(report.render().find("unpaired joins: 1 "), std::string::npos);
}

TEST(AnalyzeSamples, IntervalsPairEachEndWithItsBeginPerThread) {
  const std::vector<EventSample> samples = {
      sample(10, OMP_EVENT_THR_BEGIN_LKWT, 1),
      sample(20, OMP_EVENT_THR_BEGIN_IBAR, 0),
      sample(25, OMP_EVENT_THR_BEGIN_IBAR, 1),
      sample(30, OMP_EVENT_THR_END_IBAR, 1),   // closes tid 1's, not tid 0's
      sample(35, OMP_EVENT_THR_END_LKWT, 1),
      sample(50, OMP_EVENT_THR_END_IBAR, 0),
      sample(60, OMP_EVENT_THR_END_EBAR, 0),   // never opened: ignored
      sample(70, OMP_EVENT_THR_BEGIN_IBAR, 0),
      sample(75, OMP_EVENT_THR_END_IBAR, 0),
  };
  const Report report = orca::tool::analyze_samples(samples, kNanoseconds);
  // Ordered by (begin event, tid).
  ASSERT_EQ(report.intervals.size(), 3u);
  EXPECT_EQ(report.intervals[0].begin_event, OMP_EVENT_THR_BEGIN_IBAR);
  EXPECT_EQ(report.intervals[0].tid, 0);
  EXPECT_EQ(report.intervals[0].intervals, 2u);
  EXPECT_DOUBLE_EQ(report.intervals[0].total_seconds, 35e-9);
  EXPECT_EQ(report.intervals[1].begin_event, OMP_EVENT_THR_BEGIN_IBAR);
  EXPECT_EQ(report.intervals[1].tid, 1);
  EXPECT_EQ(report.intervals[1].intervals, 1u);
  EXPECT_DOUBLE_EQ(report.intervals[1].total_seconds, 5e-9);
  EXPECT_EQ(report.intervals[2].begin_event, OMP_EVENT_THR_BEGIN_LKWT);
  EXPECT_EQ(report.intervals[2].tid, 1);
  EXPECT_DOUBLE_EQ(report.intervals[2].total_seconds, 25e-9);
}

// --- lanes: one per OS thread per session ----------------------------------

/// Runs `fn` on `n` threads at once, each inside a one-thread runtime of
/// its own, so every thread is gtid 0 (like MiniMPI rank masters).
template <typename Fn>
void on_rank_masters(int n, Fn fn) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([fn, i] {
      RuntimeConfig cfg;
      cfg.num_threads = 1;
      Runtime rt(cfg);
      Runtime::make_current(&rt);
      fn(i);
      Runtime::make_current(nullptr);
    });
  }
  for (auto& t : threads) t.join();
}

ToolOptions samples_only(std::size_t thread_slots) {
  ToolOptions opts;
  opts.record_callstacks = false;
  opts.query_region_ids = false;
  opts.thread_slots = thread_slots;
  return opts;
}

TEST(PrototypeLanes, ThreadsSharingGtidZeroGetLanesOfTheirOwn) {
  auto& tool = PrototypeCollector::instance();
  tool.configure(samples_only(65));
  tool.reset();
  constexpr int kEvents = 2000;
  // Thread i emits only event kinds[i], so a lane's kinds show its writer.
  constexpr OMP_COLLECTORAPI_EVENT kinds[2] = {OMP_EVENT_THR_BEGIN_IBAR,
                                               OMP_EVENT_THR_END_IBAR};
  on_rank_masters(2, [&](int i) {
    EXPECT_EQ(__ompc_get_global_thread_num(), 0);
    for (int e = 0; e < kEvents; ++e) {
      PrototypeCollector::raw_callback()(kinds[i]);
    }
  });

  EXPECT_EQ(tool.lanes_claimed(), 2u);
  EXPECT_EQ(tool.callback_invocations(), 2u * kEvents);
  std::map<int, std::map<int, int>> by_lane;  // lane -> event -> count
  for (const EventSample& s : tool.trace_data().samples) {
    EXPECT_EQ(s.tid, 0);
    ++by_lane[s.lane][s.event];
  }
  ASSERT_EQ(by_lane.size(), 2u);
  for (const auto& [lane, events] : by_lane) {
    ASSERT_EQ(events.size(), 1u) << "lane " << lane << " has two writers";
    EXPECT_EQ(events.begin()->second, kEvents);
  }
  EXPECT_NE(by_lane[0].begin()->first, by_lane[1].begin()->first);
  const Report report = tool.finalize();
  EXPECT_EQ(report.threads_sharing_lane, 0u);
  EXPECT_EQ(report.render().find("sharing the last"), std::string::npos);
  tool.configure(ToolOptions{});
  tool.reset();
}

TEST(PrototypeLanes, ThreadsPastThreadSlotsShareTheLastLaneAndAreCounted) {
  auto& tool = PrototypeCollector::instance();
  tool.configure(samples_only(2));
  tool.reset();
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  on_rank_masters(kThreads, [](int) {
    for (int e = 0; e < kEvents; ++e) {
      PrototypeCollector::raw_callback()(OMP_EVENT_THR_BEGIN_IBAR);
    }
  });

  EXPECT_EQ(tool.lanes_claimed(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(tool.callback_invocations(),
            static_cast<std::uint64_t>(kThreads * kEvents));
  const Report report = tool.finalize();
  EXPECT_EQ(report.total_events,
            static_cast<std::uint64_t>(kThreads * kEvents));
  EXPECT_EQ(report.dropped_samples, 0u);
  EXPECT_EQ(report.threads_sharing_lane, 2u);
  EXPECT_NE(report.render().find("threads sharing the last sample lane: 2 "),
            std::string::npos);
  std::map<int, int> per_lane;
  for (const EventSample& s : tool.trace_data().samples) ++per_lane[s.lane];
  ASSERT_EQ(per_lane.size(), 2u);
  EXPECT_EQ(per_lane[0], kEvents);
  EXPECT_EQ(per_lane[1], (kThreads - 1) * kEvents);

  // A new session hands the lanes out again from the first.
  tool.reset();
  EXPECT_EQ(tool.lanes_claimed(), 0u);
  EXPECT_EQ(tool.finalize().threads_sharing_lane, 0u);
  tool.configure(ToolOptions{});
  tool.reset();
}

TEST(Tracer, EventOrderingInvariants) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tracer = TracingCollector::instance();
  tracer.clear();
  ASSERT_TRUE(tracer.attach());
  EXPECT_FALSE(tracer.attach());  // double attach refused

  for (int i = 0; i < 3; ++i) {
    orca::omp::parallel([](int) {
      orca::omp::barrier();
      orca::omp::single([] {});
    }, 2);
  }
  rt.quiesce();
  tracer.detach();

  EXPECT_EQ(tracer.count(OMP_EVENT_FORK), 3u);
  EXPECT_EQ(tracer.count(OMP_EVENT_JOIN), 3u);
  EXPECT_EQ(tracer.count(OMP_EVENT_THR_BEGIN_SINGLE), 3u);
  EXPECT_EQ(tracer.count(OMP_EVENT_THR_BEGIN_EBAR), 6u);

  // Per-thread invariant: every begin event nests with its matching end.
  // Idle events are excluded: parked workers are inside an open idle
  // interval when the tracer detaches, by design.
  std::map<std::pair<int, int>, int> open;  // (tid, begin event) -> depth
  for (const auto& entry : tracer.log()) {
    if (entry.event == OMP_EVENT_THR_BEGIN_IDLE ||
        entry.event == OMP_EVENT_THR_END_IDLE) {
      continue;
    }
    if (orca::collector::is_begin_event(entry.event) &&
        entry.event != OMP_EVENT_FORK) {
      ++open[{entry.tid, entry.event}];
    } else if (entry.event != OMP_EVENT_JOIN) {
      // find the begin this end matches
      for (int b = 1; b < OMP_EVENT_LAST; ++b) {
        const auto begin = static_cast<OMP_COLLECTORAPI_EVENT>(b);
        if (orca::collector::matching_end(begin) == entry.event) {
          const int depth = --open[std::make_pair(entry.tid, b)];
          EXPECT_GE(depth, 0)
              << orca::collector::to_string(entry.event) << " tid "
              << entry.tid;
        }
      }
    }
  }
  for (const auto& [key, depth] : open) {
    EXPECT_EQ(depth, 0) << "unbalanced begin/end for tid " << key.first;
  }

  // FORK precedes JOIN pairwise on the master.
  int forks_seen = 0;
  for (const auto& entry : tracer.log()) {
    if (entry.event == OMP_EVENT_FORK) ++forks_seen;
    if (entry.event == OMP_EVENT_JOIN) {
      EXPECT_GT(forks_seen, 0);
      --forks_seen;
    }
  }

  const std::string rendered = tracer.render();
  EXPECT_NE(rendered.find("OMP_EVENT_FORK"), std::string::npos);
  Runtime::make_current(nullptr);
}

}  // namespace
