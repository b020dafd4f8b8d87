/// Selective-collection tests (paper Sec. VI: tools should "reduce the
/// number of times data is collected by distinguishing between either the
/// same parallel region or the calling context for a parallel region").
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "tool/collector_tool.hpp"
#include "translate/omp.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::PrototypeCollector;
using orca::tool::ToolOptions;

RuntimeConfig two_threads() {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  return cfg;
}

TEST(Filtering, SamplingIntervalKeepsEveryNth) {
  Runtime rt(two_threads());
  Runtime::make_current(&rt);
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.callstack_sampling_interval = 4;
  ASSERT_TRUE(tool.attach(opts));

  constexpr int kRegions = 40;
  for (int i = 0; i < kRegions; ++i) orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  tool.detach();

  const auto data = tool.trace_data();
  EXPECT_EQ(data.callstacks.size(), static_cast<std::size_t>(kRegions / 4));
  EXPECT_EQ(tool.callstacks_filtered(),
            static_cast<std::uint64_t>(kRegions - kRegions / 4));
  // Event samples are unaffected by callstack filtering.
  const auto report = tool.finalize();
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_JOIN),
            static_cast<std::uint64_t>(kRegions));
  Runtime::make_current(nullptr);
}

TEST(Filtering, DedupByContextStoresEachCallSiteOnce) {
  Runtime rt(two_threads());
  Runtime::make_current(&rt);
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.dedup_by_context = true;
  ASSERT_TRUE(tool.attach(opts));

  // Two distinct call sites, invoked many times each.
  for (int i = 0; i < 25; ++i) orca::omp::parallel([](int) {}, 2);
  for (int i = 0; i < 25; ++i) orca::omp::parallel([](int) { (void)0; }, 2);
  rt.quiesce();
  tool.detach();

  const auto data = tool.trace_data();
  // One stored context per call site (stacks through the same call chain
  // hash identically).
  EXPECT_EQ(data.callstacks.size(), 2u);
  EXPECT_EQ(tool.callstacks_filtered(), 48u);
  Runtime::make_current(nullptr);
}

TEST(Filtering, MinRegionDurationSkipsSmallRegions) {
  Runtime rt(two_threads());
  Runtime::make_current(&rt);
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  // Wide margin between "tiny" (empty body) and "long" (50 ms sleep)
  // regions: sanitized builds on a loaded single-core machine can stretch
  // an empty fork/join by whole scheduler quanta.
  opts.min_region_seconds = 20e-3;
  ASSERT_TRUE(tool.attach(opts));

  // 10 tiny regions (well under the threshold) and 2 long ones.
  for (int i = 0; i < 10; ++i) orca::omp::parallel([](int) {}, 2);
  for (int i = 0; i < 2; ++i) {
    orca::omp::parallel([](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }, 2);
  }
  rt.quiesce();
  tool.detach();

  const auto data = tool.trace_data();
  EXPECT_EQ(data.callstacks.size(), 2u);
  EXPECT_EQ(tool.callstacks_filtered(), 10u);
  Runtime::make_current(nullptr);
}

TEST(Filtering, MinRegionDurationPairsEachJoinWithItsOwnFork) {
  // A tiny nested region forked at the end of a long outer region: the
  // outer join must be measured from the outer fork, not from the nested
  // fork that fired last.
  RuntimeConfig cfg = two_threads();
  cfg.nested = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.min_region_seconds = 20e-3;
  ASSERT_TRUE(tool.attach(opts));

  orca::omp::parallel([](int) {
    if (omp_get_thread_num() != 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    orca::omp::parallel([](int) {}, 2);
  }, 2);
  rt.quiesce();
  tool.detach();

  const auto data = tool.trace_data();
  EXPECT_EQ(data.callstacks.size(), 1u);
  EXPECT_EQ(tool.callstacks_filtered(), 1u);
  Runtime::make_current(nullptr);
}

TEST(Filtering, FiltersCompose) {
  Runtime rt(two_threads());
  Runtime::make_current(&rt);
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.callstack_sampling_interval = 2;
  opts.dedup_by_context = true;
  ASSERT_TRUE(tool.attach(opts));

  for (int i = 0; i < 20; ++i) orca::omp::parallel([](int) {}, 2);
  rt.quiesce();
  tool.detach();

  // Sampling admits 10, dedup keeps the first: exactly one stored stack.
  const auto data = tool.trace_data();
  EXPECT_EQ(data.callstacks.size(), 1u);
  EXPECT_EQ(tool.callstacks_filtered(), 19u);
  Runtime::make_current(nullptr);
}

}  // namespace
