/// Protocol-conformance suite: seeded random request interleavings fired at
/// the real `omp_collector_api` and diffed against the white-paper reference
/// model, plus unit coverage for the fault-injection seams the conformance
/// driver (and the async lifecycle tests) rely on.
///
/// Reproducing a failure: every EXPECT below prints the driver's divergence
/// report, which includes the seed and a minimized transcript. Re-run the
/// binary with ORCA_TEST_SEED=<seed> to replay deterministically.
#include <gtest/gtest.h>

#include <cstdlib>

#include "collector/message.hpp"
#include "perf/samples.hpp"
#include "runtime/runtime.hpp"
#include "testing/conformance.hpp"
#include "testing/fault_injection.hpp"

namespace {

using orca::collector::MessageBuilder;
using orca::rt::EventBackpressure;
using orca::testing::ConformanceOptions;
using orca::testing::ConformanceReport;
using orca::testing::conformance_seed;
using orca::testing::FaultInjector;
using orca::testing::FaultPoint;
using orca::testing::run_conformance;

// The acceptance bar: across the suite the differ must run at least 10k
// randomized sequences spanning sync and async delivery. Keep the budget
// arithmetic in one place so it cannot silently drift below the bar.
constexpr int kSyncSequences = 5000;
constexpr int kAsyncSequences = 4000;
constexpr int kPerPolicySequences = 400;  // x3 backpressure policies
static_assert(kSyncSequences + kAsyncSequences + 3 * kPerPolicySequences >=
                  10000,
              "conformance suite must cover >= 10k randomized sequences");

ConformanceOptions base_options() {
  ConformanceOptions opt;
  opt.seed = conformance_seed(opt.seed);
  return opt;
}

TEST(Conformance, SyncSingleThreadedExactDiff) {
  ConformanceOptions opt = base_options();
  opt.sequences = kSyncSequences;
  const ConformanceReport report = run_conformance(opt);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.sequences_run, static_cast<std::uint64_t>(kSyncSequences));
  EXPECT_GT(report.requests_checked, 10000u);
}

TEST(Conformance, AsyncSingleThreadedExactDiff) {
  ConformanceOptions opt = base_options();
  opt.sequences = kAsyncSequences;
  opt.async_delivery = true;
  const ConformanceReport report = run_conformance(opt);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.sequences_run, static_cast<std::uint64_t>(kAsyncSequences));
  EXPECT_GT(report.requests_checked, 10000u);
}

TEST(Conformance, AsyncEveryBackpressurePolicy) {
  // A tiny ring forces the policies to actually engage while the protocol
  // replies stay policy-independent.
  constexpr EventBackpressure kPolicies[] = {EventBackpressure::kBlock,
                                             EventBackpressure::kDropNewest,
                                             EventBackpressure::kOverwriteOldest};
  for (const EventBackpressure policy : kPolicies) {
    ConformanceOptions opt = base_options();
    opt.sequences = kPerPolicySequences;
    opt.async_delivery = true;
    opt.backpressure = policy;
    opt.ring_capacity = 8;
    const ConformanceReport report = run_conformance(opt);
    EXPECT_TRUE(report.ok) << "policy=" << static_cast<int>(policy) << "\n"
                           << report.failure;
    EXPECT_EQ(report.sequences_run,
              static_cast<std::uint64_t>(kPerPolicySequences));
  }
}

TEST(Conformance, MultiThreadedSyncPlausibilityAndReconciliation) {
  ConformanceOptions opt = base_options();
  opt.threads = 4;
  opt.sequences = 50;  // rounds; each round = 4 concurrent streams
  const ConformanceReport report = run_conformance(opt);
  EXPECT_TRUE(report.ok) << report.failure;
  // 50 rounds * 4 threads * 60 steps, of which ~1/6 are event firings.
  EXPECT_GT(report.requests_checked, 9000u);
}

TEST(Conformance, MultiThreadedAsyncPlausibilityAndReconciliation) {
  ConformanceOptions opt = base_options();
  opt.threads = 4;
  opt.sequences = 50;
  opt.async_delivery = true;
  opt.ring_capacity = 16;
  const ConformanceReport report = run_conformance(opt);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_GT(report.requests_checked, 9000u);
}

TEST(Conformance, SameSeedReplaysIdentically) {
  ConformanceOptions opt;  // fixed seed on purpose: no env override here
  opt.seed = 0xD5EEDULL;
  opt.sequences = 200;
  const ConformanceReport a = run_conformance(opt);
  const ConformanceReport b = run_conformance(opt);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  // Deterministic replay: the same seed must drive the exact same request
  // stream, hence the exact same number of checked replies.
  EXPECT_EQ(a.requests_checked, b.requests_checked);
  EXPECT_EQ(a.sequences_run, b.sequences_run);
}

TEST(Conformance, SeedOverrideComesFromEnvironment) {
  ASSERT_EQ(setenv("ORCA_TEST_SEED", "12345", 1), 0);
  EXPECT_EQ(conformance_seed(7), 12345u);
  ASSERT_EQ(setenv("ORCA_TEST_SEED", "0xBEEF", 1), 0);
  EXPECT_EQ(conformance_seed(7), 0xBEEFu);
  ASSERT_EQ(unsetenv("ORCA_TEST_SEED"), 0);
  EXPECT_EQ(conformance_seed(7), 7u);
}

// ---------------------------------------------------------------------------
// Fault-injection harness.
// ---------------------------------------------------------------------------

/// Every test leaves the global injector disarmed and clean, even on
/// assertion failure.
struct ScopedFaultInjection {
  ScopedFaultInjection() { FaultInjector::instance().disarm(); }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }
  FaultInjector& operator*() const { return FaultInjector::instance(); }
  FaultInjector* operator->() const { return &FaultInjector::instance(); }
};

TEST(FaultInjection, DisarmedSeamsObserveNothing) {
  ScopedFaultInjection fi;
  ASSERT_FALSE(FaultInjector::armed());

  // Drive product code through several seams while disarmed: no hit is
  // recorded anywhere, and behavior is the production behavior.
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = 2;
  orca::rt::Runtime rt(cfg);
  MessageBuilder msg;
  msg.add(OMP_REQ_START);
  msg.add_state_query();
  msg.add(OMP_REQ_STOP);
  EXPECT_EQ(rt.collector_api(msg.buffer()), 0);
  for (int p = 0; p < orca::testing::kFaultPointCount; ++p) {
    EXPECT_EQ(fi->hits(static_cast<FaultPoint>(p)), 0u)
        << orca::testing::fault_point_name(static_cast<FaultPoint>(p));
  }
}

TEST(FaultInjection, ArmedHooksFireAtTheApiBoundary) {
  ScopedFaultInjection fi;
  int entered = 0;
  fi->set_hook(FaultPoint::kApiEnter, [&entered] { ++entered; });
  fi->arm();

  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = 2;
  orca::rt::Runtime rt(cfg);
  // A STATE-only buffer is answered on the async-signal-safe fast path:
  // it crosses the signal seam at collector_api() entry but never reaches
  // the full dispatcher or the per-thread queues.
  MessageBuilder msg;
  msg.add_state_query();
  EXPECT_EQ(rt.collector_api(msg.buffer()), 0);
  EXPECT_EQ(msg.errcode(0), OMP_ERRCODE_OK);
  EXPECT_EQ(entered, 0);
  EXPECT_EQ(fi->hits(FaultPoint::kSignalDuringQuery), 1u);
  EXPECT_EQ(fi->hits(FaultPoint::kQueueDrain), 0u);

  // Mixing in a lifecycle record forces the full dispatcher, which enters
  // process_messages and drains the queued STATE query.
  MessageBuilder slow;
  slow.add(OMP_REQ_START);
  slow.add_state_query();
  slow.add(OMP_REQ_STOP);
  EXPECT_EQ(rt.collector_api(slow.buffer()), 0);
  EXPECT_EQ(entered, 1);
  EXPECT_EQ(fi->hits(FaultPoint::kApiEnter), 1u);
  EXPECT_GE(fi->hits(FaultPoint::kQueueDrain), 1u);
}

TEST(FaultInjection, InjectedAllocFailureMakesBuilderReturnNpos) {
  ScopedFaultInjection fi;
  fi->fail_allocs(FaultPoint::kMessageAppend, 1);
  fi->arm();

  MessageBuilder msg;
  EXPECT_EQ(msg.add(OMP_REQ_STATE, 16), MessageBuilder::npos);
  EXPECT_EQ(msg.count(), 0u);  // builder untouched by the failed append
  // Budget spent: the next append succeeds and the buffer stays coherent.
  EXPECT_EQ(msg.add(OMP_REQ_STATE, 16), 0u);
  EXPECT_EQ(msg.count(), 1u);
  EXPECT_NE(msg.buffer(), nullptr);
  EXPECT_EQ(fi->hits(FaultPoint::kMessageAppend), 1u);
}

TEST(FaultInjection, InjectedAllocFailureDropsSampleNotProcess) {
  ScopedFaultInjection fi;
  fi->fail_allocs(FaultPoint::kSampleRecord, 1);
  fi->arm();

  // The injected mapping failure leaves a zero-capacity lane: every record
  // is dropped and counted, exactly like hitting the hard cap.
  orca::perf::SampleLane failed(16);
  orca::perf::SampleLane mapped(16);  // budget spent: this one maps
  orca::perf::EventSample s;
  for (int i = 0; i < 5; ++i) {
    failed.record(s);
    mapped.record(s);
  }
  EXPECT_EQ(failed.dropped(), 5u);
  EXPECT_EQ(failed.size(), 0u);
  EXPECT_EQ(mapped.dropped(), 0u);
  EXPECT_EQ(mapped.size(), 5u);
  EXPECT_EQ(fi->hits(FaultPoint::kSampleRecord), 1u);
}

TEST(FaultInjection, SchedulePerturbationKeepsProtocolIntact) {
  ScopedFaultInjection fi;
  fi->perturb(/*seed=*/0xFEEDULL, /*one_in=*/2);
  fi->arm();

  // With every seam yielding half the time, a conformance slice must still
  // diff clean: perturbation shakes schedules, never semantics.
  ConformanceOptions opt;
  opt.seed = 0xFEEDULL;
  opt.sequences = 100;
  opt.async_delivery = true;
  const ConformanceReport report = run_conformance(opt);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_GT(fi->hits(FaultPoint::kApiEnter), 0u);
  EXPECT_GT(fi->hits(FaultPoint::kEventFire), 0u);
}

}  // namespace
