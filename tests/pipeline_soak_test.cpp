/// Pipeline soak under the signal-storm harness: a 1 kHz SIGPROF sampling
/// collector hammers the async-signal-safe query fast path while producer
/// threads stream events through a 3-stage chain
/// (quantize -> map -> aggregate). The suite asserts what a soak is for:
///
///   * no loss-counter lies — every stage's books balance
///     (accepted == emitted + filtered + dropped + held) and the items
///     reaching the bounded aggregate are all accounted for in its
///     sketches;
///   * constant memory — RSS measured after warmup does not grow over the
///     soak window (bounded aggregate keys);
///   * the sampler's per-region histogram assembly (region_report) works
///     over the samples the storm produced.
///
/// Runs ~3s by default so the tier-1 suite stays fast; set
/// ORCA_SOAK_SECONDS=60 for the full constant-memory soak. Must stay
/// clean under TSan (the sanitizer presets run this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "epcc/syncbench.hpp"
#include "pipeline/aggregate.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"
#include "runtime/config.hpp"
#include "runtime/runtime.hpp"
#include "tool/sampling_collector.hpp"

#if defined(__SANITIZE_ADDRESS__)
// ASan parks freed blocks in a 256 MB quarantine, whose pages read as RSS
// growth once producers push flat out on several cores. Keep it small so
// the constant-memory check measures the pipeline, not the sanitizer.
extern "C" const char* __asan_default_options() {
  return "quarantine_size_mb=4";
}
#endif

namespace {

using orca::pipeline::AggregateRow;
using orca::pipeline::Event;
using orca::pipeline::Pipeline;
using orca::pipeline::StagePtr;
using orca::pipeline::StageStats;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::SamplingCollector;
using orca::tool::SamplingOptions;

/// Resident set in bytes from /proc/self/statm (0 if unreadable —
/// the memory assertion is skipped then).
std::size_t resident_bytes() {
  std::FILE* fh = std::fopen("/proc/self/statm", "r");
  if (fh == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(fh, "%lu %lu", &size, &resident);
  std::fclose(fh);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) * 4096u;
}

void expect_honest(const StageStats& s) {
  EXPECT_EQ(s.accepted, s.emitted + s.filtered + s.dropped + s.held)
      << "stage " << s.name << " lies about its accounting";
}

TEST(PipelineSoak, ThreeStageChainUnderKilohertzSignalStorm) {
  const long seconds = RuntimeConfig::env_long(
      "ORCA_SOAK_SECONDS", 3, 1, "soak duration in seconds >= 1");

  RuntimeConfig cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  SamplingCollector& sc = SamplingCollector::instance();
  sc.stop();  // in case an earlier suite in this binary left it armed
  sc.clear();
  SamplingOptions opts;
  opts.hz = 1000;
  ASSERT_TRUE(sc.start(&__omp_collector_api, opts));

  // The 3-stage chain, downstream-first. The aggregate is bounded (64
  // region keys + overflow), so the whole assembly is constant-memory no
  // matter how long the soak runs.
  auto agg = orca::pipeline::aggregate<Event>(
      "by-tid", [](const Event& e) { return std::uint64_t(e.tid); },
      [](const Event& e) { return e.ns % 1024; }, /*max_keys=*/64);
  StagePtr<Event> chain = orca::pipeline::map<Event>(
      "stamp",
      [](const Event& e) {
        Event out = e;
        out.ns += 1;
        return out;
      },
      StagePtr<Event>(agg));
  chain = orca::pipeline::quantize<Event>("q4", 4, std::move(chain));
  Pipeline<Event> pipe{std::move(chain)};

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  const auto warmup =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(1000 * seconds / 4);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> pushed{0};
  std::size_t rss_after_warmup = 0;

  // Producers: stream synthetic decoded events through the chain flat out.
  std::vector<std::thread> producers;
  producers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&rt, &pipe, &done, &pushed, t] {
      // Bind this thread to the test runtime: SIGPROF lands on whichever
      // thread is running, and an unbound thread would make the handler's
      // Runtime::current() lazily construct the global runtime — from
      // signal context.
      Runtime::make_current(&rt);
      Event e;
      e.tid = t;
      e.event = OMP_EVENT_FORK;
      std::uint64_t n = 0;
      while (!done.load(std::memory_order_acquire)) {
        e.seq = n;
        e.ns = n++;
        pipe.push(e);
      }
      pushed.fetch_add(n, std::memory_order_relaxed);
    });
  }

  // Meanwhile the runtime does real parallel work on the main thread, so
  // SIGPROF ticks land while teams fork/join and the handler's fast-path
  // queries race the pipeline's stage traffic.
  orca::epcc::Options bopts;
  bopts.num_threads = 4;
  bopts.outer_reps = 2;
  bopts.inner_reps = 64;
  bopts.delay_length = 200;
  orca::epcc::SyncBench bench(bopts);
  const orca::epcc::Directive cycle[] = {orca::epcc::Directive::kParallel,
                                         orca::epcc::Directive::kBarrier,
                                         orca::epcc::Directive::kCritical};
  std::size_t round = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (rss_after_warmup == 0 && std::chrono::steady_clock::now() >= warmup) {
      rss_after_warmup = resident_bytes();
    }
    const auto r = bench.measure(cycle[round++ % 3]);
    EXPECT_GE(r.total_seconds, 0.0);
  }

  done.store(true, std::memory_order_release);
  for (auto& th : producers) th.join();

  const std::size_t rss_end = resident_bytes();
  sc.stop();
  pipe.flush();

  // --- No loss-counter lies. -------------------------------------------
  const std::vector<StageStats> stats = pipe.stats();
  ASSERT_EQ(stats.size(), 3u);
  std::uint64_t dropped = 0;
  for (const StageStats& s : stats) {
    expect_honest(s);
    dropped += s.dropped;
  }
  // Everything the producers pushed entered the head stage, and after the
  // final flush nothing is silently parked.
  EXPECT_EQ(stats[0].accepted, pushed.load());
  for (const StageStats& s : stats) EXPECT_EQ(s.held, 0u) << s.name;
  // Nothing sheds: quantize filters on purpose, and the aggregate absorbs
  // (overflow is aggregation into the catch-all row, not loss).
  EXPECT_EQ(dropped, 0u);
  // Items reaching the aggregate are all accounted for in its sketches.
  std::uint64_t sketched = 0;
  for (const AggregateRow& row : agg->snapshot()) sketched += row.sketch.count;
  EXPECT_EQ(sketched, agg->stats().accepted);
  EXPECT_GT(sketched, 0u);

  // --- Constant memory. -------------------------------------------------
  const std::size_t rss_mid = rss_after_warmup;
  if (rss_mid != 0 && rss_end != 0) {
    // Bounded stages: RSS after warmup must not creep. Allow generous
    // allocator/sampler slack (sampler lane pages count once written).
    EXPECT_LE(rss_end, rss_mid + 16u * 1024 * 1024)
        << "RSS grew from " << rss_mid << " to " << rss_end
        << " over the soak window";
  }

  // --- Per-region histograms from the storm's samples. ------------------
  const auto sstats = sc.stats();
  EXPECT_EQ(sstats.api_failures, 0u);
  const std::vector<AggregateRow> regions = sc.region_report(64);
  if (sstats.samples > 0) {
    ASSERT_FALSE(regions.empty());
    std::uint64_t counted = 0;
    for (const AggregateRow& row : regions) counted += row.sketch.count;
    EXPECT_EQ(counted, sstats.samples);
    const std::string rendered = sc.render_region_report(64);
    EXPECT_NE(rendered.find("region"), std::string::npos);
  }

  sc.clear();
  Runtime::make_current(nullptr);
}

}  // namespace
