/// Unit tests for the composable stream-stage API (src/pipeline/): the
/// combinator vocabulary, the per-stage accounting invariant
/// (accepted == emitted + filtered + dropped + held), flush semantics,
/// and the bounded online aggregate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "pipeline/aggregate.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"

namespace {

using orca::pipeline::AggregateRow;
using orca::pipeline::by_seq;
using orca::pipeline::Event;
using orca::pipeline::KillSwitch;
using orca::pipeline::Pipeline;
using orca::pipeline::StagePtr;
using orca::pipeline::StageStats;

/// accepted == emitted + filtered + dropped + held, per stage.
void expect_honest(const StageStats& s) {
  EXPECT_EQ(s.accepted, s.emitted + s.filtered + s.dropped + s.held)
      << "stage " << s.name << " lies about its accounting";
}

TEST(Stage, MapFilterQuantizeCompose) {
  auto log = orca::pipeline::collect<std::uint64_t>("log");
  // keep even numbers, double them, then 1-in-2 decimation.
  StagePtr<std::uint64_t> head = orca::pipeline::quantize<std::uint64_t>(
      "q", 2,
      orca::pipeline::map<std::uint64_t>(
          "x2", [](const std::uint64_t& v) { return 2 * v; },
          StagePtr<std::uint64_t>(log)));
  head = orca::pipeline::filter<std::uint64_t>(
      "even", [](const std::uint64_t& v) { return v % 2 == 0; },
      std::move(head));

  Pipeline<std::uint64_t> p(head);
  for (std::uint64_t v = 0; v < 100; ++v) p.push(v);
  p.flush();

  // 50 evens -> decimated to 25 -> doubled.
  const auto kept = log->snapshot();
  ASSERT_EQ(kept.size(), 25u);
  for (const std::uint64_t v : kept) EXPECT_EQ(v % 4, 0u);

  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& s : stats) expect_honest(s);
  EXPECT_EQ(stats[0].name, "even");
  EXPECT_EQ(stats[0].accepted, 100u);
  EXPECT_EQ(stats[0].filtered, 50u);
  EXPECT_EQ(stats[1].name, "q");
  EXPECT_EQ(stats[1].filtered, 25u);
}

TEST(Stage, FanoutDeliversToEveryBranchAndStatsWalkVisitsOnce) {
  auto a = orca::pipeline::collect<int>("a");
  auto b = orca::pipeline::collect<int>("b");
  Pipeline<int> p(orca::pipeline::fanout<int>(
      "split", {StagePtr<int>(a), StagePtr<int>(b)}));
  for (int i = 0; i < 10; ++i) p.push(i);
  EXPECT_EQ(a->size(), 10u);
  EXPECT_EQ(b->size(), 10u);
  EXPECT_EQ(p.stats().size(), 3u);

  // Diamond: tee into the same sink twice still reports each stage once.
  auto shared = orca::pipeline::collect<int>("shared");
  Pipeline<int> diamond(orca::pipeline::tee<int>(
      "tee", StagePtr<int>(shared), StagePtr<int>(shared)));
  diamond.push(1);
  EXPECT_EQ(shared->size(), 2u);  // both branches delivered
  EXPECT_EQ(diamond.stats().size(), 2u);  // tee + shared, deduped
}

TEST(Stage, KillswitchTripsManuallyAndAfterLimit) {
  auto log = orca::pipeline::collect<int>("log");
  KillSwitch ks;
  Pipeline<int> p(orca::pipeline::killswitch<int>("ks", ks,
                                                  StagePtr<int>(log)));
  p.push(1);
  ks.trip();
  p.push(2);
  p.push(3);
  EXPECT_EQ(log->size(), 1u);
  const auto s = p.stats()[0];
  expect_honest(s);
  EXPECT_EQ(s.dropped, 2u);

  // Self-tripping variant: exactly `limit` items pass.
  auto log2 = orca::pipeline::collect<int>("log2");
  KillSwitch ks2;
  Pipeline<int> p2(orca::pipeline::killswitch<int>(
      "ks2", ks2, StagePtr<int>(log2), /*trip_after=*/5));
  for (int i = 0; i < 20; ++i) p2.push(i);
  EXPECT_EQ(log2->size(), 5u);
  EXPECT_TRUE(ks2.tripped());
}

TEST(Stage, SinkAndNullCount) {
  std::atomic<int> seen{0};
  auto s = orca::pipeline::sink<int>("probe",
                                     [&seen](const int&) { ++seen; });
  for (int i = 0; i < 7; ++i) s->push(i);
  EXPECT_EQ(seen.load(), 7);
  EXPECT_EQ(s->stats().emitted, 7u);

  auto n = orca::pipeline::null<int>();
  n->push(1);
  EXPECT_EQ(n->stats().accepted, 1u);
  expect_honest(n->stats());
}

TEST(Stage, CollectBoundedDropsHonestly) {
  auto log = orca::pipeline::collect<int>("log", /*max_items=*/16);
  for (int i = 0; i < 100; ++i) log->push(i);
  EXPECT_EQ(log->size(), 16u);
  EXPECT_EQ(log->stats().dropped, 84u);
  expect_honest(log->stats());
  log->clear();
  EXPECT_EQ(log->size(), 0u);
}

TEST(Aggregate, BoundedKeysOverflowToCatchAllRow) {
  auto agg = orca::pipeline::aggregate<Event>(
      "by-tid", [](const Event& e) { return std::uint64_t(e.tid); },
      [](const Event& e) { return e.ns; }, /*max_keys=*/4);
  Event e;
  for (int tid = 0; tid < 50; ++tid) {
    e.tid = tid;
    e.ns = 100;
    for (int i = 0; i < 3; ++i) agg->push(e);
  }
  EXPECT_LE(agg->key_count(), 4u + 15u);  // cap + benign shard overshoot
  EXPECT_GT(agg->overflowed(), 0u);
  const std::vector<AggregateRow> rows = agg->snapshot();
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(rows.back().overflow);
  // Nothing lost: every observation landed in some sketch.
  std::uint64_t total = 0;
  for (const auto& row : rows) total += row.sketch.count;
  EXPECT_EQ(total, 150u);
  expect_honest(agg->stats());
  EXPECT_EQ(agg->stats().dropped, 0u);
}

TEST(Aggregate, SketchQuantilesBracketObservations) {
  orca::pipeline::Log2Sketch sketch;
  for (std::uint64_t v = 1; v <= 1000; ++v) sketch.observe(v);
  EXPECT_EQ(sketch.count, 1000u);
  EXPECT_EQ(sketch.max, 1000u);
  EXPECT_NEAR(sketch.mean(), 500.5, 0.01);
  EXPECT_GE(sketch.quantile(0.99), 500.0);
  EXPECT_LE(sketch.quantile(0.5), 1023.0);
  EXPECT_LE(sketch.quantile(0.99), 1000.0);  // clamped to observed max
}

TEST(Pipeline, EventRoundTripAndRender) {
  auto log = orca::pipeline::collect<Event>("log");
  Pipeline<Event> p{StagePtr<Event>(log)};
  for (std::uint64_t i = 0; i < 5; ++i) {
    Event e;
    e.seq = 4 - i;  // pushed out of order
    e.event = OMP_EVENT_FORK;
    p.push(e);
  }
  const auto ordered = log->sorted(by_seq);
  for (std::uint64_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].seq, i);
  }
  const std::string table = p.render();
  EXPECT_NE(table.find("log"), std::string::npos);
  EXPECT_NE(table.find("accepted"), std::string::npos);
}

}  // namespace
