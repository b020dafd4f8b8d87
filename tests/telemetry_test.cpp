/// Runtime self-telemetry: arming semantics, timeline rings, the sharded
/// metrics registry, the Chrome-trace/text exporters, and the
/// ORCA_REQ_TELEMETRY_SNAPSHOT protocol surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "collector/message.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using orca::collector::MessageBuilder;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
namespace tel = orca::telemetry;

void noop_microtask(int, void*) {}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { tel::reset_for_testing(); }
  void TearDown() override { tel::reset_for_testing(); }
};

TEST_F(TelemetryTest, ArmingIsReferenceCounted) {
  ASSERT_EQ(tel::armed_mask(), 0u) << "another holder leaked an arm()";
  tel::arm(tel::kTimelineBit);
  tel::arm(tel::kTimelineBit);
  EXPECT_TRUE(tel::timeline_armed());
  tel::disarm(tel::kTimelineBit);
  EXPECT_TRUE(tel::timeline_armed()) << "one holder remains";
  tel::disarm(tel::kTimelineBit);
  EXPECT_FALSE(tel::timeline_armed());

  tel::arm(tel::kMetricsBit);
  EXPECT_FALSE(tel::timeline_armed());
  EXPECT_TRUE(tel::metrics_armed());
  tel::disarm(tel::kMetricsBit);
  EXPECT_EQ(tel::armed_mask(), 0u);
}

TEST_F(TelemetryTest, DisarmedHooksRecordNothing) {
  ASSERT_EQ(tel::armed_mask(), 0u);
  tel::record_state(THR_WORK_STATE);
  tel::record_span(tel::SpanKind::kDrainPass, tel::Phase::kBegin);
  tel::count(tel::Counter::kForks, 100);
  tel::gauge_max(tel::Gauge::kTaskQueueDepth, 7);
  tel::observe(tel::Histogram::kBarrierWaitNs, 1234);

  const tel::MetricsView view = tel::metrics();
  EXPECT_EQ(view.counters[static_cast<std::size_t>(tel::Counter::kForks)], 0u);
  EXPECT_EQ(view.gauges[0], 0u);
  EXPECT_EQ(view.histograms[0].count, 0u);
  EXPECT_EQ(view.timeline_records, 0u);
}

TEST_F(TelemetryTest, TimelineRecordsStatesAndSpans) {
  tel::arm(tel::kTimelineBit);
  tel::name_thread("tester");
  tel::record_state(THR_WORK_STATE);
  tel::record_span(tel::SpanKind::kDrainPass, tel::Phase::kBegin, 5);
  tel::record_span(tel::SpanKind::kDrainPass, tel::Phase::kEnd, 5);
  tel::record_state(THR_IBAR_STATE);
  tel::disarm(tel::kTimelineBit);

  const std::vector<tel::ThreadTimeline> threads = tel::timelines();
  const tel::ThreadTimeline* mine = nullptr;
  for (const tel::ThreadTimeline& t : threads) {
    if (t.name == "tester") mine = &t;
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->records.size(), 4u);
  EXPECT_EQ(mine->records[0].kind, tel::SpanKind::kState);
  EXPECT_EQ(mine->records[0].arg,
            static_cast<std::uint32_t>(THR_WORK_STATE));
  EXPECT_EQ(mine->records[1].kind, tel::SpanKind::kDrainPass);
  EXPECT_EQ(mine->records[1].phase, tel::Phase::kBegin);
  EXPECT_EQ(mine->records[2].phase, tel::Phase::kEnd);
  EXPECT_EQ(mine->records[2].arg, 5u);
  // Timestamps are monotone within one thread's ring.
  EXPECT_LE(mine->records[0].ns, mine->records[3].ns);
}

TEST_F(TelemetryTest, RingWrapsOverwritingOldest) {
  const std::size_t prev_capacity = tel::ring_capacity();
  tel::set_ring_capacity(64);
  tel::arm(tel::kTimelineBit);
  // Fresh thread => fresh ring at the reduced capacity (existing rings
  // keep their size, so the main thread's would not wrap).
  std::thread writer([] {
    tel::name_thread("wrapper");
    for (int i = 0; i < 500; ++i) tel::record_state(THR_WORK_STATE);
  });
  writer.join();
  tel::disarm(tel::kTimelineBit);
  tel::set_ring_capacity(prev_capacity);

  const std::vector<tel::ThreadTimeline> threads = tel::timelines();
  const tel::ThreadTimeline* mine = nullptr;
  for (const tel::ThreadTimeline& t : threads) {
    if (t.name == "wrapper") mine = &t;
  }
  ASSERT_NE(mine, nullptr) << "exited thread's timeline must survive";
  EXPECT_LE(mine->records.size(), 64u);
  EXPECT_GT(mine->records.size(), 0u);
  EXPECT_EQ(mine->overwritten, 500u - mine->records.size());
}

TEST_F(TelemetryTest, MetricsAggregateAcrossThreadShards) {
  tel::arm(tel::kMetricsBit);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      tel::count(tel::Counter::kForks, 10);
      tel::gauge_max(tel::Gauge::kTaskQueueDepth,
                     static_cast<std::uint64_t>(10 + t));
      tel::observe(tel::Histogram::kBarrierWaitNs, 1000);
    });
  }
  for (std::thread& th : threads) th.join();
  tel::disarm(tel::kMetricsBit);

  const tel::MetricsView view = tel::metrics();
  EXPECT_EQ(view.counters[static_cast<std::size_t>(tel::Counter::kForks)],
            40u);
  EXPECT_EQ(
      view.gauges[static_cast<std::size_t>(tel::Gauge::kTaskQueueDepth)],
      13u)
      << "gauge aggregates as max across shards";
  const tel::HistogramView& h =
      view.histograms[static_cast<std::size_t>(tel::Histogram::kBarrierWaitNs)];
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum_ns, 4000u);
  EXPECT_EQ(h.max_ns, 1000u);
  // Log2 buckets: the median estimate lands in the 1000ns bucket's range.
  EXPECT_GE(h.quantile(0.5), 256.0);
  EXPECT_LE(h.quantile(0.5), 4096.0);
}

TEST_F(TelemetryTest, ChromeTraceExportsSpansAndExternalEvents) {
  tel::arm(tel::kTimelineBit);
  tel::name_thread("exporter");
  tel::record_state(THR_WORK_STATE);
  tel::record_span(tel::SpanKind::kDrainPass, tel::Phase::kBegin, 3);
  tel::record_span(tel::SpanKind::kDrainPass, tel::Phase::kEnd, 3);
  tel::record_state(THR_SERIAL_STATE);
  tel::disarm(tel::kTimelineBit);

  tel::ExternalEvent ev;
  ev.ns = orca::SteadyClock::now();
  ev.name = "OMP_EVENT_FORK";
  ev.category = "collector";
  const std::string json = tel::render_chrome_trace({ev});

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("exporter"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "B/E pair and state sequence must produce complete spans";
  EXPECT_NE(json.find("OMP_EVENT_FORK"), std::string::npos);
  EXPECT_NE(json.find("collector"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');

  const std::string path = ::testing::TempDir() + "orca_telemetry_trace.json";
  ASSERT_TRUE(tel::write_chrome_trace(path, {ev}));
  EXPECT_EQ(slurp(path), json);
  std::remove(path.c_str());
}

// Fixed input, exact output: pins the trace bytes (key order, escaping,
// the %.3f microsecond stamps, the external track) so a change to the
// writer cannot move them unnoticed.
TEST_F(TelemetryTest, ChromeTraceGoldenOutput) {
  const auto ext = [](std::uint64_t ns, std::uint64_t dur_ns, int tid,
                      std::string name, std::string category) {
    tel::ExternalEvent e;
    e.ns = ns;
    e.dur_ns = dur_ns;
    e.tid = tid;
    e.name = std::move(name);
    e.category = std::move(category);
    return e;
  };
  const std::vector<tel::ExternalEvent> extra = {
      ext(1000, 0, -1, "fork \"q\"", "collector"),
      ext(2500, 1234567, 3, "back\\slash\nline", ""),
      ext(7001, 0, 0, "cr\rtab\tctl\x01", "perf"),
      ext(1001, 1, 2, "tiny", "c"),
      ext(1000 + 123456789012ull, 999, -1, "late", "collector"),
  };
  const std::string expected = R"json({"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"orca-runtime"}},
{"ph":"M","pid":1,"tid":999,"name":"thread_name","args":{"name":"external"}},
{"ph":"i","pid":1,"tid":999,"name":"fork \"q\"","cat":"collector","ts":0.000,"s":"t"},
{"ph":"X","pid":1,"tid":3,"name":"back\\slash\nline","cat":"external","ts":1.500,"dur":1234.567},
{"ph":"i","pid":1,"tid":0,"name":"cr\rtab\tctl\u0001","cat":"perf","ts":6.001,"s":"t"},
{"ph":"X","pid":1,"tid":2,"name":"tiny","cat":"c","ts":0.001,"dur":0.001},
{"ph":"X","pid":1,"tid":999,"name":"late","cat":"collector","ts":123456789.012,"dur":0.999}
]}
)json";
  EXPECT_EQ(tel::render_chrome_trace(extra), expected);
}

// A file written through TraceWriter's chunked hand-over holds exactly
// the in-memory document, also when it spans several chunks.
TEST_F(TelemetryTest, ChromeTraceFilePastOneChunkEqualsRender) {
  std::vector<tel::ExternalEvent> extra(3000);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    extra[i].ns = 1'000'000 + 977 * i;
    extra[i].dur_ns = i % 3 == 0 ? 0 : 500 + i;
    extra[i].tid = static_cast<int>(i % 5) - 1;
    extra[i].name = "event \"" + std::to_string(i) + "\"";
    extra[i].category = "collector";
  }
  const std::string json = tel::render_chrome_trace(extra);
  ASSERT_GT(json.size(), 2 * tel::TraceWriter::kChunkBytes);

  const std::string path = ::testing::TempDir() + "orca_chunked_trace.json";
  ASSERT_TRUE(tel::write_chrome_trace(path, extra));
  EXPECT_EQ(slurp(path), json);
  std::remove(path.c_str());
}

// Every failed write reaches the caller: the open, a mid-stream chunk and
// the last write at close().
TEST_F(TelemetryTest, ChromeTraceWriteFailuresReturnFalse) {
  EXPECT_FALSE(tel::write_chrome_trace(::testing::TempDir() +
                                       "no-such-dir/trace.json"));
  if (!file_exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(tel::write_chrome_trace("/dev/full"));
  std::vector<tel::ExternalEvent> extra(2000);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    extra[i].ns = 1000 + i;
    extra[i].name = "OMP_EVENT_THR_BEGIN_IDLE";
  }
  EXPECT_FALSE(tel::write_chrome_trace("/dev/full", extra));
}

// A trace with no events is still a complete JSON document, in memory and
// on disk.
TEST_F(TelemetryTest, EmptyTraceIsCompleteDocument) {
  const std::string empty =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n";
  EXPECT_EQ(tel::TraceWriter().take(), empty);

  const std::string path = ::testing::TempDir() + "orca_empty_trace.json";
  ASSERT_TRUE(tel::TraceWriter(path).close());
  EXPECT_EQ(slurp(path), empty);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, TextReportListsMetricCatalog) {
  tel::arm(tel::kMetricsBit);
  tel::count(tel::Counter::kForks, 3);
  tel::disarm(tel::kMetricsBit);

  const std::string report = tel::render_text_report();
  EXPECT_NE(report.find("ORCA telemetry report"), std::string::npos);
  for (std::size_t i = 0; i < tel::kCounterCount; ++i) {
    EXPECT_NE(
        report.find(tel::counter_name(static_cast<tel::Counter>(i))),
        std::string::npos);
  }
  for (std::size_t i = 0; i < tel::kHistogramCount; ++i) {
    EXPECT_NE(
        report.find(tel::histogram_name(static_cast<tel::Histogram>(i))),
        std::string::npos);
  }
}

TEST_F(TelemetryTest, ShutdownReportWritesFileDestination) {
  const std::string path = ::testing::TempDir() + "orca_telemetry_report.txt";
  tel::shutdown_report(path);
  EXPECT_TRUE(file_exists(path));
  EXPECT_NE(slurp(path).find("ORCA telemetry report"), std::string::npos);
  std::remove(path.c_str());
  tel::shutdown_report("");  // no-op, must not crash
}

TEST_F(TelemetryTest, SnapshotRequestAnswersWithRuntimeCounters) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.telemetry_timeline = true;
  cfg.telemetry_metrics = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  rt.fork(&noop_microtask, nullptr, 2);
  rt.quiesce();

  MessageBuilder msg;
  msg.add_telemetry_query();
  ASSERT_EQ(rt.collector_api(msg.buffer()), 0);
  ASSERT_EQ(msg.errcode(0), OMP_ERRCODE_OK);
  orca_telemetry_snapshot snap = {};
  ASSERT_TRUE(msg.reply_value(0, &snap));
  EXPECT_EQ(snap.armed_mask, tel::kTimelineBit | tel::kMetricsBit);
  EXPECT_GE(snap.forks, 1u);
  EXPECT_GE(snap.joins, 1u);
  EXPECT_GE(snap.threads_tracked, 1u);
  EXPECT_GT(snap.timeline_records, 0u);
  Runtime::make_current(nullptr);
}

TEST_F(TelemetryTest, SnapshotRequestUnsupportedWhenConfigOff) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  MessageBuilder msg;
  msg.add_telemetry_query();
  ASSERT_EQ(rt.collector_api(msg.buffer()), 0);
  EXPECT_EQ(msg.errcode(0), OMP_ERRCODE_UNSUPPORTED);
}

TEST_F(TelemetryTest, SnapshotRequestRejectsSmallCapacity) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.telemetry_metrics = true;
  Runtime rt(cfg);
  MessageBuilder msg;
  msg.add(ORCA_REQ_TELEMETRY_SNAPSHOT, 8);
  ASSERT_EQ(rt.collector_api(msg.buffer()), 0);
  EXPECT_EQ(msg.errcode(0), OMP_ERRCODE_MEM_TOO_SMALL);
}

TEST_F(TelemetryTest, RuntimeShutdownEmitsTraceAndReport) {
  const std::string trace = ::testing::TempDir() + "orca_shutdown_trace.json";
  const std::string report = ::testing::TempDir() + "orca_shutdown_report.txt";
  {
    RuntimeConfig cfg;
    cfg.num_threads = 2;
    cfg.telemetry_timeline = true;
    cfg.telemetry_metrics = true;
    cfg.telemetry_trace = trace;
    cfg.telemetry_report = report;
    Runtime rt(cfg);
    Runtime::make_current(&rt);
    rt.fork(&noop_microtask, nullptr, 2);
    rt.quiesce();
    Runtime::make_current(nullptr);
  }
  EXPECT_FALSE(tel::timeline_armed()) << "runtime dtor must disarm";
  ASSERT_TRUE(file_exists(trace));
  ASSERT_TRUE(file_exists(report));
  const std::string json = slurp(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("master"), std::string::npos);
  EXPECT_NE(slurp(report).find("ORCA telemetry report"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

}  // namespace
