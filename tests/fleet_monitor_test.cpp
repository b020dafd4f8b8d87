/// Fleet-session integration tests (ctest label: fleet). The acceptance
/// scenario from docs/FLEET.md: orcamon attaches to three instrumented
/// processes, one is SIGKILLed mid-run, and the daemon still produces a
/// merged Perfetto trace with all three process tracks, a fleet report
/// with honest per-producer loss books, and a salvaged crash section for
/// the killed producer — while the two survivors detach cleanly under
/// load. Also the doorbell: a finalize wakes run() before its discover
/// tick, and racing finalizes never strand a producer's phase.
#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "common/clock.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "shm/reader.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::orcamon::FleetEvent;
using orca::tool::orcamon::FleetMonitor;
using orca::tool::orcamon::MonitorOptions;
using orca::tool::orcamon::ProducerInfo;
using orca::tool::orcamon::write_fleet_trace;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void burn_region(int, void*) {
  volatile double x = 0;
  for (int i = 0; i < 2000; ++i) x = x + i;
}

/// The test process, parent of every forked producer.
const pid_t kTestPid = ::getpid();

/// First call in a forked producer: die with the test process. A test
/// that crashes (or is killed) then takes its producers along at once,
/// instead of leaving one, SIGSTOPped say, holding ctest's output pipe
/// until the suite timeout. The getppid() check covers a parent that died
/// before the prctl.
void die_with_parent() {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != kTestPid) _exit(1);
}

/// Child body: export through shm and run parallel regions until the stop
/// file appears (or a failsafe cap runs out). Clean children delete the
/// runtime (finalized segment); the victim never gets that far.
[[noreturn]] void producer_child(const std::string& prefix,
                                 const std::string& stop_file) {
  die_with_parent();
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.max_threads = 4;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = 1024;
  cfg.shm_heartbeat_ms = 10;
  auto* rt = new Runtime(cfg);
  Runtime::make_current(rt);
  if (!orca::shm::export_armed()) _exit(10);

  // 60s failsafe so a parent bug can never hang the suite.
  for (int i = 0; i < 60000; ++i) {
    rt->fork(&burn_region, nullptr, 2);
    if (::access(stop_file.c_str(), F_OK) == 0) break;
    ::usleep(1000);
  }
  delete rt;  // clean shutdown: finalize + unlink the segment
  _exit(0);
}

TEST(FleetMonitor, ThreeProducersOneKilledMidRun) {
  const std::string prefix =
      "orcafleet-" + std::to_string(::getpid());
  const std::string stop_file =
      "fleet_monitor_stop." + std::to_string(::getpid());
  const std::string trace_file =
      "fleet_monitor_trace." + std::to_string(::getpid()) + ".json";
  std::remove(stop_file.c_str());
  std::remove(trace_file.c_str());

  // Fork the fleet before this process grows any threads.
  std::vector<pid_t> kids;
  for (int i = 0; i < 3; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) producer_child(prefix, stop_file);
    kids.push_back(pid);
  }
  const pid_t victim = kids[2];

  MonitorOptions opts;
  opts.prefix = prefix;
  opts.shards = 3;
  opts.poll_ms = 1;
  opts.discover_ms = 20;
  opts.report_interval_s = 0;
  opts.trace_out = trace_file;
  opts.report_out = "fleet_monitor_report." + std::to_string(::getpid());
  opts.exit_when_idle = true;
  opts.liveness_grace = 4;
  FleetMonitor monitor(opts);
  std::thread runner([&] { monitor.run(); });

  // Wait until all three producers attached and real work flowed through
  // the merged pipeline, then kill one mid-run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((monitor.attached_count() < 3 || monitor.events_seen() < 200) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(monitor.attached_count(), 3u);
  ASSERT_GE(monitor.events_seen(), 200u);

  // The salvage checks below need the victim's first heartbeat snapshot;
  // on one core the victim can get here before its heartbeat has run.
  bool victim_has_snapshot = false;
  while (!victim_has_snapshot &&
         std::chrono::steady_clock::now() < deadline) {
    for (const orca::shm::SegmentName& seg :
         orca::shm::discover_segments(prefix)) {
      if (seg.pid != static_cast<std::int64_t>(victim)) continue;
      const auto reader = orca::shm::SegmentReader::attach(seg.name);
      victim_has_snapshot = reader != nullptr &&
                            reader->salvage_crash().kind ==
                                orca::shm::kCrashSnapshot;
    }
    if (!victim_has_snapshot) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(victim_has_snapshot);

  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Tell the survivors to finish cleanly (detach under load).
  { std::ofstream(stop_file) << "stop\n"; }

  int status = 0;
  ASSERT_EQ(::waitpid(kids[0], &status, 0), kids[0]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(::waitpid(kids[1], &status, 0), kids[1]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // exit_when_idle: the monitor winds down once every producer finalized
  // or died and their rings are drained.
  runner.join();

  const std::vector<ProducerInfo> fleet = monitor.producers();
  ASSERT_EQ(fleet.size(), 3u);
  int dead = 0, finalized = 0;
  for (const ProducerInfo& p : fleet) {
    EXPECT_TRUE(p.drained) << "pid " << p.pid;
    // Honest loss books: once drained, every produced record is either
    // read or accounted as lost — for the SIGKILLed producer too.
    EXPECT_EQ(p.produced, p.read + p.lost) << "pid " << p.pid;
    EXPECT_GT(p.read, 0u) << "pid " << p.pid;
    if (p.dead) {
      ++dead;
      EXPECT_EQ(p.pid, static_cast<std::int64_t>(victim));
      // Salvaged crash section: the heartbeat's rolling snapshot survives
      // SIGKILL, where no in-process handler can run.
      EXPECT_EQ(p.salvage.kind, orca::shm::kCrashSnapshot);
      EXPECT_NE(p.salvage.text.find("events_published"), std::string::npos);
      EXPECT_NE(p.salvage.text.find("beats"), std::string::npos);
    } else {
      EXPECT_TRUE(p.finalized) << "pid " << p.pid;
      ++finalized;
    }
  }
  EXPECT_EQ(dead, 1);
  EXPECT_EQ(finalized, 2);

  // The dead producer's segment was reaped; the fleet stayed clean.
  EXPECT_TRUE(orca::shm::discover_segments(prefix).empty());

  // Merged Perfetto trace: every process track present.
  std::ifstream in(trace_file);
  ASSERT_TRUE(in.good()) << "no trace at " << trace_file;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("parallel region"), std::string::npos);
  for (const pid_t pid : kids) {
    EXPECT_NE(trace.find("\"pid\":" + std::to_string(pid)),
              std::string::npos)
        << "trace lost process " << pid;
  }

  // Fleet report: totals, states, and the crash section called out.
  const std::string report = monitor.render_report();
  EXPECT_NE(report.find("3 producer(s)"), std::string::npos);
  EXPECT_NE(report.find("1 dead"), std::string::npos);
  EXPECT_NE(report.find("crash section (snapshot"), std::string::npos);
  EXPECT_NE(report.find("parallel-region durations"), std::string::npos);

  std::remove(stop_file.c_str());
  std::remove(trace_file.c_str());
  std::remove(opts.report_out.c_str());
}

/// A forked producer that arms a small segment directly, publishes
/// `events` records on each of two rings, then waits on `go` to publish as
/// many again and finalize (disarm). Forked before any monitor thread.
struct FinalizingProducer {
  pid_t pid = -1;
  int go_fd = -1;

  static FinalizingProducer spawn(const std::string& prefix, int events) {
    int fds[2];
    if (::pipe(fds) != 0) return {};
    const pid_t pid = fork();
    if (pid == 0) {
      die_with_parent();
      ::close(fds[1]);
      orca::shm::ExporterOptions opts;
      opts.name = orca::shm::default_segment_name(prefix);
      opts.ring_count = 4;
      opts.event_capacity = 256;
      opts.sample_capacity = 16;
      opts.heartbeat_ms = 10;
      if (!orca::shm::arm(opts)) _exit(10);
      const auto publish = [events] {
        for (int i = 0; i < events; ++i) {
          orca::shm::mirror_event(0, OMP_EVENT_FORK);
          orca::shm::mirror_event(1, OMP_EVENT_THR_BEGIN_IDLE);
        }
      };
      publish();
      char go = 0;
      if (::read(fds[0], &go, 1) != 1) _exit(11);
      publish();
      orca::shm::disarm();  // finalize + unlink
      _exit(0);
    }
    ::close(fds[0]);
    if (pid < 0) {
      ::close(fds[1]);
      return {};
    }
    return {pid, fds[1]};
  }

  /// Lets the producer finalize, then reaps it; its exit code.
  int finalize_and_reap() {
    (void)!::write(go_fd, "g", 1);
    ::close(go_fd);
    int status = 0;
    (void)::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }
};

MonitorOptions doorbell_options(const std::string& prefix) {
  MonitorOptions opts;
  opts.prefix = prefix;
  opts.shards = 2;
  opts.poll_ms = 1;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  opts.exit_when_idle = true;
  opts.duration_s = 30;  // failsafe: idle-exit is the expected path
  return opts;
}

/// Waits until the producer's segment exists, so the monitor attaches it
/// on its first discovery pass.
bool segment_appears(const std::string& prefix) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (orca::shm::discover_segments(prefix).empty()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool attached_within_10s(const FleetMonitor& monitor) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (monitor.attached_count() == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A finalize wakes run() through the doorbell: the shard that sees it
// moves the producer to draining, the shard that closes its books rings
// the bell, and run() returns long before its 2 s discover tick.
TEST(FleetMonitor, FinalizeWakesRunBeforeDiscoverTick) {
  const std::string prefix = "orcafleet-bell-" + std::to_string(::getpid());
  constexpr int kEvents = 100;
  FinalizingProducer producer = FinalizingProducer::spawn(prefix, kEvents);
  ASSERT_GT(producer.pid, 0);
  ASSERT_TRUE(segment_appears(prefix));

  MonitorOptions opts = doorbell_options(prefix);
  opts.discover_ms = 2000;
  FleetMonitor monitor(opts);
  std::atomic<std::uint64_t> returned_ns{0};
  std::thread runner([&] {
    monitor.run();
    returned_ns.store(orca::SteadyClock::now());
  });
  ASSERT_TRUE(attached_within_10s(monitor));
  const std::uint64_t finalize_ns = orca::SteadyClock::now();
  EXPECT_EQ(producer.finalize_and_reap(), 0);
  runner.join();

  EXPECT_LT(returned_ns.load() - finalize_ns, 1'000'000'000u)
      << "run() waited for its discover tick";
  const std::vector<ProducerInfo> fleet = monitor.producers();
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_TRUE(fleet[0].finalized);
  EXPECT_TRUE(fleet[0].drained);
  EXPECT_EQ(fleet[0].produced, 4u * kEvents);
  EXPECT_EQ(fleet[0].read, 4u * kEvents);
  EXPECT_EQ(fleet[0].lost, 0u);
  EXPECT_EQ(monitor.events_seen(), 4u * kEvents);
}

// Many finalizes with run() polling every millisecond, so its liveness
// pass races the shards that move the producer to draining and close its
// books. The phase only moves forward: every session reaches kDone and
// exits.
TEST(FleetMonitor, FinalizeRacesNeverStrandThePhase) {
  constexpr int kSessions = 25;
  constexpr int kEvents = 20;
  for (int s = 0; s < kSessions; ++s) {
    const std::string prefix = "orcafleet-race-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(s);
    FinalizingProducer producer = FinalizingProducer::spawn(prefix, kEvents);
    ASSERT_GT(producer.pid, 0);
    ASSERT_TRUE(segment_appears(prefix));

    MonitorOptions opts = doorbell_options(prefix);
    opts.discover_ms = 1;
    FleetMonitor monitor(opts);
    const auto start = std::chrono::steady_clock::now();
    std::thread runner([&] { monitor.run(); });
    ASSERT_TRUE(attached_within_10s(monitor));
    EXPECT_EQ(producer.finalize_and_reap(), 0);
    runner.join();

    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10))
        << "session " << s << " ran to its failsafe";
    const std::vector<ProducerInfo> fleet = monitor.producers();
    ASSERT_EQ(fleet.size(), 1u);
    EXPECT_TRUE(fleet[0].drained) << "session " << s;
    EXPECT_EQ(fleet[0].produced, fleet[0].read + fleet[0].lost)
        << "session " << s;
    EXPECT_EQ(fleet[0].read, 4u * kEvents) << "session " << s;
  }
}

// Fixed producers and events, exact output: pins the fleet trace's
// tracks, region spans, instant names and escaping.
TEST(FleetTrace, GoldenOutput) {
  std::vector<ProducerInfo> producers(2);
  producers[0].pid = 41;
  producers[0].label = "np \"a\"";
  producers[1].pid = 42;
  producers[1].label = "np-b";
  producers[1].dead = true;
  const auto ev = [](std::int64_t pid, std::uint64_t ns, std::int32_t tid,
                     std::int32_t code, std::uint64_t arg, bool sample) {
    FleetEvent e;
    e.pid = pid;
    e.ns = ns;
    e.tid = tid;
    e.code = code;
    e.arg = arg;
    e.sample = sample;
    return e;
  };
  const std::vector<FleetEvent> events = {
      ev(41, 10'000, 0, OMP_EVENT_FORK, 0, false),
      ev(42, 10'500, 1, THR_WORK_STATE, 7, true),
      ev(41, 12'345, 0, OMP_EVENT_JOIN, 2'345, false),
      ev(42, 13'000, 0, OMP_EVENT_JOIN, 0, false),
      ev(42, 14'001, 3, 9999, 0, false),
  };
  const std::string path = ::testing::TempDir() + "orca_fleet_golden.json";
  ASSERT_TRUE(write_fleet_trace(path, producers, events));
  const std::string expected = R"json({"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":41,"tid":0,"name":"process_name","args":{"name":"np \"a\" (pid 41)"}},
{"ph":"M","pid":42,"tid":0,"name":"process_name","args":{"name":"np-b (pid 42, died)"}},
{"ph":"M","pid":41,"tid":0,"name":"thread_name","args":{"name":"master"}},
{"ph":"M","pid":42,"tid":0,"name":"thread_name","args":{"name":"master"}},
{"ph":"M","pid":42,"tid":1,"name":"thread_name","args":{"name":"worker"}},
{"ph":"M","pid":42,"tid":3,"name":"thread_name","args":{"name":"worker"}},
{"ph":"i","pid":41,"tid":0,"name":"FORK","cat":"event","ts":0.000,"s":"t"},
{"ph":"i","pid":42,"tid":1,"name":"THR_WORK_STATE","cat":"sample","ts":0.500,"s":"t"},
{"ph":"X","pid":41,"tid":0,"name":"parallel region","cat":"region","ts":0.000,"dur":2.345},
{"ph":"i","pid":42,"tid":0,"name":"JOIN","cat":"event","ts":3.000,"s":"t"},
{"ph":"i","pid":42,"tid":3,"name":"event-9999","cat":"event","ts":4.001,"s":"t"}
]}
)json";
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

// The monitor's trace path reports I/O failure, and an empty fleet still
// writes a complete document.
TEST(FleetTrace, WriteFailuresReturnFalseAndEmptyTraceIsComplete) {
  MonitorOptions opts;
  opts.prefix = "orcafleet-none-" + std::to_string(::getpid());
  FleetMonitor monitor(opts);
  const std::string path = ::testing::TempDir() + "orca_fleet_empty.json";
  ASSERT_TRUE(monitor.write_trace(path));
  EXPECT_EQ(slurp(path),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
  std::remove(path.c_str());

  EXPECT_FALSE(monitor.write_trace(::testing::TempDir() +
                                   "no-such-dir/fleet.json"));
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(monitor.write_trace("/dev/full"));
  std::vector<FleetEvent> events(2000);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].pid = 7;
    events[i].ns = 1000 + i;
    events[i].code = OMP_EVENT_FORK;
  }
  EXPECT_FALSE(write_fleet_trace("/dev/full", {}, events));
}

TEST(FleetMonitor, EmptyFleetHonoursDuration) {
  MonitorOptions opts;
  opts.prefix = "orcafleet-none-" + std::to_string(::getpid());
  opts.duration_s = 0.2;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  FleetMonitor monitor(opts);
  EXPECT_EQ(monitor.run(), 0u);
  EXPECT_EQ(monitor.events_seen(), 0u);
}

}  // namespace
