/// `perfbench monitor --prefix=P --trace=F --report=R [--split]`: the
/// orcamon side of epcc_fleet. Prints "attached" once the producer's
/// segment is attached, then one "result k=v ..." line once the monitor
/// has drained the segment and written the merged trace and final report.
///
/// With --split the merged trace and the report rendering are timed on
/// their own after run() returns (the traced run's orcamon split);
/// otherwise run() writes both itself.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/clock.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace perfbench {

int monitor_main(int argc, char** argv) {
  orca::tool::orcamon::MonitorOptions opts;
  opts.shards = 1;
  opts.poll_ms = 1;
  opts.discover_ms = 5;
  opts.report_interval_s = 0;
  opts.exit_when_idle = true;
  opts.duration_s = 120;  // a producer that never appears cannot hang us
  std::string trace;
  bool split = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--prefix=")) {
      opts.prefix = v;
    } else if (const char* t = value("--trace=")) {
      trace = t;
    } else if (const char* r = value("--report=")) {
      opts.report_out = r;
    } else if (arg == "--split") {
      split = true;
    } else {
      std::fprintf(stderr, "perfbench monitor: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!split) opts.trace_out = trace;

  orca::tool::orcamon::FleetMonitor monitor(opts);
  std::atomic<bool> finished{false};
  std::thread announce([&] {
    while (!finished.load()) {
      if (monitor.attached_count() > 0) {
        std::puts("attached");
        std::fflush(stdout);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::size_t producers = monitor.run();
  const std::uint64_t done_ns = orca::SteadyClock::now();
  finished.store(true);
  announce.join();

  double trace_write_s = 0;
  double render_ms = 0;
  if (split) {
    std::uint64_t t = orca::SteadyClock::now();
    if (!monitor.write_trace(trace)) {
      std::fprintf(stderr, "perfbench monitor: cannot write %s\n",
                   trace.c_str());
      return 1;
    }
    trace_write_s = static_cast<double>(orca::SteadyClock::now() - t) * 1e-9;
    t = orca::SteadyClock::now();
    const std::string report = monitor.render_report();
    render_ms = static_cast<double>(orca::SteadyClock::now() - t) * 1e-6;
    if (report.empty()) return 1;
  }

  std::uint64_t produced = 0;
  std::uint64_t read = 0;
  std::uint64_t lost = 0;
  for (const orca::tool::orcamon::ProducerInfo& p : monitor.producers()) {
    produced += p.produced;
    read += p.read;
    lost += p.lost;
  }
  std::printf(
      "result done_ns=%llu producers=%zu produced=%llu read=%llu lost=%llu "
      "events_seen=%llu quarantined=%zu trace_write_s=%s "
      "report_render_ms=%s\n",
      static_cast<unsigned long long>(done_ns), producers,
      static_cast<unsigned long long>(produced),
      static_cast<unsigned long long>(read),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(monitor.events_seen()),
      monitor.quarantines().size(), num(trace_write_s).c_str(),
      num(render_ms).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
