/// The offline phase as a standalone program (paper Sec. IV:
/// "Reconstructing the callstack to provide a user view of the program is
/// done offline after the application finishes").
///
///   offline_analyze <trace.orcatrc>   analyze an existing trace
///   offline_analyze                   record a demo trace, then analyze it
///
/// The online phase spills raw samples + join callstacks into the ORCA
/// binary trace; this program reloads the trace, aggregates event counts
/// and fork→join intervals, reconstructs user-model callstacks, and prints
/// the profile — no live runtime required for the analysis itself.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "collector/names.hpp"
#include "common/strutil.hpp"
#include "perf/counter.hpp"
#include "perf/trace.hpp"
#include "tool/collector_tool.hpp"
#include "translate/omp.hpp"
#include "unwind/user_model.hpp"

namespace {

/// Record a small demo run so the example is self-contained.
bool record_demo_trace(const std::string& path) {
  orca::tool::ToolOptions opts;
  opts.use_region_fn_extension = true;
  auto& tool = orca::tool::PrototypeCollector::instance();
  if (!tool.attach(opts)) return false;

  static double field[4096];
  for (int step = 0; step < 30; ++step) {
    orca::omp::parallel_for(1, 4094, [](long long i) {
      field[i] = 0.5 * field[i] + 0.25 * (field[i - 1] + field[i + 1]) + 1.0;
    });
    (void)orca::omp::parallel_reduce(
        0, 4095, 0.0, [](double a, double b) { return a + b; },
        [](long long i) { return field[i]; });
  }
  tool.detach();
  return orca::perf::write_trace(path, tool.trace_data());
}

void analyze(const std::string& path) {
  orca::perf::TraceData data;
  if (!orca::perf::read_trace(path, &data)) {
    std::fprintf(stderr, "cannot read trace: %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("trace: %s\n  %zu event samples, %zu join callstacks\n\n",
              path.c_str(), data.samples.size(), data.callstacks.size());

  const orca::tool::Report report =
      orca::tool::analyze_samples(data.samples, orca::perf::HwTimeCounter());
  orca::TextTable events({"event", "count"});
  for (const auto& [event, count] : report.event_counts) {
    events.add_row({std::string(orca::collector::to_string(
                        static_cast<OMP_COLLECTORAPI_EVENT>(event))),
                    orca::strfmt("%llu", static_cast<unsigned long long>(count))});
  }
  std::printf("event counts:\n%s\n", events.render().c_str());

  // Fork->join intervals on the master thread.
  double total = 0;
  std::uint64_t regions = 0;
  for (const auto& r : report.regions) {
    total += r.total_seconds;
    regions += r.invocations;
  }
  std::printf("parallel regions: %llu, total fork->join time: %.6fs\n",
              static_cast<unsigned long long>(regions), total);
  if (report.unpaired_joins != 0) {
    std::printf("unpaired joins: %llu (no open fork on their thread)\n",
                static_cast<unsigned long long>(report.unpaired_joins));
  }

  // User-model callstack profile, each distinct stack reconstructed once.
  orca::unwind::ProfileBuilder profile;
  for (const auto& rec : data.callstacks) {
    profile.add(rec.region_fn, rec.frames);
  }
  std::printf("\nuser-model callstack profile:\n");
  for (const auto& entry : profile.build()) {
    std::printf("%llu samples at:\n%s",
                static_cast<unsigned long long>(entry.samples),
                entry.rendered.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "/tmp/orca_demo.orcatrc";
    std::printf("no trace given; recording a demo run first...\n\n");
    if (!record_demo_trace(path)) {
      std::fprintf(stderr, "failed to record the demo trace\n");
      return 1;
    }
  }
  analyze(path);
  return 0;
}
