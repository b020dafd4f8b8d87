/// \file bench.hpp
/// Shared declarations of the repo benchmark's measuring binary.
///
/// The binary measures; `perfbench/run.py` builds it, runs it, checks its
/// books and turns its raw records into metrics. Everything here times
/// calls into the ORCA layers' public functions from outside.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace orca::rt {
class Runtime;
struct RuntimeConfig;
}  // namespace orca::rt

namespace perfbench {

/// Command line of one measuring run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;   ///< run directory for trace/report/span files
  std::string self_exe;  ///< this binary, for the orcamon child process
  std::string shm_prefix;
};

/// Which arm a pass runs.
enum class Arm { kBare, kProfiled, kTraced };

const char* arm_name(Arm arm);

/// Raw outcome of one pass: a fresh runtime, set up, the workload's work,
/// the flush and the report. run.py derives every metric from these.
struct PassRecord {
  Arm arm = Arm::kBare;
  int round = 0;
  double setup_s = 0;
  double work_s = 0;            ///< NPB kernel wall time (0 on EPCC-only)
  std::uint64_t regions = 0;    ///< NPB region calls (per rank on MZ)
  std::uint64_t target = 0;     ///< scaled Table I/II target
  std::uint64_t total_regions = 0;  ///< summed over ranks
  double checksum = 0;
  std::map<std::string, std::vector<double>> epcc_us;  ///< overhead/call
  std::vector<double> parallel_call_us;  ///< PARALLEL per-call time
  std::uint64_t epcc_regions = 0;        ///< regions the EPCC trio ran
  std::uint64_t epcc_expected = 0;       ///< regions it should have run
  double flush_s = 0;
  double ready_s = 0;           ///< pass end -> final report written
  std::map<std::string, std::uint64_t> books;  ///< loss books and counts
  std::map<std::string, double> extra;         ///< per-layer timings
};

/// One measured per-layer hop: a name and its value.
using HopTable = std::map<std::string, double>;

/// Host fingerprint and effective configuration of a run.
struct Fingerprint {
  std::string barrier;
  std::string delivery;
  std::string build_type;
  std::string git_sha;
};

// --- workloads.cpp ---------------------------------------------------------

/// Team size of the workload's parallel regions.
int team_size(const std::string& workload);

/// A runtime bound to the calling thread, its worker pool already up.
std::unique_ptr<orca::rt::Runtime> make_runtime(orca::rt::RuntimeConfig cfg);

/// Run one pass of `args.workload`.
PassRecord run_pass(const Args& args, Arm arm, int round);

/// Effective barrier/delivery of the workload's runtime configuration.
Fingerprint fingerprint(const std::string& workload);

// --- hops.cpp ----------------------------------------------------------------

/// Time each layer's public hop in isolation with the workload's record
/// shape (team size, JOIN callstack depth). Traced runs only.
HopTable measure_hops(const Args& args, std::size_t join_depth);

// --- monitor.cpp -------------------------------------------------------------

/// `perfbench monitor ...`: the orcamon side of epcc_fleet, run as a child
/// process because FleetMonitor skips segments its own pid owns.
int monitor_main(int argc, char** argv);

// --- small helpers -------------------------------------------------------------

/// Shortest round-trip text for a double.
std::string num(double v);

/// JSON string literal.
std::string quote(const std::string& s);

}  // namespace perfbench
