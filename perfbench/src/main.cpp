/// perfbench: the measuring half of the repo benchmark.
///
///   perfbench --workload=W --seed=N --seconds=S --trace=0|1 --out=DIR
///
/// Runs rounds of passes until S seconds are spent; each round runs one
/// pass per arm (bare, profiled, and with --trace=1 traced) in an order
/// drawn from the seed. Prints one JSON object of raw records on stdout;
/// perfbench/run.py checks the books and derives the metrics. With
/// --trace=1 it also times every per-layer hop and writes the spans to
/// DIR/spans.bin.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "spans.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// RuntimeConfig's default member initializers read ORCA_* variables, and
/// the runtime honours OMP_*: a run must not inherit either.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("ORCA_", 0) == 0 || entry.rfind("OMP_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = value;
    } else if (key == "seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      a->trace = value == "1";
    } else if (key == "out") {
      a->out_dir = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out_dir.empty() && a->seconds > 0;
}

std::string pass_json(const PassRecord& p) {
  std::string s = "{\"arm\":" + quote(arm_name(p.arm)) +
                  ",\"round\":" + std::to_string(p.round) +
                  ",\"setup_s\":" + num(p.setup_s) +
                  ",\"work_s\":" + num(p.work_s) +
                  ",\"regions\":" + std::to_string(p.regions) +
                  ",\"total_regions\":" + std::to_string(p.total_regions) +
                  ",\"target\":" + std::to_string(p.target) +
                  ",\"checksum\":" + num(p.checksum) +
                  ",\"epcc_regions\":" + std::to_string(p.epcc_regions) +
                  ",\"epcc_expected\":" + std::to_string(p.epcc_expected) +
                  ",\"flush_s\":" + num(p.flush_s) +
                  ",\"ready_s\":" + num(p.ready_s) + ",\"parallel_call_us\":[";
  for (std::size_t i = 0; i < p.parallel_call_us.size(); ++i) {
    s += (i ? "," : "") + num(p.parallel_call_us[i]);
  }
  s += "],\"epcc_us\":{";
  bool first = true;
  for (const auto& [name, samples] : p.epcc_us) {
    s += (first ? "" : ",") + quote(name) + ":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      s += (i ? "," : "") + num(samples[i]);
    }
    s += "]";
    first = false;
  }
  s += "},\"books\":{";
  first = true;
  for (const auto& [name, value] : p.books) {
    s += (first ? "" : ",") + quote(name) + ":" + std::to_string(value);
    first = false;
  }
  s += "},\"extra\":{";
  first = true;
  for (const auto& [name, value] : p.extra) {
    s += (first ? "" : ",") + quote(name) + ":" + num(value);
    first = false;
  }
  return s + "}}";
}

/// Mean JOIN callstack depth over the profiled passes (0 = none recorded).
std::size_t join_depth(const std::vector<PassRecord>& passes) {
  std::uint64_t frames = 0;
  std::uint64_t stacks = 0;
  for (const PassRecord& p : passes) {
    if (p.arm != Arm::kProfiled) continue;
    const auto f = p.books.find("join_frames");
    const auto n = p.books.find("join_callstacks");
    if (f != p.books.end() && n != p.books.end()) {
      frames += f->second;
      stacks += n->second;
    }
  }
  return stacks == 0 ? 0 : static_cast<std::size_t>(frames / stacks);
}

int run(const Args& a) {
  // Traced runs keep a quarter of the time for the per-layer hops.
  const double pass_budget = a.trace ? 0.75 * a.seconds : a.seconds;
  constexpr int kMinRounds = 3;
  // Spans of this many traced passes are plenty for the per-layer split
  // and keep the span file small.
  constexpr int kTracedRounds = 8;

  spans::enable(a.trace);
  spans::Scope workload(spans::kWorkload, 0);
  spans::set_current_pass(workload.id());
  spans::enable(false);

  std::vector<PassRecord> passes;
  const std::uint64_t start = spans::now_ns();
  for (int round = 0;; ++round) {
    const double elapsed = static_cast<double>(spans::now_ns() - start) * 1e-9;
    if (round >= kMinRounds && elapsed >= pass_budget) break;
    // Seeded interleaving of the arms within the round.
    orca::SplitMix64 rng(orca::SplitMix64::at(a.seed, 1000 + round));
    std::vector<Arm> order = {Arm::kBare, Arm::kProfiled};
    if (a.trace && round < kTracedRounds) order.push_back(Arm::kTraced);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next() % (i + 1)]);
    }
    for (const Arm arm : order) passes.push_back(run_pass(a, arm, round));
  }

  HopTable hops;
  if (a.trace) hops = measure_hops(a, join_depth(passes));
  spans::enable(a.trace);  // the workload span closes below, then write

  const Fingerprint f = fingerprint(a.workload);
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);

  std::string out = "{\"workload\":" + quote(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + (a.trace ? "true" : "false") +
                    ",\"barrier\":" + quote(f.barrier) +
                    ",\"delivery\":" + quote(f.delivery) +
                    ",\"build_type\":" + quote(f.build_type) +
                    ",\"git_sha\":" + quote(f.git_sha) +
                    ",\"max_rss_kb\":" + std::to_string(self.ru_maxrss) +
                    ",\"child_max_rss_kb\":" +
                    std::to_string(children.ru_maxrss) + ",\"hops\":{";
  bool first = true;
  for (const auto& [name, value] : hops) {
    out += (first ? "" : ",") + quote(name) + ":" + num(value);
    first = false;
  }
  out += "},\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    out += (i ? "," : "") + pass_json(passes[i]);
  }
  out += "]}";
  std::puts(out.c_str());
  return 0;
}

}  // namespace

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::scrub_environment();
  if (argc > 1 && std::strcmp(argv[1], "monitor") == 0) {
    return perfbench::monitor_main(argc, argv);
  }
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --out=DIR\n");
    return 2;
  }
  args.self_exe = argv[0];
  // Per-run shm prefix: this run's orcamon never discovers another
  // process's segments, nor they ours.
  args.shm_prefix = "perfbench" + std::to_string(::getpid()) + "s" +
                    std::to_string(args.seed);
  try {
    const int rc = perfbench::run(args);
    if (args.trace && !perfbench::spans::write(args.out_dir + "/spans.bin")) {
      std::fprintf(stderr, "perfbench: cannot write spans\n");
      return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
