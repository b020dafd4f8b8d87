/// The four workloads of the repo benchmark. Every pass builds a fresh
/// runtime (set-up), runs the workload's work in one arm, then flushes
/// the collected data and writes the final report:
///
///   lu_hp      NPB LU-HP analog, team of 4, PrototypeCollector (sync):
///              the most region calls of Table I; the runtime dominates.
///   sp_mz      SP-MZ analog over MiniMPI, 2 ranks x 2 threads, per-rank
///              collectors feeding one shared sample store: collection
///              dominates, and both rank masters write sample slot 0.
///   epcc_async EPCC PARALLEL/BARRIER/REDUCTION on a team of 2, async
///              delivery (default ring, block) into the TracingCollector.
///   epcc_fleet the same directives and team with shm export armed and
///              orcamon draining the segment from a child process.
///
/// The NPB workloads also time the EPCC trio on their own team and
/// collector, so every workload reports every end-to-end metric.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/buildinfo.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "epcc/syncbench.hpp"
#include "npb/kernels.hpp"
#include "npb/multizone.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "tool/client2.hpp"
#include "tool/collector_tool.hpp"
#include "tool/tracer.hpp"

extern char** environ;

namespace perfbench {
namespace {

using orca::collector::Client;
using orca::epcc::Directive;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::PrototypeCollector;
using orca::tool::TracingCollector;

enum class Kind { kLuHp, kSpMz, kEpccAsync, kEpccFleet };

// Work per pass. Passes are short and many: on a shared 4-vCPU Xeon VM the
// noise is per pass, so a run's median over dozens of short passes is far
// steadier than over a few long ones (LU-HP at 0.01 scale spread 15-40 %
// run to run in report_ready_s, at 0.0025 under 10 %). Every pass of a
// workload does the same work, since flush and report times scale with the
// records a pass made.
constexpr int kLuTeam = 4;
constexpr double kLuScale = 0.0025;  // 747 LU-HP region calls
constexpr int kMzProcs = 2;
constexpr int kMzThreads = 2;
constexpr double kMzScale = 0.005;   // 1091 SP-MZ region calls per rank
constexpr int kEpccTeam = 2;
constexpr int kEpccInner = 128;      // constructs per EPCC sample
constexpr int kEpccDelay = 100;      // EPCC delay-loop length
constexpr int kEpccRepsNpb = 2;      // trio samples per NPB pass
constexpr int kEpccRepsEpcc = 6;     // trio samples per EPCC pass

constexpr std::array<OMP_COLLECTORAPI_EVENT, 4> kPaperEvents = {
    OMP_EVENT_FORK, OMP_EVENT_JOIN, OMP_EVENT_THR_BEGIN_IBAR,
    OMP_EVENT_THR_END_IBAR};

/// Fatal benchmark error. Thrown, not exit()ed, so the orcamon child and
/// the runtimes are torn down on the way out to main().
[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error(what);
}

Kind kind_of(const std::string& workload) {
  if (workload == "lu_hp") return Kind::kLuHp;
  if (workload == "sp_mz") return Kind::kSpMz;
  if (workload == "epcc_async") return Kind::kEpccAsync;
  if (workload == "epcc_fleet") return Kind::kEpccFleet;
  die("unknown workload " + workload);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(spans::now_ns() - start_ns) * 1e-9;
}

void empty_region(int, void*) {}

// --- traced PrototypeCollector callback ------------------------------------

// The region a master thread is inside (0 = none) and when it opened.
thread_local std::uint64_t tl_region = 0;
thread_local std::uint64_t tl_region_start = 0;

/// Wraps PrototypeCollector::raw_callback(): one tool.callback span per
/// call, and the region span from the FORK callback's start to the JOIN
/// callback's end on the master.
void traced_callback(OMP_COLLECTORAPI_EVENT event) {
  const std::uint64_t start = spans::now_ns();
  if (event == OMP_EVENT_FORK) {
    tl_region = spans::new_id();
    tl_region_start = start;
  }
  PrototypeCollector::raw_callback()(event);
  const std::uint64_t end = spans::now_ns();
  const std::uint64_t region = tl_region;
  const std::uint64_t pass = spans::current_pass();
  spans::record({spans::new_id(), region != 0 ? region : pass, start, end,
                 static_cast<std::int32_t>(event), spans::kCallback, 0});
  if (event == OMP_EVENT_JOIN && region != 0) {
    spans::record({region, pass, tl_region_start, end, 0, spans::kRegion, 0});
    tl_region = 0;
  }
}

/// START the calling thread's runtime and register the tool's callback
/// (or the traced wrapper) for the paper's events — what
/// PrototypeCollector::attach does, with the callback made swappable.
void attach_prototype(bool traced) {
  std::optional<Client> client = Client::discover();
  if (!client || client->start() != OMP_ERRCODE_OK) die("collector START failed");
  const OMP_COLLECTORAPI_CALLBACK cb =
      traced ? &traced_callback : PrototypeCollector::raw_callback();
  for (const OMP_COLLECTORAPI_EVENT event : kPaperEvents) {
    if (client->register_event(event, cb) != OMP_ERRCODE_OK) {
      die("collector register failed");
    }
  }
}

void stop_current_collector() {
  std::optional<Client> client = Client::discover();
  if (!client || client->stop() != OMP_ERRCODE_OK) die("collector STOP failed");
}

}  // namespace

// --- fresh runtime per pass ----------------------------------------------------

std::unique_ptr<Runtime> make_runtime(RuntimeConfig cfg) {
  auto rt = std::make_unique<Runtime>(std::move(cfg));
  Runtime::make_current(rt.get());
  rt->fork(&empty_region, nullptr, rt->config().num_threads);  // pool up
  return rt;
}

namespace {

void drop_runtime(std::unique_ptr<Runtime>& rt) {
  Runtime::make_current(nullptr);
  rt.reset();
}

// --- EPCC trio ---------------------------------------------------------------

/// PARALLEL, BARRIER and REDUCTION samples in a seed-shuffled order on the
/// calling thread's current runtime.
void run_epcc(PassRecord& p, Runtime& rt, int team, int reps,
              std::uint64_t seed) {
  orca::epcc::Options opts;
  opts.num_threads = team;
  opts.outer_reps = 1;
  opts.inner_reps = kEpccInner;
  opts.delay_length = kEpccDelay;
  orca::epcc::SyncBench bench(opts);
  std::array<Directive, 3> order = {Directive::kParallel, Directive::kBarrier,
                                    Directive::kReduction};
  orca::SplitMix64 rng(seed);
  const std::uint64_t before = rt.regions_executed();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next() % (i + 1)]);
    }
    for (const Directive d : order) {
      // Start every sample from parked workers. Back to back, a 2-thread
      // team under the centralized barrier flips between a spinning and a
      // parked regime for whole samples at a time (the 64-pause spin window
      // is shorter than a futex wake-up), which makes per-run means swing
      // by 20 %; a cold start pins the regime each sample measures.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      spans::Scope span(spans::kEpccDirective, spans::current_pass());
      const orca::epcc::Result r = bench.measure(d);
      p.epcc_us[orca::epcc::name(d)].push_back(r.overhead_us);
      if (d == Directive::kParallel) {
        p.parallel_call_us.push_back(r.overhead_us + r.reference_us);
      }
    }
  }
  p.epcc_regions = rt.regions_executed() - before;
  // PARALLEL and REDUCTION fork once per construct, BARRIER once per sample.
  p.epcc_expected = static_cast<std::uint64_t>(reps) * (2 * kEpccInner + 1);
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// --- NPB workloads (lu_hp, sp_mz) ------------------------------------------------

void npb_pass(const Args& a, Kind kind, PassRecord& p, std::uint64_t seed) {
  const bool on = p.arm != Arm::kBare;
  const bool traced = p.arm == Arm::kTraced;
  const int team = kind == Kind::kLuHp ? kLuTeam : kMzThreads;
  PrototypeCollector& tool = PrototypeCollector::instance();

  std::uint64_t t = spans::now_ns();
  std::unique_ptr<Runtime> rt;
  {
    spans::Scope span(spans::kSetup, spans::current_pass());
    RuntimeConfig cfg;
    cfg.num_threads = team;
    rt = make_runtime(cfg);
    if (on) {
      tool.configure(orca::tool::ToolOptions{});
      tool.reset();
      if (kind == Kind::kLuHp) attach_prototype(traced);
    }
  }
  p.setup_s = seconds_since(t);

  {
    spans::Scope span(spans::kNpbKernel, spans::current_pass());
    t = spans::now_ns();
    if (kind == Kind::kLuHp) {
      orca::npb::NpbOptions opts;
      opts.num_threads = team;
      opts.scale = kLuScale;
      const orca::npb::BenchResult r = orca::npb::run_lu_hp(opts);
      p.work_s = seconds_since(t);
      p.regions = p.total_regions = r.region_calls;
      p.target = orca::npb::scaled_target(298959, kLuScale);
      p.checksum = r.checksum;
    } else {
      orca::npb::MzOptions opts;
      opts.procs = kMzProcs;
      opts.threads_per_proc = kMzThreads;
      opts.scale = kMzScale;
      if (on) {
        // Like an LD_PRELOAD'ed tool inside each MPI process: every rank
        // STARTs its own runtime and feeds the one shared sample store.
        opts.rank_begin = [traced](int) { attach_prototype(traced); };
        opts.rank_end = [](int) { stop_current_collector(); };
      }
      const orca::npb::MzResult r = orca::npb::run_mz_by_name("SP-MZ", opts);
      p.work_s = seconds_since(t);
      p.regions = r.max_rank_calls;
      p.total_regions = r.total_calls;
      p.target = orca::npb::scaled_target(
          orca::npb::table2_target("SP-MZ", kMzProcs), kMzScale);
      p.checksum = r.checksum;
    }
  }
  // The EPCC trio runs on this pass's runtime under the same collector.
  if (on && kind == Kind::kSpMz) attach_prototype(traced);

  // The region split covers the NPB kernel; the trio's spans would only
  // grow the span file.
  spans::enable(false);
  run_epcc(p, *rt, team, kEpccRepsNpb, seed);
  spans::enable(traced);

  if (on) {
    t = spans::now_ns();
    orca::perf::TraceData data;
    {
      spans::Scope span(spans::kFlush, spans::current_pass());
      stop_current_collector();
      data = tool.trace_data();
    }
    p.flush_s = seconds_since(t);
    orca::tool::Report report;
    {
      spans::Scope span(spans::kReport, spans::current_pass());
      report = tool.finalize();
      if (!write_text(a.out_dir + "/report.txt", report.render())) {
        die("cannot write the profile report");
      }
    }
    p.ready_s = seconds_since(t);
    p.books["samples_attempted"] = tool.callback_invocations();
    p.books["samples_stored"] = report.total_events;
    p.books["samples_dropped"] = report.dropped_samples;
    std::uint64_t frames = 0;
    for (const orca::perf::CallstackRecord& rec : data.callstacks) {
      frames += rec.frames.size();
    }
    p.books["join_callstacks"] = data.callstacks.size();
    p.books["join_frames"] = frames;
  }
  drop_runtime(rt);
}

// --- epcc_async ----------------------------------------------------------------

void async_pass(const Args& a, PassRecord& p, std::uint64_t seed) {
  const bool on = p.arm != Arm::kBare;
  TracingCollector& tracer = TracingCollector::instance();

  std::uint64_t t = spans::now_ns();
  std::unique_ptr<Runtime> rt;
  std::uint64_t regions_at_attach = 0;
  {
    spans::Scope span(spans::kSetup, spans::current_pass());
    RuntimeConfig cfg;
    cfg.num_threads = kEpccTeam;
    cfg.event_delivery = orca::rt::EventDelivery::kAsync;
    rt = make_runtime(cfg);
    if (on && !tracer.attach()) die("TracingCollector attach failed");
    regions_at_attach = rt->regions_executed();
  }
  p.setup_s = seconds_since(t);

  run_epcc(p, *rt, kEpccTeam, kEpccRepsEpcc, seed);

  if (on) {
    std::optional<Client> client = Client::discover();
    if (!client) die("collector API not found");
    t = spans::now_ns();
    {
      // PAUSE is a flush barrier: every admitted event is delivered first.
      spans::Scope span(spans::kFlush, spans::current_pass());
      if (client->pause() != OMP_ERRCODE_OK) die("PAUSE failed");
    }
    p.flush_s = seconds_since(t);
    {
      spans::Scope span(spans::kReport, spans::current_pass());
      if (!tracer.write_chrome_trace(a.out_dir + "/async_trace.json") ||
          !write_text(a.out_dir + "/pipeline.txt", tracer.render_pipeline())) {
        die("cannot write the async trace");
      }
    }
    p.ready_s = seconds_since(t);

    const auto stats = client->event_stats();
    if (!stats) die("EVENT_STATS failed");
    p.books["submitted"] = stats->submitted;
    p.books["delivered"] = stats->delivered;
    p.books["dropped"] = stats->dropped;
    p.books["overwritten"] = stats->overwritten;
    std::uint64_t unbalanced = 0;
    for (const orca::pipeline::StageStats& s : tracer.pipeline_stats()) {
      p.books["pipeline_accepted"] += s.accepted;
      p.books["pipeline_emitted"] += s.emitted;
      p.books["pipeline_filtered"] += s.filtered;
      p.books["pipeline_dropped"] += s.dropped;
      p.books["pipeline_held"] += s.held;
      if (s.accepted != s.emitted + s.filtered + s.dropped + s.held) {
        ++unbalanced;
      }
    }
    p.books["pipeline_unbalanced_stages"] = unbalanced;
    p.books["forks_logged"] = tracer.count(OMP_EVENT_FORK);
    p.books["forks_expected"] = rt->regions_executed() - regions_at_attach;
    tracer.detach();
    tracer.clear();
  }
  drop_runtime(rt);
}

// --- epcc_fleet ------------------------------------------------------------------

/// The orcamon child process: spawned, read line by line, always reaped.
class MonitorChild {
 public:
  MonitorChild(const Args& a, bool split) {
    int fds[2];
    if (::pipe(fds) != 0) die("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {a.self_exe,
                                     "monitor",
                                     "--prefix=" + a.shm_prefix,
                                     "--trace=" + a.out_dir + "/fleet_trace.json",
                                     "--report=" + a.out_dir + "/fleet_report.txt"};
    if (split) args.emplace_back("--split");
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, a.self_exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      die("cannot spawn the orcamon child");
    }
    fd_ = fds[0];
  }

  ~MonitorChild() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait();
    }
    if (fd_ >= 0) ::close(fd_);
  }

  MonitorChild(const MonitorChild&) = delete;
  MonitorChild& operator=(const MonitorChild&) = delete;

  /// Next line that starts with `prefix`, or nullopt on EOF/timeout.
  std::optional<std::string> line_starting(const std::string& prefix,
                                           int timeout_ms) {
    const std::uint64_t deadline =
        spans::now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000;
    for (;;) {
      std::size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (line.rfind(prefix, 0) == 0) return line;
      }
      const std::uint64_t now = spans::now_ns();
      if (now >= deadline) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      const int ms = static_cast<int>((deadline - now) / 1000000) + 1;
      if (::poll(&pfd, 1, ms) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reap the child; its exit status.
  int wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buf_;
};

/// "result k=v k=v ..." -> map.
std::map<std::string, double> parse_fields(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

void fleet_pass(const Args& a, PassRecord& p, std::uint64_t seed) {
  const bool on = p.arm != Arm::kBare;
  const bool traced = p.arm == Arm::kTraced;

  const std::uint64_t spawn_ns = spans::now_ns();
  std::unique_ptr<Runtime> rt;
  std::optional<MonitorChild> monitor;
  {
    spans::Scope span(spans::kSetup, spans::current_pass());
    // orcamon starts first: a producer that finishes before the monitor's
    // first discovery pass unlinks its segment unseen.
    if (on) monitor.emplace(a, traced);
    RuntimeConfig cfg;
    cfg.num_threads = kEpccTeam;
    cfg.shm_export = on;
    cfg.shm_prefix = a.shm_prefix;
    // 16k cells per thread ring: tens of milliseconds of events, so a
    // briefly descheduled orcamon shard does not turn into ring loss.
    cfg.shm_ring_capacity = 16384;
    rt = make_runtime(cfg);
    if (on && !monitor->line_starting("attached", 20000)) {
      die("orcamon never attached to the producer segment");
    }
  }
  p.setup_s = seconds_since(spawn_ns);

  run_epcc(p, *rt, kEpccTeam, kEpccRepsEpcc, seed);

  const std::uint64_t flush_ns = spans::now_ns();
  {
    // The last runtime out disarms the exporter: the segment is marked
    // finalized and unlinked, which tells orcamon to drain and report.
    spans::Scope span(spans::kFlush, spans::current_pass());
    drop_runtime(rt);
  }
  p.flush_s = seconds_since(flush_ns);
  if (!on) return;

  const std::optional<std::string> line = monitor->line_starting("result", 60000);
  if (!line) die("orcamon produced no result");
  if (monitor->wait() != 0) die("orcamon exited with an error");
  const std::map<std::string, double> r = parse_fields(*line);
  const auto field = [&r](const char* key) {
    const auto it = r.find(key);
    if (it == r.end()) die(std::string("orcamon result lacks ") + key);
    return it->second;
  };
  const auto done_ns = static_cast<std::uint64_t>(field("done_ns"));
  p.ready_s = static_cast<double>(done_ns - flush_ns) * 1e-9;
  p.extra["drain_tail_s"] = static_cast<double>(done_ns - flush_ns) * 1e-9;
  p.extra["trace_write_s"] = field("trace_write_s");
  p.extra["report_render_ms"] = field("report_render_ms");
  for (const char* key : {"produced", "read", "lost", "events_seen",
                          "producers", "quarantined"}) {
    p.books[key] = static_cast<std::uint64_t>(field(key));
  }
  spans::record({spans::new_id(), spans::current_pass(), spawn_ns, done_ns, 0,
                 spans::kOrcamonSession, 0});
}

}  // namespace

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kBare: return "bare";
    case Arm::kProfiled: return "profiled";
    case Arm::kTraced: return "traced";
  }
  return "?";
}

int team_size(const std::string& workload) {
  return kind_of(workload) == Kind::kLuHp ? kLuTeam : kEpccTeam;
}

Fingerprint fingerprint(const std::string& workload) {
  Fingerprint f;
  f.barrier = orca::rt::barrier_kind_name(RuntimeConfig{}.barrier);
  switch (kind_of(workload)) {
    case Kind::kLuHp:
    case Kind::kSpMz: f.delivery = "sync"; break;
    case Kind::kEpccAsync: f.delivery = "async"; break;
    case Kind::kEpccFleet: f.delivery = "shm-export"; break;
  }
  f.build_type = ORCA_BUILD_TYPE;
  f.git_sha = ORCA_GIT_SHA;
  return f;
}

PassRecord run_pass(const Args& a, Arm arm, int round) {
  PassRecord p;
  p.arm = arm;
  p.round = round;
  const std::uint64_t seed =
      orca::SplitMix64::at(a.seed, static_cast<std::uint64_t>(round) * 3 +
                                       static_cast<std::uint64_t>(arm));
  spans::enable(arm == Arm::kTraced);
  spans::Scope pass(spans::kPass, spans::current_pass());
  const std::uint64_t root = spans::current_pass();
  spans::set_current_pass(pass.id());
  switch (kind_of(a.workload)) {
    case Kind::kLuHp: npb_pass(a, Kind::kLuHp, p, seed); break;
    case Kind::kSpMz: npb_pass(a, Kind::kSpMz, p, seed); break;
    case Kind::kEpccAsync: async_pass(a, p, seed); break;
    case Kind::kEpccFleet: fleet_pass(a, p, seed); break;
  }
  spans::set_current_pass(root);
  return p;
}

}  // namespace perfbench
