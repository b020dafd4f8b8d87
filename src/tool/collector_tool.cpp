#include "tool/collector_tool.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>

#include "common/strutil.hpp"
#include "collector/names.hpp"
#include "runtime/ompc_api.h"
#include "unwind/backtrace.hpp"
#include "unwind/user_model.hpp"

namespace orca::tool {

namespace {

/// This thread's claim on the current session: its lane, and the ticks of
/// the forks it has open, innermost last. FORK and JOIN of one region fire
/// on the same thread (its master), so nested regions and MiniMPI ranks
/// each pair correctly. A claim from an older session generation is stale.
struct ThreadClaim {
  std::uint64_t generation = 0;
  std::size_t lane = 0;
  std::size_t depth = 0;  ///< may exceed kForkStackDepth; deeper ticks are lost
  std::array<std::uint64_t, kForkStackDepth> ticks{};
};

constinit thread_local ThreadClaim t_claim;

}  // namespace

PrototypeCollector& PrototypeCollector::instance() {
  static PrototypeCollector tool;
  return tool;
}

void PrototypeCollector::event_callback(OMP_COLLECTORAPI_EVENT event) {
  instance().on_event(event);
}

void PrototypeCollector::configure(ToolOptions opts) {
  // The store is sized by the options that built it (the last configure's).
  const bool resize = store_ == nullptr ||
                      opts.thread_slots != opts_.thread_slots ||
                      opts.sample_capacity != opts_.sample_capacity;
  opts_ = std::move(opts);
  counter_ = perf::HwTimeCounter(opts_.counter);
  if (resize) {
    store_ = std::make_unique<perf::SampleStore>(opts_.thread_slots,
                                                 opts_.sample_capacity);
    callback_counts_ =
        std::vector<CachePadded<std::atomic<std::uint64_t>>>(store_->slots());
  }
  next_lane_.store(0, std::memory_order_relaxed);
  session_generation_.fetch_add(1, std::memory_order_relaxed);
  client_ = collector::Client::discover();
}

bool PrototypeCollector::attach(ToolOptions opts) {
  if (attached_) return false;
  configure(std::move(opts));
  if (!client_) return false;

  if (client_->start() != OMP_ERRCODE_OK) return false;
  for (const OMP_COLLECTORAPI_EVENT event : opts_.events) {
    // Optional events may be unsupported by the runtime; FORK/JOIN are
    // mandatory, so treat their failure (only) as fatal.
    const OMP_COLLECTORAPI_EC ec =
        client_->register_event(event, &PrototypeCollector::event_callback);
    if (ec != OMP_ERRCODE_OK &&
        (event == OMP_EVENT_FORK || event == OMP_EVENT_JOIN)) {
      client_->stop();
      return false;
    }
  }
  attached_ = true;
  return true;
}

void PrototypeCollector::detach() {
  if (!attached_) return;
  client_->stop();
  attached_ = false;
}

bool PrototypeCollector::pause() {
  return attached_ && client_->pause() == OMP_ERRCODE_OK;
}

bool PrototypeCollector::resume() {
  return attached_ && client_->resume() == OMP_ERRCODE_OK;
}

std::uint64_t PrototypeCollector::callback_invocations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slot : callback_counts_) {
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t PrototypeCollector::claim_lane() noexcept {
  ThreadClaim& claim = t_claim;
  const std::uint64_t generation =
      session_generation_.load(std::memory_order_relaxed);
  if (claim.generation != generation) {
    // Threads past the last lane share it (counted by lanes_claimed()).
    const std::uint64_t n = next_lane_.fetch_add(1, std::memory_order_relaxed);
    claim.generation = generation;
    claim.lane = std::min<std::uint64_t>(n, store_->slots() - 1);
    claim.depth = 0;
  }
  return claim.lane;
}

void PrototypeCollector::push_fork(std::uint64_t fork_ticks) noexcept {
  ThreadClaim& forks = t_claim;
  if (forks.depth < kForkStackDepth) forks.ticks[forks.depth] = fork_ticks;
  ++forks.depth;
}

std::uint64_t PrototypeCollector::pop_fork() noexcept {
  ThreadClaim& forks = t_claim;
  if (forks.depth == 0) return 0;  // the fork predates the session
  --forks.depth;
  return forks.depth < kForkStackDepth ? forks.ticks[forks.depth] : 0;
}

bool PrototypeCollector::passes_cheap_filters(std::uint64_t join_ticks) {
  // These run *before* the callstack capture: for filtered joins the tool
  // skips the capture entirely, which is where the cost lives.
  //
  // Small-region filter: compare this join against the matching fork.
  if (opts_.min_region_seconds > 0) {
    const std::uint64_t fork_ticks = pop_fork();
    if (fork_ticks != 0 &&
        counter_.to_seconds(join_ticks - fork_ticks) <
            opts_.min_region_seconds) {
      return false;
    }
  }
  // Sampling: keep one join in every `interval`.
  if (opts_.callstack_sampling_interval > 1) {
    const std::uint64_t n = join_count_.fetch_add(1, std::memory_order_relaxed);
    if (n % opts_.callstack_sampling_interval != 0) return false;
  }
  return true;
}

bool PrototypeCollector::passes_dedup(const std::vector<const void*>& frames) {
  // Calling-context dedup needs the captured stack: store each distinct
  // context once (FNV-1a over the frame addresses).
  if (!opts_.dedup_by_context) return true;
  std::size_t hash = 0xcbf29ce484222325ULL;
  for (const void* ip : frames) {
    hash ^= reinterpret_cast<std::size_t>(ip);
    hash *= 0x100000001b3ULL;
  }
  std::scoped_lock lk(contexts_mu_);
  return seen_contexts_.insert(hash).second;
}

void PrototypeCollector::on_event(OMP_COLLECTORAPI_EVENT event) {
  if (store_ == nullptr) return;  // never configured
  const std::size_t lane = claim_lane();
  callback_counts_[lane].value.fetch_add(1, std::memory_order_relaxed);
  if (!opts_.measure) return;  // communication-only arm

  perf::EventSample sample;
  sample.ticks = counter_.read();
  sample.event = static_cast<std::int16_t>(event);
  sample.tid = __ompc_get_global_thread_num();

  if (event == OMP_EVENT_FORK) {
    // Remembered for the small-region filter, which pops it at the join.
    if (opts_.record_callstacks && opts_.min_region_seconds > 0) {
      push_fork(sample.ticks);
    }
  } else if (event == OMP_EVENT_JOIN) {
    // Region ids are retrieved "at the join event" (paper Sec. IV); the
    // master's team is still current when JOIN fires.
    if (opts_.query_region_ids) {
      const collector::Expected<unsigned long> id = client_->current_prid();
      if (id) sample.region_id = *id;
    }
    if (opts_.record_callstacks) {
      // Implementation-model callstack for the offline user-model pass
      // (paper Sec. V: "records the current implementation-model callstack
      // for each join event"). Selective collection (Sec. VI): the cheap
      // filters veto the capture itself; dedup vetoes the storage.
      if (!passes_cheap_filters(sample.ticks)) {
        filtered_count_.fetch_add(1, std::memory_order_relaxed);
      } else {
        perf::CallstackRecord record;
        record.ticks = sample.ticks;
        record.region_id = sample.region_id;
        if (opts_.use_region_fn_extension) {
          record.region_fn = __ompc_get_current_region_fn();
        }
        record.frames = unwind::Callstack::capture(/*skip=*/2).to_vector();
        if (passes_dedup(record.frames)) {
          store_->record_callstack(static_cast<int>(lane), std::move(record));
        } else {
          filtered_count_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  store_->buffer(static_cast<int>(lane)).record(sample);
}

perf::TraceData PrototypeCollector::trace_data() const {
  perf::TraceData data;
  if (store_ != nullptr) {
    data.samples = store_->merged_samples();
    data.callstacks = store_->merged_callstacks();
  }
  return data;
}

void PrototypeCollector::reset() {
  if (store_ != nullptr) store_->clear();
  for (auto& slot : callback_counts_) {
    slot.value.store(0, std::memory_order_relaxed);
  }
  filtered_count_.store(0, std::memory_order_relaxed);
  join_count_.store(0, std::memory_order_relaxed);
  next_lane_.store(0, std::memory_order_relaxed);
  session_generation_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lk(contexts_mu_);
  seen_contexts_.clear();
}

Report analyze_samples(std::span<const perf::EventSample> samples,
                       const perf::HwTimeCounter& counter) {
  Report report;
  report.total_events = samples.size();

  // begin_of[end] is the begin kind an end event closes (0 = none).
  std::array<int, ORCA_EVENT_EXT_LAST> begin_of{};
  for (int b = ORCA_EVENT_EXT_LAST - 1; b >= 1; --b) {
    const OMP_COLLECTORAPI_EVENT end =
        collector::matching_end(static_cast<OMP_COLLECTORAPI_EVENT>(b));
    if (end != OMP_EVENT_LAST) begin_of[end] = b;  // lowest begin wins
  }

  // A thread is its (lane, gtid): the lane tells MiniMPI rank masters (all
  // gtid 0) apart, the gtid the threads past the last lane. Per thread:
  // the open fork and begins, and the intervals closed so far.
  struct Open {
    std::uint64_t ticks = 0;
    bool open = false;
  };
  struct Thread {
    int tid = 0;
    Open fork;
    std::array<Open, ORCA_EVENT_EXT_LAST> begin{};
    std::array<std::uint64_t, ORCA_EVENT_EXT_LAST> intervals{};
    std::array<double, ORCA_EVENT_EXT_LAST> seconds{};
  };
  std::vector<std::vector<Thread>> lanes;  // by lane, then gtid
  const auto thread_of = [&lanes](const perf::EventSample& s) -> Thread& {
    if (s.lane >= lanes.size()) lanes.resize(s.lane + 1u);
    std::vector<Thread>& tids = lanes[s.lane];
    for (Thread& t : tids) {
      if (t.tid == s.tid) return t;
    }
    Thread& t = tids.emplace_back();
    t.tid = s.tid;
    return t;
  };

  // Fork/join pairs on each master thread (both events fire only there)
  // give per-region intervals; joins carry the region id. Begin/end pairs
  // give time-in-construct (the "OpenMP specific performance metrics" of
  // Sec. VI — implicit/explicit barrier time, lock wait time, ...).
  std::unordered_map<unsigned long, RegionStats> regions;
  for (const perf::EventSample& s : samples) {
    ++report.event_counts[s.event];
    const auto event = static_cast<OMP_COLLECTORAPI_EVENT>(s.event);
    if (event == OMP_EVENT_FORK) {
      thread_of(s).fork = {s.ticks, true};
    } else if (event == OMP_EVENT_JOIN) {
      Open& fork = thread_of(s).fork;
      if (!fork.open) {
        ++report.unpaired_joins;
        continue;
      }
      fork.open = false;
      const double seconds = counter.to_seconds(s.ticks - fork.ticks);
      RegionStats& r = regions[s.region_id];
      if (r.invocations == 0) {
        r.region_id = s.region_id;
        r.min_seconds = seconds;
        r.max_seconds = seconds;
      }
      ++r.invocations;
      r.total_seconds += seconds;
      r.min_seconds = std::min(r.min_seconds, seconds);
      r.max_seconds = std::max(r.max_seconds, seconds);
    } else if (s.event > 0 && s.event < ORCA_EVENT_EXT_LAST) {
      if (collector::is_begin_event(event)) {
        thread_of(s).begin[s.event] = {s.ticks, true};
        continue;
      }
      const int b = begin_of[s.event];
      if (b == 0) continue;
      Thread& t = thread_of(s);
      if (!t.begin[b].open) continue;  // unpaired end (attached mid-run)
      t.begin[b].open = false;
      ++t.intervals[b];
      t.seconds[b] += counter.to_seconds(s.ticks - t.begin[b].ticks);
    }
  }
  report.regions.reserve(regions.size());
  for (const auto& [id, stats] : regions) report.regions.push_back(stats);
  std::sort(report.regions.begin(), report.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.region_id < b.region_id;
            });

  // Intervals by (begin event, gtid): threads of one gtid on several lanes
  // add up.
  std::map<std::pair<int, int>, IntervalStats> interval_acc;
  for (const std::vector<Thread>& tids : lanes) {
    for (const Thread& t : tids) {
      for (int b = 1; b < ORCA_EVENT_EXT_LAST; ++b) {
        if (t.intervals[b] == 0) continue;
        IntervalStats& acc = interval_acc[{b, t.tid}];
        acc.begin_event = b;
        acc.tid = t.tid;
        acc.intervals += t.intervals[b];
        acc.total_seconds += t.seconds[b];
      }
    }
  }
  report.intervals.reserve(interval_acc.size());
  for (const auto& [key, acc] : interval_acc) report.intervals.push_back(acc);
  return report;
}

Report PrototypeCollector::finalize() const {
  if (store_ == nullptr) {
    Report report;
    report.callback_invocations = callback_invocations();
    return report;
  }
  // Named, so the merged samples outlive the profile below. Freed early,
  // they leave a large free block at the top of the heap that malloc
  // returns to the OS, and the next trace_data() faults its buffers back
  // in (sp_mz flush_ms +30 %).
  const std::vector<perf::EventSample> samples = store_->merged_samples();
  Report report = analyze_samples(samples, counter_);
  report.callback_invocations = callback_invocations();
  report.dropped_samples = store_->total_dropped();
  const std::uint64_t claimed = lanes_claimed();
  report.threads_sharing_lane =
      claimed > store_->slots() ? claimed - store_->slots() : 0;

  // User-model callstack profile (the PerfSuite-extension workflow of
  // Sec. IV-F): count the join records by raw stack in place, then
  // reconstruct each distinct stack once.
  unwind::ProfileBuilder profile;
  store_->for_each_callstack([&profile](const perf::CallstackRecord& rec) {
    profile.add(rec.region_fn, rec.frames);
  });
  report.callstack_profile = profile.build();
  return report;
}

std::string Report::render() const {
  std::string out;
  out += strfmt("events observed : %llu (dropped %llu)\n",
                static_cast<unsigned long long>(total_events),
                static_cast<unsigned long long>(dropped_samples));
  out += strfmt("callback calls  : %llu\n",
                static_cast<unsigned long long>(callback_invocations));

  TextTable events({"event", "count"});
  for (const auto& [event, count] : event_counts) {
    events.add_row({std::string(collector::to_string(
                        static_cast<OMP_COLLECTORAPI_EVENT>(event))),
                    strfmt("%llu", static_cast<unsigned long long>(count))});
  }
  out += "\nevent counts:\n" + events.render();

  // Region ids are per dynamic instance (paper IV-E: updated "each time a
  // team of threads executes a parallel region"), so long runs produce one
  // row per invocation; show the most expensive ones.
  constexpr std::size_t kMaxRegionRows = 25;
  std::vector<RegionStats> by_cost = regions;
  std::sort(by_cost.begin(), by_cost.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.total_seconds > b.total_seconds;
            });
  if (by_cost.size() > kMaxRegionRows) by_cost.resize(kMaxRegionRows);
  TextTable regions_table(
      {"region id", "invocations", "total s", "min s", "max s"});
  for (const RegionStats& r : by_cost) {
    regions_table.add_row({strfmt("%lu", r.region_id),
                           strfmt("%llu", static_cast<unsigned long long>(
                                              r.invocations)),
                           strfmt("%.6f", r.total_seconds),
                           strfmt("%.6f", r.min_seconds),
                           strfmt("%.6f", r.max_seconds)});
  }
  out += strfmt("\nparallel regions (master fork->join), %zu of %zu shown:\n",
                by_cost.size(), regions.size()) +
         regions_table.render();
  if (unpaired_joins != 0) {
    out += strfmt("unpaired joins: %llu (no open fork on their thread)\n",
                  static_cast<unsigned long long>(unpaired_joins));
  }
  if (threads_sharing_lane != 0) {
    out += strfmt(
        "threads sharing the last sample lane: %llu (past thread_slots)\n",
        static_cast<unsigned long long>(threads_sharing_lane));
  }

  if (!intervals.empty()) {
    TextTable interval_table({"construct", "tid", "intervals", "total s"});
    for (const IntervalStats& iv : intervals) {
      interval_table.add_row(
          {std::string(collector::to_string(
               static_cast<OMP_COLLECTORAPI_EVENT>(iv.begin_event))),
           strfmt("%d", iv.tid),
           strfmt("%llu", static_cast<unsigned long long>(iv.intervals)),
           strfmt("%.6f", iv.total_seconds)});
    }
    out += "\ntime in constructs (per thread):\n" + interval_table.render();
  }

  if (!callstack_profile.empty()) {
    out += "\nuser-model callstack profile (by join samples):\n";
    for (const CallstackProfileEntry& entry : callstack_profile) {
      out += strfmt("%llu samples at:\n%s",
                    static_cast<unsigned long long>(entry.samples),
                    entry.rendered.c_str());
    }
  }
  return out;
}

}  // namespace orca::tool
