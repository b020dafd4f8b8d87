#include "tool/collector_tool.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/strutil.hpp"
#include "collector/names.hpp"
#include "runtime/ompc_api.h"
#include "unwind/backtrace.hpp"
#include "unwind/user_model.hpp"

namespace orca::tool {

namespace {

/// This thread's callback-counter slot (assigned round-robin on first use).
std::size_t callback_slot() noexcept {
  static std::atomic<std::size_t> next_slot{0};
  constinit thread_local std::size_t slot = kCallbackCounterSlots;
  if (slot == kCallbackCounterSlots) {
    slot = next_slot.fetch_add(1, std::memory_order_relaxed) %
           kCallbackCounterSlots;
  }
  return slot;
}

/// Ticks of the forks this thread has open, innermost last. FORK and JOIN
/// of one region fire on the same thread (its master), so nested regions
/// and MiniMPI ranks each pair correctly.
struct ForkStack {
  std::uint64_t generation = 0;
  std::size_t depth = 0;  ///< may exceed kForkStackDepth; deeper ticks are lost
  std::array<std::uint64_t, kForkStackDepth> ticks{};
};

constinit thread_local ForkStack t_forks;

}  // namespace

PrototypeCollector& PrototypeCollector::instance() {
  static PrototypeCollector tool;
  return tool;
}

void PrototypeCollector::event_callback(OMP_COLLECTORAPI_EVENT event) {
  instance().on_event(event);
}

void PrototypeCollector::configure(ToolOptions opts) {
  opts_ = std::move(opts);
  fork_generation_.fetch_add(1, std::memory_order_relaxed);
  counter_ = perf::HwTimeCounter(opts_.counter);
  if (store_ == nullptr) {
    store_ = std::make_unique<perf::SampleStore>(opts_.thread_slots,
                                                 opts_.sample_capacity);
  }
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

void PrototypeCollector::push_fork(std::uint64_t fork_ticks) noexcept {
  ForkStack& forks = t_forks;
  const std::uint64_t generation =
      fork_generation_.load(std::memory_order_relaxed);
  if (forks.generation != generation) {
    forks.generation = generation;
    forks.depth = 0;
  }
  if (forks.depth < kForkStackDepth) forks.ticks[forks.depth] = fork_ticks;
  ++forks.depth;
}

std::uint64_t PrototypeCollector::pop_fork() noexcept {
  ForkStack& forks = t_forks;
  if (forks.generation != fork_generation_.load(std::memory_order_relaxed) ||
      forks.depth == 0) {
    return 0;  // the fork predates reset()/configure(), or was never seen
  }
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
  callback_counts_[callback_slot()].value.fetch_add(1,
                                                    std::memory_order_relaxed);
  if (!opts_.measure || store_ == nullptr) return;  // communication-only arm

  perf::EventSample sample;
  sample.ticks = counter_.read();
  sample.event = static_cast<std::int32_t>(event);
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
          store_->record_callstack(sample.tid, std::move(record));
        } else {
          filtered_count_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  store_->buffer(sample.tid).record(sample);
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
  fork_generation_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lk(contexts_mu_);
  seen_contexts_.clear();
}

Report analyze_samples(std::span<const perf::EventSample> samples,
                       const perf::HwTimeCounter& counter) {
  Report report;
  report.total_events = samples.size();
  for (const perf::EventSample& s : samples) {
    ++report.event_counts[s.event];
  }

  // Pair fork/join on the master thread (both events fire only there) to
  // produce per-region intervals. Joins carry the region id.
  std::unordered_map<unsigned long, RegionStats> regions;
  std::uint64_t open_fork_ticks = 0;
  bool fork_open = false;
  for (const perf::EventSample& s : samples) {
    if (s.tid != 0) continue;
    if (s.event == OMP_EVENT_FORK) {
      open_fork_ticks = s.ticks;
      fork_open = true;
    } else if (s.event == OMP_EVENT_JOIN && !fork_open) {
      ++report.unpaired_joins;
    } else if (s.event == OMP_EVENT_JOIN) {
      fork_open = false;
      const double seconds = counter.to_seconds(s.ticks - open_fork_ticks);
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
    }
  }
  report.regions.reserve(regions.size());
  for (const auto& [id, stats] : regions) report.regions.push_back(stats);
  std::sort(report.regions.begin(), report.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.region_id < b.region_id;
            });

  // Interval metrics: pair each thread's begin/end events and aggregate
  // time-in-construct (the "OpenMP specific performance metrics" of
  // Sec. VI — implicit/explicit barrier time, lock wait time, ...).
  // begin_of[end] is the begin kind an end event closes (0 = none).
  std::array<int, ORCA_EVENT_EXT_LAST> begin_of{};
  for (int b = ORCA_EVENT_EXT_LAST - 1; b >= 1; --b) {
    const OMP_COLLECTORAPI_EVENT end =
        collector::matching_end(static_cast<OMP_COLLECTORAPI_EVENT>(b));
    if (end != OMP_EVENT_LAST) begin_of[end] = b;  // lowest begin wins
  }
  std::map<std::pair<int, int>, std::uint64_t> open_begin;  // (tid,ev)->tick
  std::map<std::pair<int, int>, IntervalStats> interval_acc;
  for (const perf::EventSample& s : samples) {
    const auto event = static_cast<OMP_COLLECTORAPI_EVENT>(s.event);
    if (event == OMP_EVENT_FORK || event == OMP_EVENT_JOIN) continue;
    if (collector::is_begin_event(event)) {
      open_begin[{s.tid, s.event}] = s.ticks;
      continue;
    }
    if (s.event <= 0 || s.event >= ORCA_EVENT_EXT_LAST) continue;
    const int b = begin_of[s.event];
    if (b == 0) continue;
    const auto it = open_begin.find({s.tid, b});
    if (it == open_begin.end()) continue;  // unpaired end (attached mid-run)
    IntervalStats& acc = interval_acc[{b, s.tid}];
    acc.begin_event = b;
    acc.tid = s.tid;
    ++acc.intervals;
    acc.total_seconds += counter.to_seconds(s.ticks - it->second);
    open_begin.erase(it);
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
    out += strfmt("unpaired joins: %llu (no open fork on tid 0)\n",
                  static_cast<unsigned long long>(unpaired_joins));
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
