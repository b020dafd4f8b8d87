#include "tool/sampling_collector.hpp"

#include <sys/time.h>

#include <algorithm>
#include <csignal>
#include <cstring>

#include "collector/api.h"
#include "collector/message.hpp"
#include "common/clock.hpp"
#include "runtime/config.hpp"
#include "runtime/resilience.hpp"
#include "shm/exporter.hpp"

namespace orca::tool {
namespace {

/// Lane slot of the calling thread: -1 = not yet assigned, -2 = no slot
/// left (samples from this thread are counted as drops).
thread_local int tls_lane = -1;

/// Previous SIGPROF disposition, restored by stop().
struct sigaction g_old_sa;  // NOLINT: signal-handler state must be global

constexpr std::size_t kStatePayload = sizeof(int) + sizeof(unsigned long);
constexpr std::size_t kPridPayload = sizeof(unsigned long);

/// Append one query record at `off` in `buf` (zeroed mem, sz/r_req set).
/// Returns the record's offset and advances `off`. All stores go through
/// memcpy: the buffer is a raw char array on the signal handler's stack.
std::size_t put_record(char* buf, std::size_t& off, int req,
                       std::size_t capacity) noexcept {
  const std::size_t rec = off;
  const int sz = static_cast<int>(collector::kRecordHeaderSize + capacity);
  std::memset(buf + rec, 0, static_cast<std::size_t>(sz));
  std::memcpy(buf + rec + offsetof(omp_collector_message, sz), &sz,
              sizeof(sz));
  std::memcpy(buf + rec + offsetof(omp_collector_message, r_req), &req,
              sizeof(req));
  off += static_cast<std::size_t>(sz);
  return rec;
}

OMP_COLLECTORAPI_EC record_errcode(const char* buf, std::size_t rec) noexcept {
  int ec = 0;
  std::memcpy(&ec, buf + rec + offsetof(omp_collector_message, r_errcode),
              sizeof(ec));
  return static_cast<OMP_COLLECTORAPI_EC>(ec);
}

}  // namespace

SamplingCollector& SamplingCollector::instance() {
  static SamplingCollector c;
  return c;
}

void SamplingCollector::handle_sigprof(int) { instance().on_sigprof(); }

void SamplingCollector::on_sigprof() noexcept {
  handler_invocations_.fetch_add(1, std::memory_order_relaxed);
  // Acquire on running_ orders the lanes_/api_ reads below against the
  // start() that built them (and ignores stragglers after stop()).
  if (!running_.load(std::memory_order_acquire) || api_ == nullptr) return;

  if (tls_lane == -1) {
    // fetch_add is async-signal-safe; lanes_ itself is immutable while
    // running (start() builds it before arming the timer).
    const int n = next_lane_.fetch_add(1, std::memory_order_relaxed);
    tls_lane = n < static_cast<int>(lanes_.size()) ? n : -2;
  }

  // Hand-built request buffer on this stack frame — MessageBuilder
  // allocates, so it is off-limits here. Two fast-path-eligible records
  // (STATE, CURRENT_PRID) plus the sz == 0 terminator.
  char buf[2 * (collector::kRecordHeaderSize + kStatePayload) + sizeof(int)];
  std::size_t off = 0;
  const std::size_t state_rec =
      put_record(buf, off, OMP_REQ_STATE, kStatePayload);
  const std::size_t prid_rec =
      put_record(buf, off, OMP_REQ_CURRENT_PRID, kPridPayload);
  const int terminator = 0;
  std::memcpy(buf + off, &terminator, sizeof(terminator));

  if (api_(buf) != 0) {
    api_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  int state = 0;
  if (record_errcode(buf, state_rec) == OMP_ERRCODE_OK) {
    std::memcpy(&state, buf + state_rec + collector::kRecordHeaderSize,
                sizeof(state));
  }
  // Outside any parallel region the runtime answers SEQUENCE_ERR; the
  // sample then carries region 0, which the merge step reads as "serial".
  unsigned long region = 0;
  if (record_errcode(buf, prid_rec) == OMP_ERRCODE_OK) {
    std::memcpy(&region, buf + prid_rec + collector::kRecordHeaderSize,
                sizeof(region));
  }

  if (tls_lane < 0) {
    unassigned_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Mirror into the shm export segment (fleet profiling) before the local
  // lane: mirror_sample is wait-free and async-signal-safe, and disarmed it
  // is one load + branch.
  shm::mirror_sample(tls_lane, state, region);
  perf::EventSample s;
  s.ticks = TscClock::now();
  s.region_id = region;
  s.event = state;  // thread-state value rides in the event field
  s.tid = tls_lane;
  lanes_[static_cast<std::size_t>(tls_lane)]->record(s);
}

bool SamplingCollector::start(ApiFn api, const SamplingOptions& opts) {
  if (api == nullptr || opts.hz <= 0 || running_.load()) return false;

  lanes_.clear();
  const int slots = std::max(opts.max_threads, 1);
  lanes_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    lanes_.push_back(std::make_unique<perf::SampleLane>(opts.lane_capacity));
  }
  next_lane_.store(0, std::memory_order_relaxed);
  api_ = api;

  if (opts.crash_section && crash_slot_ < 0) {
    crash_slot_ = rt::resilience::register_crash_section(
        "sampler", &SamplingCollector::crash_section, this);
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &SamplingCollector::handle_sigprof;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &sa, &g_old_sa) != 0) return false;
  handler_installed_ = true;

  // running_ published before the timer fires: the handler may run on any
  // thread the instant setitimer succeeds.
  running_.store(true, std::memory_order_release);

  itimerval itv;
  itv.it_interval.tv_sec = 0;
  itv.it_interval.tv_usec = std::max(1L, 1000000L / opts.hz);
  itv.it_value = itv.it_interval;
  if (setitimer(ITIMER_PROF, &itv, nullptr) != 0) {
    running_.store(false, std::memory_order_release);
    stop();
    return false;
  }
  timer_armed_ = true;
  return true;
}

void SamplingCollector::stop() {
  if (timer_armed_) {
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    timer_armed_ = false;
  }
  if (handler_installed_) {
    sigaction(SIGPROF, &g_old_sa, nullptr);
    handler_installed_ = false;
  }
  running_.store(false, std::memory_order_release);
  if (crash_slot_ >= 0) {
    rt::resilience::unregister_crash_section(crash_slot_);
    crash_slot_ = -1;
  }
}

SamplingStats SamplingCollector::stats() const noexcept {
  SamplingStats s;
  s.handler_invocations =
      handler_invocations_.load(std::memory_order_relaxed);
  s.api_failures = api_failures_.load(std::memory_order_relaxed);
  s.dropped = unassigned_drops_.load(std::memory_order_relaxed);
  for (const auto& lane : lanes_) {
    s.samples += lane->size();
    s.dropped += lane->dropped();
  }
  return s;
}

SamplingOptions SamplingOptions::from_env() {
  SamplingOptions opts;
  opts.hz = static_cast<int>(rt::RuntimeConfig::env_long(
      "ORCA_SAMPLING_HZ", opts.hz, 1, "a positive frequency in Hz"));
  opts.lane_capacity = static_cast<std::size_t>(rt::RuntimeConfig::env_long(
      "ORCA_SAMPLING_LANE_CAPACITY", static_cast<long>(opts.lane_capacity),
      1, "a positive sample count"));
  opts.max_threads = static_cast<int>(rt::RuntimeConfig::env_long(
      "ORCA_SAMPLING_MAX_THREADS", opts.max_threads, 1,
      "a positive thread count"));
  return opts;
}

std::size_t SamplingCollector::pump(
    const pipeline::StagePtr<perf::EventSample>& head) const {
  if (head == nullptr) return 0;
  std::size_t pumped = 0;
  for (const auto& lane : lanes_) {
    // Only published cells are visited, so every sample is fully written
    // even while the handler is still firing elsewhere.
    pumped += lane->for_each(
        [&head](const perf::EventSample& s) { head->push(s); });
  }
  return pumped;
}

std::vector<pipeline::AggregateRow> SamplingCollector::region_report(
    std::size_t max_regions) const {
  // Assembly: delta (tick gap to the lane's previous sample; lanes are
  // pumped sequentially, so one shared slot keyed by lane suffices) ->
  // bounded per-region aggregate.
  auto agg = pipeline::aggregate<RegionSlice>(
      "by-region", [](const RegionSlice& s) { return s.region; },
      [](const RegionSlice& s) { return s.ticks; }, max_regions);
  auto prev = std::make_shared<std::vector<std::uint64_t>>(lanes_.size(), 0);
  pipeline::StagePtr<perf::EventSample> delta = pipeline::map<
      perf::EventSample>(
      "delta",
      [prev](const perf::EventSample& s) {
        RegionSlice slice;
        slice.region = s.region_id;
        const auto lane = static_cast<std::size_t>(s.tid);
        if (lane < prev->size()) {
          const std::uint64_t last = (*prev)[lane];
          (*prev)[lane] = s.ticks;
          slice.ticks = (last == 0 || s.ticks < last) ? 0 : s.ticks - last;
        }
        return slice;
      },
      pipeline::StagePtr<RegionSlice>(agg));
  pump(delta);
  return agg->snapshot();
}

std::string SamplingCollector::render_region_report(
    std::size_t max_regions) const {
  return pipeline::render_aggregate(region_report(max_regions), "region",
                                    "ticks");
}

void SamplingCollector::clear() {
  for (auto& lane : lanes_) lane->clear();
  handler_invocations_.store(0, std::memory_order_relaxed);
  unassigned_drops_.store(0, std::memory_order_relaxed);
  api_failures_.store(0, std::memory_order_relaxed);
}

void SamplingCollector::crash_section(void* ctx, int fd) {
  auto* self = static_cast<SamplingCollector*>(ctx);
  using rt::resilience::write_kv;
  write_kv(fd, "handler_invocations",
           self->handler_invocations_.load(std::memory_order_relaxed));
  std::uint64_t samples = 0;
  std::uint64_t dropped =
      self->unassigned_drops_.load(std::memory_order_relaxed);
  // size() counts only published cells, so the sum is exact even when this
  // runs on the crashing thread mid-record.
  for (const auto& lane : self->lanes_) {
    samples += lane->size();
    dropped += lane->dropped();
  }
  write_kv(fd, "samples", samples);
  write_kv(fd, "dropped", dropped);
  write_kv(fd, "api_failures",
           self->api_failures_.load(std::memory_order_relaxed));
}

}  // namespace orca::tool
