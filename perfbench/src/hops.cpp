/// Per-layer hops of the traced run: each layer's public call timed in
/// isolation, with the workload's record shape (team size, JOIN callstack
/// depth). Each hop is the median over batches of the per-call time.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "collector/api.h"
#include "common/clock.hpp"
#include "perf/samples.hpp"
#include "pipeline/aggregate.hpp"
#include "pipeline/stage.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "shm/reader.hpp"
#include "tool/client2.hpp"
#include "tool/orcamon/fleet_monitor.hpp"
#include "unwind/backtrace.hpp"

namespace perfbench {
namespace {

using orca::collector::Client;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;

constexpr int kBatches = 9;

std::uint64_t now_ns() noexcept { return orca::SteadyClock::now(); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Median over kBatches of (time of body(n)) / n, in nanoseconds.
template <typename Body>
double per_call_ns(int n, Body&& body) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t = now_ns();
    body(n);
    samples.push_back(static_cast<double>(now_ns() - t) / n);
  }
  return median(std::move(samples));
}

void noop_callback(OMP_COLLECTORAPI_EVENT) {}

/// START the calling thread's runtime with a no-op FORK callback.
Client armed_client() {
  std::optional<Client> client = Client::discover();
  if (!client || client->start() != OMP_ERRCODE_OK ||
      client->register_event(OMP_EVENT_FORK, &noop_callback) != OMP_ERRCODE_OK) {
    throw std::runtime_error("hop: collector START/register failed");
  }
  return *client;
}

// --- runtime ------------------------------------------------------------------

struct BarrierFrame {
  int count = 0;
  std::uint64_t ns = 0;
};

void barrier_region(int, void* frame) {
  auto* f = static_cast<BarrierFrame*>(frame);
  Runtime& rt = Runtime::current();
  orca::rt::ThreadDescriptor& td = rt.self_or_serial();
  rt.explicit_barrier(td);  // everyone has arrived before the clock starts
  const std::uint64_t t = now_ns();
  for (int i = 0; i < f->count; ++i) rt.explicit_barrier(td);
  if (rt.thread_num() == 0) f->ns = now_ns() - t;
}

struct QueryFrame {
  const Client* client = nullptr;
  int count = 0;
  std::uint64_t ns = 0;
};

void query_region(int, void* frame) {
  auto* f = static_cast<QueryFrame*>(frame);
  if (Runtime::current().thread_num() != 0) return;
  const std::uint64_t t = now_ns();
  for (int i = 0; i < f->count; ++i) (void)f->client->current_prid();
  f->ns = now_ns() - t;
}

void runtime_and_collector_hops(int team, HopTable& h) {
  RuntimeConfig cfg;
  cfg.num_threads = team;
  std::unique_ptr<Runtime> rt = make_runtime(cfg);

  const orca::rt::Microtask empty = [](int, void*) {};
  h["runtime.fork_empty_us"] = 1e-3 * per_call_ns(200, [&](int n) {
    for (int i = 0; i < n; ++i) rt->fork(empty, nullptr, team);
  });
  std::vector<double> barrier;
  for (int b = 0; b < kBatches; ++b) {
    BarrierFrame f{200, 0};
    rt->fork(&barrier_region, &f, team);
    barrier.push_back(1e-3 * static_cast<double>(f.ns) / f.count);
  }
  h["runtime.barrier_us"] = median(barrier);

  orca::rt::ThreadDescriptor& td = rt->self_or_serial();
  h["collector.emit_disarmed_ns"] = per_call_ns(200000, [&](int n) {
    for (int i = 0; i < n; ++i) rt->event(td, OMP_EVENT_FORK);
  });

  const Client client = armed_client();
  h["collector.emit_armed_ns"] = per_call_ns(200000, [&](int n) {
    for (int i = 0; i < n; ++i) rt->event(td, OMP_EVENT_FORK);
  });
  std::vector<double> query;
  for (int b = 0; b < kBatches; ++b) {
    QueryFrame f{&client, 20000, 0};
    rt->fork(&query_region, &f, team);
    query.push_back(static_cast<double>(f.ns) / f.count);
  }
  h["collector.query_prid_ns"] = median(query);
  (void)client.stop();
  Runtime::make_current(nullptr);
}

void async_hop(int team, HopTable& h) {
  RuntimeConfig cfg;
  cfg.num_threads = team;
  cfg.event_delivery = orca::rt::EventDelivery::kAsync;
  std::unique_ptr<Runtime> rt = make_runtime(cfg);
  const Client client = armed_client();
  orca::rt::ThreadDescriptor& td = rt->self_or_serial();
  h["async.push_ns"] = per_call_ns(100000, [&](int n) {
    for (int i = 0; i < n; ++i) rt->event(td, OMP_EVENT_FORK);
  });
  (void)client.stop();
  Runtime::make_current(nullptr);
}

// --- perf and unwind ------------------------------------------------------------

void perf_hops(std::size_t join_depth, HopTable& h) {
  constexpr int kRecords = 100000;
  orca::perf::SampleStore store(4, 2 * kRecords);
  orca::perf::EventSample sample;
  sample.event = OMP_EVENT_THR_BEGIN_IBAR;
  h["perf.record_ns"] = per_call_ns(kRecords, [&](int n) {
    store.clear();
    for (int i = 0; i < n; ++i) store.buffer(0).record(sample);
  });

  // Two writers on one slot: the MiniMPI case, where every rank's master
  // has gtid 0.
  std::vector<double> shared;
  std::uint64_t dropped = 0;
  for (int b = 0; b < kBatches; ++b) {
    store.clear();
    std::atomic<int> ready{0};
    const auto writer = [&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (int i = 0; i < kRecords; ++i) store.buffer(0).record(sample);
    };
    const std::uint64_t t = now_ns();
    std::thread other(writer);
    writer();
    other.join();
    shared.push_back(static_cast<double>(now_ns() - t) / kRecords);
    dropped += store.total_dropped();
  }
  h["perf.record_shared_ns"] = median(shared);
  h["perf.record_shared_loss"] =
      static_cast<double>(dropped) / (2.0 * kRecords * kBatches);

  const std::vector<const void*> frames(std::max<std::size_t>(join_depth, 1),
                                        &store);
  h["perf.record_callstack_ns"] = per_call_ns(20000, [&](int n) {
    store.clear();
    for (int i = 0; i < n; ++i) {
      orca::perf::CallstackRecord rec;
      rec.frames = frames;  // the tool copies each capture into a vector
      store.record_callstack(0, std::move(rec));
    }
  });
}

volatile std::size_t g_depth_sink = 0;

/// Recurse `extra` frames, then time Callstack::capture there.
[[gnu::noinline]] double capture_at(int extra, int n, std::size_t* depth) {
  if (extra > 0) {
    const double r = capture_at(extra - 1, n, depth);
    g_depth_sink = g_depth_sink + 1;  // keeps the frame (no tail call)
    return r;
  }
  return per_call_ns(n, [depth](int count) {
    for (int i = 0; i < count; ++i) {
      *depth = orca::unwind::Callstack::capture(2).depth();
    }
  });
}

void unwind_hop(std::size_t join_depth, HopTable& h) {
  std::size_t depth = 0;
  (void)capture_at(0, 1, &depth);
  const int extra = join_depth > depth ? static_cast<int>(join_depth - depth) : 0;
  h["unwind.capture_ns"] = capture_at(extra, 5000, &depth);
}

// --- pipeline --------------------------------------------------------------------

/// orcamon's chain: decode -> tag -> fanout(join filter -> aggregate,
/// capped collect, counting sink).
void pipeline_hop(HopTable& h) {
  using orca::tool::orcamon::FleetEvent;
  using orca::tool::orcamon::RawRecord;
  namespace pl = orca::pipeline;
  auto agg = pl::aggregate<FleetEvent>(
      "region-durations",
      [](const FleetEvent& e) { return static_cast<std::uint64_t>(e.pid); },
      [](const FleetEvent& e) { return e.arg; });
  auto joins = pl::filter<FleetEvent>(
      "join-spans",
      [](const FleetEvent& e) {
        return !e.sample && e.code == OMP_EVENT_JOIN && e.arg > 0;
      },
      agg);
  auto trace = pl::collect<FleetEvent>("trace", 1 << 20);
  std::atomic<std::uint64_t> seen{0};
  auto counter = pl::sink<FleetEvent>("fleet-count", [&seen](const FleetEvent&) {
    seen.fetch_add(1, std::memory_order_relaxed);
  });
  auto tail = pl::fanout<FleetEvent>("fleet", {joins, trace, counter});
  auto tag = pl::map<FleetEvent>(
      "tag",
      [](const FleetEvent& e) {
        FleetEvent out = e;
        out.pid = 1;
        return out;
      },
      tail);
  auto head = pl::map<RawRecord>(
      "decode",
      [](const RawRecord& r) {
        FleetEvent ev;
        ev.ns = r.rec.ns;
        ev.tid = r.rec.tid;
        ev.code = r.rec.event;
        ev.arg = r.rec.arg;
        ev.sample = r.sample;
        return ev;
      },
      tag);
  RawRecord rec;
  h["pipeline.stage_ns"] = per_call_ns(50000, [&](int n) {
    trace->clear();
    for (int i = 0; i < n; ++i) {
      rec.rec.ns = static_cast<std::uint64_t>(i);
      rec.rec.event = (i & 1) != 0 ? OMP_EVENT_JOIN : OMP_EVENT_FORK;
      rec.rec.arg = static_cast<std::uint64_t>(i & 1023);
      head->push(rec);
    }
  });
}

// --- shm -----------------------------------------------------------------------------

void shm_hops(const Args& a, HopTable& h) {
  orca::shm::ExporterOptions opts;
  opts.name = orca::shm::default_segment_name(a.shm_prefix + "hop");
  opts.label = "perfbench-hop";
  if (!orca::shm::arm(opts)) throw std::runtime_error("hop: shm arm failed");
  // Fill under the ring capacity, so polls never resync over a lap.
  const int n = static_cast<int>(opts.event_capacity) - 64;
  std::vector<double> publish;
  std::vector<double> poll;
  {
    std::unique_ptr<orca::shm::SegmentReader> reader =
        orca::shm::SegmentReader::attach(orca::shm::armed_segment_name());
    if (!reader) {
      orca::shm::disarm();
      throw std::runtime_error("hop: shm attach failed");
    }
    orca::shm::Record out;
    for (int b = 0; b < kBatches; ++b) {
      std::uint64_t t = now_ns();
      for (int i = 0; i < n; ++i) orca::shm::mirror_event(0, OMP_EVENT_FORK);
      publish.push_back(static_cast<double>(now_ns() - t) / n);
      t = now_ns();
      int got = 0;
      while (reader->poll_event(0, &out) == orca::shm::Poll::kRecord) ++got;
      poll.push_back(static_cast<double>(now_ns() - t) / std::max(got, 1));
    }
  }
  orca::shm::disarm();
  h["shm.publish_ns"] = median(publish);
  h["shm.poll_ns"] = median(poll);
}

}  // namespace

HopTable measure_hops(const Args& a, std::size_t join_depth) {
  const int team = team_size(a.workload);
  HopTable h;
  runtime_and_collector_hops(team, h);
  async_hop(team, h);
  perf_hops(join_depth, h);
  unwind_hop(join_depth, h);
  pipeline_hop(h);
  shm_hops(a, h);
  return h;
}

}  // namespace perfbench
