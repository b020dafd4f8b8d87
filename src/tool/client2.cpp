#include "tool/client2.hpp"

#include <dlfcn.h>

#include <array>
#include <memory>
#include <mutex>

#include "collector/async.hpp"
#include "collector/message.hpp"
#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "runtime/ompc_api.h"

namespace orca::collector {
namespace {

using Handler = std::function<void(OMP_COLLECTORAPI_EVENT)>;

/// Process-wide table of owned handlers, one slot per event kind. The ORA
/// callback ABI (`void(*)(OMP_COLLECTORAPI_EVENT)`) carries no context
/// pointer, so owned std::function handlers are reached through a single
/// static trampoline that looks the handler up by the event it was invoked
/// with. A SpinLock (not std::mutex) keeps the trampoline usable from the
/// runtime's emission path, which must never block on a sleeping lock.
/// Slots hold the handler behind a shared_ptr so a delivery copies one
/// pointer, never the closure itself (a pipeline closure is too large for
/// std::function's small buffer and would allocate on every event).
struct OwnedHandlers {
  orca::SpinLock mu;
  std::array<std::shared_ptr<const Handler>, ORCA_EVENT_EXT_LAST> fns;
};

OwnedHandlers& handlers() {
  static OwnedHandlers table;
  return table;
}

bool handler_index_ok(int event) noexcept {
  return event > 0 && event < ORCA_EVENT_EXT_LAST;
}

/// The one callback pointer ever registered for owned handlers. Takes a
/// reference to the handler under the lock and invokes it unlocked, so a
/// handler may re-enter the client (e.g. query state) without deadlocking
/// the table, and a concurrent drop_handler cannot free it mid-call.
void trampoline(OMP_COLLECTORAPI_EVENT event) {
  if (!handler_index_ok(static_cast<int>(event))) return;
  std::shared_ptr<const Handler> fn;
  {
    std::scoped_lock lock(handlers().mu);
    fn = handlers().fns[static_cast<std::size_t>(event)];
  }
  if (fn) (*fn)(event);
}

void install_handler(int event, Handler fn) {
  auto owned = std::make_shared<const Handler>(std::move(fn));
  std::scoped_lock lock(handlers().mu);
  handlers().fns[static_cast<std::size_t>(event)] = std::move(owned);
}

/// The displaced handler is released after the lock is dropped: its
/// closure may own objects whose destructors must not run under a SpinLock.
void drop_handler(int event) {
  if (!handler_index_ok(event)) return;
  std::shared_ptr<const Handler> dropped;
  std::scoped_lock lock(handlers().mu);
  dropped.swap(handlers().fns[static_cast<std::size_t>(event)]);
}

}  // namespace

void Registration::reset() noexcept {
  if (event_ == 0) return;
  const int event = event_;
  event_ = 0;
  // Unregister on the wire first, then release the owned callable: between
  // the two a racing emission still finds a live handler; after the drop
  // the trampoline degrades to a no-op even if the wire request failed
  // (e.g. the collector already sent STOP).
  MessageBuilder msg;
  msg.add_unregister(event);
  if (api_) (void)api_(msg.buffer());
  drop_handler(event);
  api_ = nullptr;
}

std::optional<Client> Client::discover() {
  // RTLD_DEFAULT scans every loaded object, exactly like a preloaded tool
  // probing for an ORA-capable OpenMP runtime (paper Sec. IV).
  void* sym = ::dlsym(RTLD_DEFAULT, "__omp_collector_api");
  if (sym == nullptr) sym = ::dlsym(RTLD_DEFAULT, "omp_collector_api");
  if (sym == nullptr) return std::nullopt;
  return Client(ApiFn(reinterpret_cast<int (*)(void*)>(sym)));
}

OMP_COLLECTORAPI_EC Client::simple_request(int req) const {
  MessageBuilder msg;
  msg.add(req);
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  return msg.errcode(0);
}

OMP_COLLECTORAPI_EC Client::start() const {
  return simple_request(OMP_REQ_START);
}
OMP_COLLECTORAPI_EC Client::stop() const {
  return simple_request(OMP_REQ_STOP);
}
OMP_COLLECTORAPI_EC Client::pause() const {
  return simple_request(OMP_REQ_PAUSE);
}
OMP_COLLECTORAPI_EC Client::resume() const {
  return simple_request(OMP_REQ_RESUME);
}

Expected<ThreadState> Client::state() const {
  MessageBuilder msg;
  msg.add_state_query();
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  if (msg.errcode(0) != OMP_ERRCODE_OK) return msg.errcode(0);

  int state_value = 0;
  if (!msg.reply_value(0, &state_value)) return OMP_ERRCODE_ERROR;
  ThreadState reply;
  reply.state = static_cast<OMP_COLLECTOR_API_THR_STATE>(state_value);
  // The wait id follows the state value for wait states (paper IV-D);
  // r_sz tells us whether the runtime appended one.
  if (static_cast<std::size_t>(msg.reply_size(0)) >=
      sizeof(int) + sizeof(unsigned long)) {
    unsigned long wait_id = 0;
    if (msg.reply_value(0, &wait_id, sizeof(int))) {
      reply.wait_id = wait_id;
      reply.has_wait_id = true;
    }
  }
  return reply;
}

Expected<unsigned long> Client::id_request(int req) const {
  MessageBuilder msg;
  msg.add_id_query(static_cast<OMP_COLLECTORAPI_REQUEST>(req));
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  if (msg.errcode(0) != OMP_ERRCODE_OK) return msg.errcode(0);
  unsigned long id = 0;
  if (!msg.reply_value(0, &id)) return OMP_ERRCODE_ERROR;
  return id;
}

Expected<unsigned long> Client::current_prid() const {
  return id_request(OMP_REQ_CURRENT_PRID);
}

Expected<unsigned long> Client::parent_prid() const {
  return id_request(OMP_REQ_PARENT_PRID);
}

Expected<orca_event_stats> Client::event_stats() const {
  MessageBuilder msg;
  msg.add_event_stats_query();
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  if (msg.errcode(0) != OMP_ERRCODE_OK) return msg.errcode(0);
  orca_event_stats stats = {};
  if (!msg.reply_value(0, &stats)) return OMP_ERRCODE_ERROR;
  return stats;
}

Expected<orca_telemetry_snapshot> Client::telemetry_snapshot() const {
  MessageBuilder msg;
  msg.add_telemetry_query();
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  if (msg.errcode(0) != OMP_ERRCODE_OK) return msg.errcode(0);
  orca_telemetry_snapshot snap = {};
  if (!msg.reply_value(0, &snap)) return OMP_ERRCODE_ERROR;
  return snap;
}

Expected<orca_resilience_stats> Client::resilience_stats() const {
  MessageBuilder msg;
  msg.add_resilience_stats_query();
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  if (msg.errcode(0) != OMP_ERRCODE_OK) return msg.errcode(0);
  orca_resilience_stats stats = {};
  if (!msg.reply_value(0, &stats)) return OMP_ERRCODE_ERROR;
  return stats;
}

OMP_COLLECTORAPI_EC Client::register_event(OMP_COLLECTORAPI_EVENT event,
                                           OMP_COLLECTORAPI_CALLBACK cb)
    const {
  MessageBuilder msg;
  msg.add_register(event, cb);
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  return msg.errcode(0);
}

Expected<Registration> Client::register_event(
    OMP_COLLECTORAPI_EVENT event,
    std::function<void(OMP_COLLECTORAPI_EVENT)> fn) const {
  if (!handler_index_ok(static_cast<int>(event)) || !fn) {
    return OMP_ERRCODE_ERROR;
  }
  // Install the handler before wiring the trampoline so the first emission
  // after a successful REGISTER always finds it. On wire failure the slot
  // is restored to empty (displacing a previous owner of the same event is
  // documented last-registration-wins behaviour, so no rollback to it).
  install_handler(static_cast<int>(event), std::move(fn));
  const OMP_COLLECTORAPI_EC ec = register_event(event, &trampoline);
  if (ec != OMP_ERRCODE_OK) {
    drop_handler(static_cast<int>(event));
    return ec;
  }
  return Registration(api_, static_cast<int>(event));
}

OMP_COLLECTORAPI_EC Client::unregister_event(
    OMP_COLLECTORAPI_EVENT event) const {
  MessageBuilder msg;
  msg.add_unregister(event);
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  return msg.errcode(0);
}

EventFeed Session::pipeline(pipeline::StagePtr<pipeline::Event> head,
                            std::vector<OMP_COLLECTORAPI_EVENT> events) {
  EventFeed feed;
  if (!active() || head == nullptr) return feed;
  if (events.empty()) {
    for (int e = 1; e < OMP_EVENT_LAST; ++e) {
      events.push_back(static_cast<OMP_COLLECTORAPI_EVENT>(e));
    }
  }
  feed.seq_ = std::make_shared<std::atomic<std::uint64_t>>(0);
  const Client client(api_);
  for (const OMP_COLLECTORAPI_EVENT event : events) {
    // One decode closure per event (the trampoline table is keyed by event
    // kind), all sharing the feed's sequence counter and the graph head.
    Expected<Registration> reg = client.register_event(
        event, [head, seq = feed.seq_](OMP_COLLECTORAPI_EVENT ev) {
          pipeline::Event out;
          out.seq = seq->fetch_add(1, std::memory_order_relaxed);
          // Under asynchronous delivery the callback runs on the drainer
          // thread; the delivery context recovers the origin thread's slot
          // and enqueue timestamp, which is what a consumer should see.
          if (const EventRecord* rec = AsyncDispatcher::delivery_context()) {
            out.ticks = rec->ticks;
            out.tid = rec->origin_slot;
          } else {
            out.ticks = SteadyClock::now();
            out.tid = __ompc_get_global_thread_num();
          }
          out.ns = SteadyClock::now();
          out.event = ev;
          head->push(out);
        });
    // Optional events may come back OMP_ERRCODE_UNSUPPORTED; a consumer
    // simply receives whatever the runtime can provide.
    if (reg) feed.regs_.push_back(std::move(*reg));
  }
  return feed;
}

OMP_COLLECTORAPI_EC Session::stop() noexcept {
  if (!active()) return OMP_ERRCODE_SEQUENCE_ERR;
  start_ec_ = OMP_ERRCODE_SEQUENCE_ERR;  // one STOP per successful START
  MessageBuilder msg;
  msg.add(OMP_REQ_STOP);
  if (api_(msg.buffer()) != 0) return OMP_ERRCODE_ERROR;
  return msg.errcode(0);
}

}  // namespace orca::collector
