#include "runtime/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/env.hpp"

namespace orca::rt {

ScheduleSpec RuntimeConfig::parse_schedule(const std::string& text) {
  ScheduleSpec spec;
  const auto parts = env::split(text, ',');
  if (parts.empty() || parts[0].empty()) return spec;

  std::string kind;
  kind.reserve(parts[0].size());
  for (char c : parts[0]) kind.push_back(static_cast<char>(std::tolower(c)));

  if (kind == "static") {
    spec.kind = Schedule::kStaticEven;
  } else if (kind == "dynamic") {
    spec.kind = Schedule::kDynamic;
  } else if (kind == "guided") {
    spec.kind = Schedule::kGuided;
  } else {
    return spec;  // unknown kind: keep defaults, ignore any chunk
  }

  if (parts.size() > 1 && !parts[1].empty()) {
    char* end = nullptr;
    const long chunk = std::strtol(parts[1].c_str(), &end, 10);
    if (end != parts[1].c_str() && chunk > 0) {
      spec.chunk = chunk;
      if (spec.kind == Schedule::kStaticEven) spec.kind = Schedule::kStaticChunked;
    }
  }
  return spec;
}

namespace {

std::string ascii_lower(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(c)));
  return out;
}

}  // namespace

EventDelivery RuntimeConfig::parse_event_delivery(const std::string& text,
                                                  EventDelivery fallback) {
  const std::string s = ascii_lower(text);
  if (s == "sync" || s == "synchronous") return EventDelivery::kSync;
  if (s == "async" || s == "asynchronous") return EventDelivery::kAsync;
  return fallback;
}

EventBackpressure RuntimeConfig::parse_backpressure(
    const std::string& text, EventBackpressure fallback) {
  const std::string s = ascii_lower(text);
  if (s == "block") return EventBackpressure::kBlock;
  if (s == "drop_newest" || s == "drop-newest" || s == "drop") {
    return EventBackpressure::kDropNewest;
  }
  if (s == "overwrite_oldest" || s == "overwrite-oldest" || s == "overwrite") {
    return EventBackpressure::kOverwriteOldest;
  }
  return fallback;
}

bool RuntimeConfig::parse_telemetry_mode(const std::string& text,
                                         bool* timeline, bool* metrics) {
  const std::string s = ascii_lower(text);
  if (s == "off" || s == "none" || s == "0") {
    *timeline = false;
    *metrics = false;
  } else if (s == "metrics") {
    *timeline = false;
    *metrics = true;
  } else if (s == "timeline") {
    *timeline = true;
    *metrics = false;
  } else if (s == "full" || s == "on" || s == "1") {
    *timeline = true;
    *metrics = true;
  } else {
    return false;
  }
  return true;
}

bool RuntimeConfig::shm_export_from_env() {
  return env::get_bool("ORCA_SHM_EXPORT", false);
}

std::string RuntimeConfig::shm_prefix_from_env() {
  if (const auto prefix = env::get("ORCA_SHM_PREFIX")) {
    if (!prefix->empty() && prefix->find('/') == std::string::npos) {
      return *prefix;
    }
    std::fprintf(stderr,
                 "ORCA: ignoring invalid ORCA_SHM_PREFIX=\"%s\" (expected "
                 "a non-empty name without '/'); keeping orca\n",
                 prefix->c_str());
  }
  return "orca";
}

bool RuntimeConfig::parse_fork_mode(const std::string& text, ForkMode* mode) {
  const std::string s = ascii_lower(text);
  if (s == "disable" || s == "disabled" || s == "off") {
    *mode = ForkMode::kDisable;
  } else if (s == "rearm" || s == "re-arm" || s == "on") {
    *mode = ForkMode::kRearm;
  } else {
    return false;
  }
  return true;
}

long RuntimeConfig::env_long(const char* name, long fallback, long min_value,
                             const char* expected) {
  // The implementation lives in env::long_or (common/env.hpp) so code
  // that does not link orca_runtime — orcamon in particular — parses its
  // knobs with the identical warn-and-default diagnostic.
  return env::long_or(name, fallback, min_value, expected);
}

std::size_t RuntimeConfig::env_size(const char* name, std::size_t fallback,
                                    const char* expected) {
  return static_cast<std::size_t>(
      env_long(name, static_cast<long>(fallback), 1, expected));
}

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig cfg;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.num_threads = env::get_int("OMP_NUM_THREADS", static_cast<int>(hw));
  cfg.num_threads = std::max(1, cfg.num_threads);
  cfg.max_threads = std::max(
      cfg.num_threads, env::get_int("OMP_THREAD_LIMIT", cfg.max_threads));
  cfg.nested = env::get_bool("OMP_NESTED", cfg.nested);
  cfg.atomic_events = env::get_bool("ORCA_ATOMIC_EVENTS", cfg.atomic_events);
  cfg.ordered_events = env::get_bool("ORCA_ORDERED_EVENTS", cfg.ordered_events);
  cfg.tasking = env::get_bool("ORCA_TASKING", cfg.tasking);
  cfg.per_thread_queues =
      env::get_bool("ORCA_PER_THREAD_QUEUES", cfg.per_thread_queues);
  if (const auto delivery = env::get("ORCA_EVENT_DELIVERY")) {
    cfg.event_delivery =
        parse_event_delivery(*delivery, cfg.event_delivery);
  }
  cfg.event_ring_capacity =
      env_size("ORCA_EVENT_RING_CAPACITY", cfg.event_ring_capacity,
               "a positive record count");
  if (const auto policy = env::get("ORCA_EVENT_BACKPRESSURE")) {
    cfg.event_backpressure =
        parse_backpressure(*policy, cfg.event_backpressure);
  }
  if (const auto sched = env::get("OMP_SCHEDULE")) {
    cfg.runtime_schedule = parse_schedule(*sched);
  }
  // Telemetry knobs warn-and-default instead of silently falling back: a
  // profiling run with a typo'd mode would otherwise record nothing and
  // look like a runtime bug.
  env_parsed(
      "ORCA_TELEMETRY",
      [&cfg](const std::string& text) {
        return parse_telemetry_mode(text, &cfg.telemetry_timeline,
                                    &cfg.telemetry_metrics);
      },
      "off|metrics|timeline|full", "telemetry off");
  cfg.telemetry_ring_capacity =
      env_size("ORCA_TELEMETRY_RING", cfg.telemetry_ring_capacity,
               "a positive record count");
  if (const auto report = env::get("ORCA_TELEMETRY_REPORT")) {
    cfg.telemetry_report = *report;
  }
  if (const auto trace = env::get("ORCA_TELEMETRY_TRACE")) {
    cfg.telemetry_trace = *trace;
  }
  // Shm export knobs (docs/FLEET.md) are env-backed *defaults* — read at
  // RuntimeConfig construction, so they reach every process in a fleet,
  // not just from_env() callers.
  // Resilience knobs use the same warn-and-default contract: a typo'd
  // value must never silently disarm crash dumps or the watchdog.
  if (const auto dump = env::get("ORCA_CRASH_DUMP")) {
    cfg.crash_dump = *dump;
  }
  cfg.callback_deadline_ms = static_cast<int>(
      env_long("ORCA_CALLBACK_DEADLINE_MS", cfg.callback_deadline_ms, 0,
               "a non-negative millisecond count"));
  env_parsed(
      "ORCA_FORK_MODE",
      [&cfg](const std::string& text) {
        return parse_fork_mode(text, &cfg.fork_mode);
      },
      "disable|rearm", "disable");
  if (const auto barrier = env::get("ORCA_BARRIER")) {
    std::fprintf(stderr,
                 "ORCA: ignoring ORCA_BARRIER=\"%s\" (retired: the team "
                 "barrier picks centralized or dissemination per region)\n",
                 barrier->c_str());
  }
  return cfg;
}

}  // namespace orca::rt
