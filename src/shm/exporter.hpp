/// \file exporter.hpp
/// In-process side of the shm export layer (docs/FLEET.md): maps a named
/// segment in /dev/shm and mirrors the runtime's event stream, SIGPROF
/// samples, telemetry metrics, and crash-dump state into it so an external
/// daemon (orcamon) can attach at any time.
///
/// Arming is process-global and reference-counted, exactly like
/// telemetry::arm(): MiniMPI ranks each own a Runtime inside one process,
/// and they all share one segment. The first Runtime whose config sets
/// `shm_export` creates the segment; the last one out finalizes and
/// unlinks it.
///
/// The disarmed hot path is one acquire load + branch (the same budget as
/// the telemetry hooks — see DESIGN.md §5.1): `mirror_event` reads a
/// process-global exporter pointer and returns when it is null. Armed, the
/// push is wait-free and async-signal-safe (layout.hpp's broadcast push),
/// so the SIGPROF sampler mirrors through the same hook.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace orca::shm {

struct SegmentHeader;

/// Creation-time options, filled from RuntimeConfig by the runtime.
struct ExporterOptions {
  /// Segment name *without* the leading slash: "<prefix>.<pid>.<seq>".
  std::string name;
  std::string label;                   ///< display name for fleet reports
  std::uint32_t ring_count = 65;       ///< one per thread slot (gtid)
  /// Rings 0..warm_rings-1 (the team's gtids; ring 0 always) are backed
  /// at arm: tmpfs blocks reserved, cells prefaulted. A record for any
  /// other ring goes to ring 0, and the next heartbeat backs its ring.
  /// The runtime sets its team size; the default backs every ring.
  std::uint32_t warm_rings = UINT32_MAX;
  std::uint32_t event_capacity = 4096; ///< cells per event ring
  std::uint32_t sample_capacity = 1024;
  std::uint32_t crash_capacity = 4096; ///< crash-region text bytes
  std::uint32_t heartbeat_ms = 50;
};

class ShmExporter;

namespace detail {
/// Process-global armed exporter. Plain namespace-scope atomic so the
/// disarmed fast path has no guard variable.
extern std::atomic<ShmExporter*> g_exporter;

/// Out-of-line armed paths (exporter.cpp) so the inline hooks stay tiny.
void publish_event(ShmExporter* e, int tid, int event) noexcept;
void publish_sample(ShmExporter* e, int tid, int state,
                    std::uint64_t region) noexcept;
}  // namespace detail

inline bool export_armed() noexcept {
  return detail::g_exporter.load(std::memory_order_acquire) != nullptr;
}

/// Hot hook: mirror one collector event into the shm segment. Disarmed
/// cost is the single load + branch; armed cost is one clock read and one
/// wait-free broadcast push. Safe from signal handlers.
inline void mirror_event(int tid, int event) noexcept {
  ShmExporter* e = detail::g_exporter.load(std::memory_order_acquire);
  if (e == nullptr) return;
  detail::publish_event(e, tid, event);
}

/// Same, for SIGPROF samples (state + current region id).
inline void mirror_sample(int tid, int state, std::uint64_t region) noexcept {
  ShmExporter* e = detail::g_exporter.load(std::memory_order_acquire);
  if (e == nullptr) return;
  detail::publish_sample(e, tid, state, region);
}

// ---------------------------------------------------------------------------
// Process-global arming (refcounted).

/// Arm the process exporter. The first call creates the segment (later
/// calls just bump the refcount; their options are ignored — one process,
/// one segment). Returns false when segment creation failed, in which case
/// the refcount is *not* taken and the runtime runs without export.
bool arm(const ExporterOptions& opts);

/// Balance one successful arm(). The last disarm finalizes the segment
/// (producer_state = kFinalized, final telemetry mirror + totals), stops
/// the heartbeat, and unlinks the name. Attached readers keep their
/// mapping; new readers get ENOENT.
void disarm();

/// Name of the armed segment ("" when disarmed) — tests and diagnostics.
std::string armed_segment_name();

/// "<prefix>.<pid>.<seq>" with a process-unique seq, the canonical segment
/// name shape discover_segments() and the stale-segment reaper parse.
std::string default_segment_name(const std::string& prefix);

/// Async-signal-safe postmortem: write the crash section into the shm
/// crash region (kind = postmortem) and, when `fd >= 0`, mirror the same
/// key/value lines into the crash-dump file. One-shot; later calls no-op.
/// Wired into resilience::register_crash_section by the runtime.
void crash_postmortem(int fd) noexcept;

// ---------------------------------------------------------------------------
// Stale-segment hygiene (satellite: crashed runs leave /orca.* behind).

/// Unlink every "/dev/shm/<prefix>.<pid>.*" segment whose owner pid (parsed
/// from the name) no longer exists (kill(pid, 0) == ESRCH). Segments with
/// unparseable names or live owners are left alone. Returns the number of
/// segments removed. Called by the runtime before arming and by ci.sh
/// (shell equivalent) before test runs.
std::size_t cleanup_stale_segments(const std::string& prefix);

}  // namespace orca::shm
