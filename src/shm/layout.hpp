/// \file layout.hpp
/// On-disk (well, on-/dev/shm) layout of one ORCA export segment, shared
/// verbatim by the in-process exporter (src/shm/exporter.cpp), the
/// out-of-process reader (src/shm/reader.cpp, orcamon), and the drain
/// bench. Everything here is position-independent POD + lock-free
/// std::atomics, because the two sides of the segment are different
/// processes with different address spaces and independent lifetimes.
///
/// Segment anatomy (offsets carried in the header, never recomputed by
/// readers, so the two builds need not agree on padding):
///
///   [SegmentHeader]                       magic/version/geometry, the
///                                         attach + heartbeat handshake
///   [RingHeader x ring_count]             event rings (one per thread slot)
///   [RingHeader x ring_count]             sample rings (SIGPROF mirror)
///   [RingCell x ring_count x event_cap]   event cells
///   [RingCell x ring_count x sample_cap]  sample cells
///   [TelemetryMirror]                     seqlock'd metrics snapshot
///   [CrashRegion + text bytes]            shm-resident crash-dump section
///
/// ## Ring protocol
///
/// common/ring.hpp's, placed here: the producer laps (`ring_push`) and
/// never looks at its readers. `Record::ns` is a SteadyClock stamp.
///
/// ## Attach / heartbeat handshake
///
/// `ready` flips 0 -> 1 once the creator finished initializing (release;
/// readers acquire). Liveness is a sense-reversing pulse: every beat the
/// producer flips `heartbeat_sense` and stamps `heartbeat_ns`; a reader
/// watches for the *flip* with its own clock, so no cross-process clock
/// comparison is needed — a sense that stops flipping for a few intervals
/// marks the producer suspect, and kill(pid, 0) == ESRCH confirms death.
/// `producer_state` moves kInitializing -> kActive -> kFinalized on clean
/// shutdown; a crash simply stops the pulse.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/ring.hpp"

namespace orca::shm {

/// "ORCASHM1" little-endian; bump the trailing digit on layout breaks.
inline constexpr std::uint64_t kMagic = 0x314D48534143524FULL;
inline constexpr std::uint32_t kVersion = 1;

/// Producer lifecycle advertised in the header.
enum class ProducerState : std::uint32_t {
  kInitializing = 0,  ///< segment mapped, geometry not yet published
  kActive = 1,        ///< heartbeat running, rings live
  kFinalized = 2,     ///< clean shutdown: rings quiescent, totals final
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm layout needs address-free 32-bit atomics");

using ring::Cursor;
using ring::cursor_finalize;
using ring::Poll;
using ring::Record;
using ring::ring_poll;
using ring::ring_push;
using ring::RingCell;
using ring::RingHeader;

// ---------------------------------------------------------------------------
// Telemetry mirror: a seqlock'd copy of the producer's metrics counters,
// refreshed by the heartbeat thread. Capacities are fixed so the layout
// does not move when the telemetry catalog grows; `counter_count` says how
// many slots are meaningful in this producer's build.

inline constexpr std::size_t kMirrorCounterCap = 32;
inline constexpr std::size_t kMirrorGaugeCap = 16;

struct TelemetryMirror {
  /// Seqlock version: odd while the heartbeat is writing. Readers retry;
  /// a dead producer frozen on an odd version is reported as torn.
  std::atomic<std::uint64_t> version;
  std::atomic<std::uint64_t> counter_count;
  std::atomic<std::uint64_t> gauge_count;
  std::atomic<std::uint64_t> counters[kMirrorCounterCap];
  std::atomic<std::uint64_t> gauges[kMirrorGaugeCap];
};

// ---------------------------------------------------------------------------
// Crash region: PR 5's crash-dump sections made shm-resident. Two writers:
//
//  * the heartbeat thread keeps a rolling *live snapshot* (kind 1) so even
//    a SIGKILL — where no handler can run — leaves salvageable state;
//  * the crash handler (SIGSEGV/SIGBUS/SIGABRT) writes a *postmortem*
//    (kind 2) through async-signal-safe stores; a postmortem is never
//    overwritten by later snapshots.
//
/// `version` is the same odd/even seqlock as the mirror; a producer killed
/// mid-snapshot leaves it odd and the salvager labels the text torn.

enum : std::uint32_t {
  kCrashEmpty = 0,
  kCrashSnapshot = 1,
  kCrashPostmortem = 2,
};

struct CrashRegion {
  std::atomic<std::uint32_t> kind;
  std::atomic<std::uint32_t> length;   ///< valid bytes in the text area
  std::atomic<std::uint64_t> ns;       ///< producer clock at last write
  std::atomic<std::uint64_t> version;  ///< odd while being written
  // `capacity` bytes of text follow this struct in the segment.
};

// ---------------------------------------------------------------------------
// Segment header.

struct SegmentHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t header_bytes;    ///< sizeof(SegmentHeader) in the producer
  std::uint64_t segment_bytes;   ///< total mapping size
  std::int64_t owner_pid;
  std::uint64_t created_ns;      ///< producer SteadyClock at creation

  std::uint32_t ring_count;          ///< rings per bank (thread slots)
  std::uint32_t event_capacity;      ///< cells per event ring (pow2)
  std::uint32_t sample_capacity;     ///< cells per sample ring (pow2)
  std::uint32_t crash_capacity;      ///< text bytes in the crash region

  std::uint64_t event_headers_off;
  std::uint64_t sample_headers_off;
  std::uint64_t event_cells_off;
  std::uint64_t sample_cells_off;
  std::uint64_t telemetry_off;
  std::uint64_t crash_off;

  char label[64];  ///< producer-chosen display name (NUL-terminated)

  // --- handshake (all atomics; everything above is written pre-ready) ---
  std::atomic<std::uint32_t> ready;            ///< 1 once geometry is final
  std::atomic<std::uint32_t> producer_state;   ///< ProducerState
  std::atomic<std::uint32_t> heartbeat_sense;  ///< flips every beat
  std::uint32_t heartbeat_interval_ms;
  std::atomic<std::uint64_t> heartbeat_ns;     ///< producer clock, last beat
  std::atomic<std::uint64_t> heartbeat_beats;
  std::atomic<std::uint32_t> readers_attached; ///< diagnostics only
  std::uint32_t pad0;
  std::atomic<std::uint64_t> events_published; ///< heartbeat-summed tails
  std::atomic<std::uint64_t> samples_published;
};

// ---------------------------------------------------------------------------
// Geometry: one place computes every offset; the header carries the result.

struct Geometry {
  std::uint32_t ring_count = 0;
  std::uint32_t event_capacity = 0;   ///< already rounded to a power of two
  std::uint32_t sample_capacity = 0;  ///< already rounded to a power of two
  std::uint32_t crash_capacity = 0;

  std::uint64_t event_headers_off = 0;
  std::uint64_t sample_headers_off = 0;
  std::uint64_t event_cells_off = 0;
  std::uint64_t sample_cells_off = 0;
  std::uint64_t telemetry_off = 0;
  std::uint64_t crash_off = 0;
  std::uint64_t total_bytes = 0;

  static std::uint32_t round_pow2(std::uint32_t v) noexcept {
    std::uint32_t p = 1;
    while (p < v && p < (1u << 30)) p <<= 1;
    return p;
  }

  static Geometry compute(std::uint32_t rings, std::uint32_t event_cap,
                          std::uint32_t sample_cap,
                          std::uint32_t crash_cap) noexcept {
    Geometry g;
    g.ring_count = rings == 0 ? 1 : rings;
    g.event_capacity = round_pow2(event_cap == 0 ? 1 : event_cap);
    g.sample_capacity = round_pow2(sample_cap == 0 ? 1 : sample_cap);
    g.crash_capacity = crash_cap;
    const std::uint64_t headers_bytes =
        align(static_cast<std::uint64_t>(g.ring_count) * sizeof(RingHeader));
    std::uint64_t off = align(sizeof(SegmentHeader));
    g.event_headers_off = off;
    off += headers_bytes;
    g.sample_headers_off = off;
    off += headers_bytes;
    g.event_cells_off = off;
    off += align(static_cast<std::uint64_t>(g.ring_count) * g.event_capacity *
                 sizeof(RingCell));
    g.sample_cells_off = off;
    off += align(static_cast<std::uint64_t>(g.ring_count) * g.sample_capacity *
                 sizeof(RingCell));
    g.telemetry_off = off;
    off += align(sizeof(TelemetryMirror));
    g.crash_off = off;
    off += align(sizeof(CrashRegion) + g.crash_capacity);
    g.total_bytes = off;
    return g;
  }

 private:
  static std::uint64_t align(std::uint64_t n) noexcept {
    return (n + 63) & ~std::uint64_t{63};
  }
};

}  // namespace orca::shm
