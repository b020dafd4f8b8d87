/// \file reader.hpp
/// Out-of-process side of the shm export layer: discover segments in
/// /dev/shm, attach (read-only where possible — readers never need to
/// store into the segment beyond the diagnostic attach counter), drain
/// the broadcast rings with private cursors, watch the sense-reversing
/// heartbeat, and salvage the crash region when the producer dies. This
/// is what orcamon (src/tool/orcamon) is built from.
///
/// ## Trust boundary
///
/// The producer is another process and may be buggy, crashed, or hostile.
/// Attach therefore runs the deep structural validation in validate.hpp
/// and then *snapshots* every geometry field (offsets, capacities, label,
/// owner pid) into the reader: polls dereference only the validated
/// snapshot, so a producer that rewrites its header after we attached can
/// lie in reports at worst — it can never redirect a cursor outside the
/// mapping. Only the handshake atomics (ready, producer_state, heartbeat,
/// published totals) and the ring tails are ever re-read from the shared
/// mapping. The one hazard validation cannot close — the file shrinking
/// under the mapping, which turns loads into SIGBUS — is handled by
/// `revalidate()` (cheap fstat on the kept fd) plus sigbus_guard.hpp
/// around the drain paths.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shm/layout.hpp"

namespace orca::shm {

/// One discovered segment name (no leading slash) + the owner pid parsed
/// out of it.
struct SegmentName {
  std::string name;
  std::int64_t pid = 0;
};

/// Scan /dev/shm for "<prefix>.<pid>.<seq>" segments, sorted by name.
std::vector<SegmentName> discover_segments(const std::string& prefix);

/// Typed attach failure, so callers can pick a policy per class instead
/// of string-matching: transient failures are retried with backoff,
/// corrupt segments are quarantined immediately, vanished ones dropped.
struct AttachError {
  enum class Kind {
    kNone,       ///< no failure recorded
    kNotFound,   ///< ENOENT: unlinked between discovery and open
    kTransient,  ///< mid-initialization (ready == 0) or racing a resize
    kCorrupt,    ///< failed structural validation; retrying is pointless
    kIo,         ///< open/stat/mmap failed for a system-level reason
  };
  Kind kind = Kind::kNone;
  std::string message;

  bool retryable() const noexcept {
    return kind == Kind::kTransient || kind == Kind::kIo;
  }
};

const char* attach_error_kind_name(AttachError::Kind kind) noexcept;

/// Consistent telemetry-mirror snapshot (seqlock copy-out).
struct MirrorSnapshot {
  bool torn = false;  ///< producer died mid-write; values are best-effort
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> gauges;
};

/// Crash-region salvage.
struct CrashSalvage {
  std::uint32_t kind = 0;  ///< kCrashEmpty / kCrashSnapshot / kCrashPostmortem
  bool torn = false;       ///< producer died mid-snapshot
  std::uint64_t ns = 0;    ///< producer clock at last write
  std::string text;        ///< the key/value body
};

/// Producer liveness as judged by the heartbeat watch + kill(pid, 0).
enum class Liveness {
  kAlive,      ///< sense still flipping (or within the grace window)
  kFinalized,  ///< producer declared a clean shutdown
  kDead,       ///< pulse stopped and the owner pid is gone
  kStalled,    ///< pulse stopped past the hard deadline, pid still exists
};

/// Attached view of one producer segment. Not thread-safe as a whole —
/// the fleet monitor partitions rings across shards, and each Cursor must
/// be driven by one thread at a time; the underlying mapping is immutable
/// from this side, so concurrent polls of *different* cursors are fine.
class SegmentReader {
 public:
  /// Map "<name>" (no leading slash). Returns nullptr with the failure
  /// class in *err (when non-null) on ENOENT, a failed deep validation
  /// (validate.hpp), or a truncated segment. Attaching
  /// mid-initialization (ready == 0) fails kTransient: retry later.
  static std::unique_ptr<SegmentReader> attach(const std::string& name,
                                               AttachError* err);

  /// Legacy convenience: message-only error reporting.
  static std::unique_ptr<SegmentReader> attach(const std::string& name,
                                               std::string* error = nullptr);

  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  const std::string& name() const noexcept { return name_; }
  std::int64_t owner_pid() const noexcept { return owner_pid_; }
  const std::string& label() const noexcept { return label_; }
  std::uint32_t ring_count() const noexcept { return geom_.ring_count; }
  std::uint64_t created_ns() const noexcept { return created_ns_; }
  std::uint64_t events_published() const noexcept;
  std::uint64_t samples_published() const noexcept;
  ProducerState producer_state() const noexcept;

  /// True while the reader could write into the mapping (the attach
  /// counter bump); false when the segment was opened read-only.
  bool writable() const noexcept { return writable_; }

  /// Re-check that the file behind the mapping is still at least as large
  /// as what we mapped (cheap fstat on the kept fd). False — with a
  /// reason in *why when non-null — means the producer truncated the
  /// segment: every further dereference risks SIGBUS and the caller
  /// should quarantine this reader.
  bool revalidate(std::string* why = nullptr) const noexcept;

  /// Poll one record off the given event/sample ring using the reader's
  /// own cursor for it. Cursors live in the reader (one per ring per
  /// bank), created at attach time.
  Poll poll_event(std::uint32_t ring, Record* out) noexcept;
  Poll poll_sample(std::uint32_t ring, Record* out) noexcept;

  const Cursor& event_cursor(std::uint32_t ring) const noexcept {
    return event_cursors_[ring];
  }
  const Cursor& sample_cursor(std::uint32_t ring) const noexcept {
    return sample_cursors_[ring];
  }

  /// Charge everything still unread on `ring` to the loss books (call
  /// only after the producer is dead/finalized and a drain pass made no
  /// progress).
  void finalize_ring(std::uint32_t ring) noexcept;

  /// Summed loss books across every ring of both banks.
  std::uint64_t total_read() const noexcept;
  std::uint64_t total_lost() const noexcept;
  /// Records the producer claims to have pushed (heartbeat-refreshed sum
  /// of ring tails — exact once finalized/dead and drained).
  std::uint64_t total_produced() const noexcept;

  /// Heartbeat watch: call periodically; it tracks the last sense flip
  /// against the *caller's* clock. `now_ns` is the caller's SteadyClock.
  /// The producer is suspect after `grace` missed intervals (default 8)
  /// and declared dead only when its pid is also gone — unless
  /// `stall_deadline_ns` > 0 and the pulse has been quiet that long, in
  /// which case a live-pid producer is reported kStalled and the caller
  /// picks the policy (orcamon treats it as dead for draining purposes).
  Liveness check_liveness(std::uint64_t now_ns, unsigned grace = 8,
                          std::uint64_t stall_deadline_ns = 0) noexcept;

  MirrorSnapshot telemetry_snapshot() const;
  CrashSalvage salvage_crash() const;

  /// Unlink the segment name (reaping a dead producer). The mapping —
  /// ours and any other reader's — survives; only the name goes away.
  bool unlink_segment() noexcept;

 private:
  SegmentReader() = default;

  /// Validated attach-time copy of the producer's geometry. Poll paths
  /// dereference only these — never the live header fields.
  struct Snapshot {
    std::uint32_t ring_count = 0;
    std::uint32_t event_capacity = 0;
    std::uint32_t sample_capacity = 0;
    std::uint32_t crash_capacity = 0;
    std::uint64_t event_headers_off = 0;
    std::uint64_t sample_headers_off = 0;
    std::uint64_t event_cells_off = 0;
    std::uint64_t sample_cells_off = 0;
    std::uint64_t telemetry_off = 0;
    std::uint64_t crash_off = 0;
    std::uint32_t heartbeat_interval_ms = 0;
  };

  const SegmentHeader* header() const noexcept {
    return reinterpret_cast<const SegmentHeader*>(base_);
  }
  const RingHeader* ring_header(std::uint64_t off,
                                std::uint32_t ring) const noexcept {
    return reinterpret_cast<const RingHeader*>(base_ + off) + ring;
  }
  const RingCell* ring_cells(std::uint64_t off, std::uint32_t ring,
                             std::uint32_t capacity) const noexcept {
    return reinterpret_cast<const RingCell*>(base_ + off) +
           static_cast<std::size_t>(ring) * capacity;
  }
  Poll poll_bank(std::uint64_t headers_off, std::uint64_t cells_off,
                 std::uint32_t capacity, Cursor& cur, std::uint32_t ring,
                 Record* out) noexcept;

  std::string name_;
  const char* base_ = nullptr;
  std::uint64_t mapped_bytes_ = 0;
  int fd_ = -1;          ///< kept open for revalidate()
  bool writable_ = false;
  Snapshot geom_;
  std::string label_;
  std::int64_t owner_pid_ = 0;
  std::uint64_t created_ns_ = 0;
  std::vector<Cursor> event_cursors_;
  std::vector<Cursor> sample_cursors_;

  // Heartbeat watch state (single caller by contract).
  std::uint32_t last_sense_ = 0;
  std::uint64_t last_flip_local_ns_ = 0;
};

}  // namespace orca::shm
