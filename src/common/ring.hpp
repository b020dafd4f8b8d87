/// \file ring.hpp
/// The one bounded ring ORCA hands fixed-size records through: seq-stamped
/// 32-byte cells, a producer `tail`, and readers that keep private cursors
/// and book their own loss. The shm export segment (shm/layout.hpp) places
/// it in a named mapping that orcamon polls; async event delivery
/// (collector/async.hpp) places it in a private anonymous mapping
/// (`LocalRing`) with one in-process reader.
///
///   push(rec):  pos = claim a position on tail
///               cell.seq = 0; cell.{ns,a,b} = rec; cell.seq = pos + 1
///   poll(cur):  accept cell only when seq == cur+1 before *and* after
///               copying the payload (seqlock validation); a reader that
///               fell behind computes its loss from the published tail
///               (lost = (tail - capacity) - cur) and jumps forward.
///
/// A cell of all zero bytes is an empty cell: seq 0 is no position's
/// stamp, so a reader treats it as not yet published. Fresh zero pages
/// therefore need no construction, and both placements rely on it:
/// `LocalRing`'s anonymous mapping and the shm segment's fresh `O_EXCL`
/// file never initialise their cells, so a ring nobody uses costs no
/// memory.
///
/// Readers never write to the cells, so a reader that dies mid-copy never
/// wedges the producer — the property a ring shared across processes
/// needs. A crashed producer leaves at most one mid-write cell, which
/// readers skip and count as lost. Every store on the push path is a plain
/// release store, so the SIGPROF sampler can publish through it.
///
/// `ring_push` claims with a wait-free `fetch_add`, so a signal handler
/// can re-enter it, but is sound for one producer per ring at a time: one
/// descheduled between claim and stores can stamp a cell back a lap after
/// another published there. `LocalRing`, whose slots producers share,
/// claims with a CAS on `tail` once the cell is free: its previous lap is
/// published (kOverwriteOldest), or the reader's `read` leaves room.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"

namespace orca::ring {

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "ring cells need address-free 64-bit atomics");

/// One decoded ring record, as a reader hands it out.
struct Record {
  std::uint64_t ns = 0;   ///< producer timestamp (clock chosen by the user)
  std::int32_t event = 0; ///< OMP_COLLECTORAPI_EVENT, or sampler state
  std::int32_t tid = 0;   ///< producer thread slot (gtid)
  std::uint64_t arg = 0;  ///< sampler: current region id; events: unused
};

/// One 32-byte cell. Payload fields are atomics with relaxed ordering (not
/// a seqlock over plain memory) so the cross-process torn read is defined
/// behaviour and TSan-clean in the in-process tests.
struct RingCell {
  std::atomic<std::uint64_t> seq;  ///< 0 = empty/mid-write, pos+1 = holds pos
  std::atomic<std::uint64_t> ns;
  std::atomic<std::uint64_t> a;    ///< packed (event << 32) | u32(tid)
  std::atomic<std::uint64_t> b;    ///< arg
};
static_assert(sizeof(RingCell) == 32, "cell layout is part of the shm ABI");

/// Per-ring producer bookkeeping, one cacheline so producers on different
/// rings never false-share.
struct alignas(64) RingHeader {
  std::atomic<std::uint64_t> tail;  ///< next position to claim == produced
  std::uint64_t pad_[7];
};
static_assert(sizeof(RingHeader) == 64, "header layout is part of the shm ABI");

/// What a producer does when its ring is full.
enum class Backpressure {
  kBlock,            ///< wait for the reader to free a cell (lossless)
  kDropNewest,       ///< reject the incoming record, count it dropped
  kOverwriteOldest,  ///< lap the oldest unread record, count it overwritten
};

// ---------------------------------------------------------------------------
// Producer side. `mask = capacity - 1`.

/// Writes `rec` into `c` and publishes it as position `pos`.
inline void ring_store(RingCell& c, std::uint64_t pos,
                       const Record& rec) noexcept {
  // Release stores throughout: the invalidation (seq = 0) must become
  // visible no later than the payload, or a reader could revalidate a
  // stale seq against a half-new payload. On x86 these are plain stores.
  c.seq.store(0, std::memory_order_release);
  c.ns.store(rec.ns, std::memory_order_release);
  c.a.store(std::uint64_t{static_cast<std::uint32_t>(rec.event)} << 32 |
                static_cast<std::uint32_t>(rec.tid),
            std::memory_order_release);
  c.b.store(rec.arg, std::memory_order_release);
  c.seq.store(pos + 1, std::memory_order_release);
}

/// Wait-free lapping push: never fails, overwrites the oldest unread cell
/// when the ring is full.
inline void ring_push(RingHeader& h, RingCell* cells, std::uint64_t mask,
                      const Record& rec) noexcept {
  const std::uint64_t pos = h.tail.fetch_add(1, std::memory_order_relaxed);
  ring_store(cells[pos & mask], pos, rec);
}

// ---------------------------------------------------------------------------
// Reader side: private cursor + honest loss book.

/// One reader's position in one ring. Readers never write to the ring, so
/// any number of cursors can watch the same ring — but one cursor must
/// only ever be advanced by one thread at a time.
struct Cursor {
  std::uint64_t next = 0;  ///< position of the next record to read
  std::uint64_t read = 0;  ///< records successfully copied out
  std::uint64_t lost = 0;  ///< records overwritten before we got to them
};

enum class Poll {
  kEmpty,   ///< nothing new (or the next cell is mid-write; retry later)
  kRecord,  ///< *out holds the record at position `cur.next - 1`
  kLost,    ///< fell behind; loss was counted and the cursor resynced
};

inline Poll ring_poll(const RingHeader& h, const RingCell* cells,
                      std::uint64_t mask, std::uint64_t capacity, Cursor& cur,
                      Record* out) noexcept {
  // A cell that holds `next` needs no look at the tail, the producer's
  // line: an in-process reader keeping pace then never pulls it away.
  const RingCell* c = &cells[cur.next & mask];
  std::uint64_t s1 = c->seq.load(std::memory_order_acquire);
  if (s1 != cur.next + 1) {
    const std::uint64_t tail = h.tail.load(std::memory_order_acquire);
    if (cur.next >= tail) return Poll::kEmpty;
    if (tail > capacity && cur.next < tail - capacity) {
      // The producer lapped us: everything up to tail - capacity is gone.
      const std::uint64_t oldest = tail - capacity;
      cur.lost += oldest - cur.next;
      cur.next = oldest;
    }
    c = &cells[cur.next & mask];
    s1 = c->seq.load(std::memory_order_acquire);
  }
  if (s1 != cur.next + 1) {
    if (s1 > cur.next + 1) {
      // Overwritten between the tail check and here; resync forward.
      const std::uint64_t now_holds = s1 - 1;       // position in the cell
      const std::uint64_t oldest = now_holds >= capacity
                                       ? now_holds - capacity + 1
                                       : 0;
      const std::uint64_t jump = oldest > cur.next ? oldest : cur.next + 1;
      cur.lost += jump - cur.next;
      cur.next = jump;
      return Poll::kLost;
    }
    // seq is 0 (mid-write) or a previous lap's stamp: the producer claimed
    // this position but has not finished publishing it. Retry later.
    return Poll::kEmpty;
  }
  out->ns = c->ns.load(std::memory_order_relaxed);
  const std::uint64_t a = c->a.load(std::memory_order_relaxed);
  out->arg = c->b.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (c->seq.load(std::memory_order_relaxed) != s1) {
    // Torn: the producer lapped us mid-copy. Count it and move on.
    cur.lost += 1;
    cur.next += 1;
    return Poll::kLost;
  }
  out->event = static_cast<std::int32_t>(static_cast<std::uint32_t>(a >> 32));
  out->tid = static_cast<std::int32_t>(static_cast<std::uint32_t>(a));
  cur.next += 1;
  cur.read += 1;
  return Poll::kRecord;
}

/// Once the producer is dead or finalized and a drain pass made no
/// progress, books whatever is still unread as lost, so
/// produced == read + lost holds exactly.
inline void cursor_finalize(const RingHeader& h, Cursor& cur) noexcept {
  const std::uint64_t tail = h.tail.load(std::memory_order_acquire);
  if (cur.next < tail) {
    cur.lost += tail - cur.next;
    cur.next = tail;
  }
}

// ---------------------------------------------------------------------------
// In-process placement.

/// A ring's books. Once the reader has caught up,
/// submitted == delivered + overwritten.
struct RingStats {
  std::uint64_t submitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t overwritten = 0;
  std::uint64_t delivered = 0;
};

/// One ring in a private anonymous mapping with one reader, which keeps its
/// own `Cursor` and calls poll(), then retire() once the record is handled.
/// The books are positions: `submitted` is `tail`, `delivered` and `lost`
/// are the reader's, and only `dropped` is a counter of its own.
class LocalRing {
 public:
  /// Capacity rounds up to a power of two, minimum 4. The cells are fresh
  /// zero pages (the zero-cell invariant above), in RSS only once written;
  /// std::bad_alloc when the mapping fails.
  explicit LocalRing(std::size_t capacity) {
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 4));
    void* mem = ::mmap(nullptr, cap * sizeof(RingCell),
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    cells_ = static_cast<RingCell*>(mem);
    mask_ = cap - 1;
  }

  ~LocalRing() { ::munmap(cells_, capacity() * sizeof(RingCell)); }

  LocalRing(const LocalRing&) = delete;
  LocalRing& operator=(const LocalRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Appends `rec` under `policy`; false when it was dropped and counted
  /// (kDropNewest, or kBlock after close(), on a full ring). `on_wait()`
  /// runs each time the push must wait for its cell (a full ring, or a
  /// store a lap behind still in flight), before it backs off.
  template <typename OnWait = void (*)()>
  bool push(const Record& rec, Backpressure policy,
            OnWait on_wait = [] {}) noexcept {
    const bool lapping = policy == Backpressure::kOverwriteOldest;
    Backoff backoff;
    std::uint64_t pos = header_.tail.load(std::memory_order_relaxed);
    for (;;) {
      if (!(lapping ? lap_published(pos) : has_room(pos))) {
        const std::uint64_t now = header_.tail.load(std::memory_order_relaxed);
        if (now == pos) {  // not a stale `pos`: the cell is really taken
          if (policy == Backpressure::kDropNewest ||
              (!lapping && closed_.load(std::memory_order_acquire))) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
          on_wait();
          backoff.pause();
        }
        pos = now;
      } else if (header_.tail.compare_exchange_weak(
                     pos, pos + 1, std::memory_order_relaxed)) {
        ring_store(cells_[pos & mask_], pos, rec);
        return true;
      }
    }
  }

  /// From close() on, a kBlock push that finds the ring full is dropped.
  void close() noexcept { closed_.store(true, std::memory_order_release); }
  void reopen() noexcept { closed_.store(false, std::memory_order_release); }

  /// ring_poll, then publish how far `cur` has read: the cells behind it
  /// are free.
  Poll poll(Cursor& cur, Record* out) noexcept {
    const std::uint64_t before = cur.next;
    const Poll p = ring_poll(header_, cells_, mask_, capacity(), cur, out);
    if (cur.next != before) read_.store(cur.next, std::memory_order_release);
    return p;
  }

  /// The record poll() returned last was handled: publish `cur`'s books.
  void retire(const Cursor& cur) noexcept {
    lost_.store(cur.lost, std::memory_order_release);
    delivered_.store(cur.read, std::memory_order_release);
  }

  /// Exact once producers and the reader are quiet. A lap the reader has
  /// not polled yet already counts as overwritten.
  RingStats stats() const noexcept {
    RingStats s;
    s.submitted = header_.tail.load(std::memory_order_acquire);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    // retire() stores lost, then delivered; poll() stores read before
    // either. Loading in the reverse order gives read >= delivered + lost.
    s.delivered = delivered_.load(std::memory_order_acquire);
    const std::uint64_t lost = lost_.load(std::memory_order_acquire);
    const std::uint64_t read = read_.load(std::memory_order_acquire);
    s.overwritten = lost + (s.submitted > read + capacity()
                                ? s.submitted - read - capacity()
                                : 0);
    return s;
  }

  /// submitted == delivered + overwritten, read off two cachelines: an
  /// unpolled lap keeps `read` (>= delivered + lost) over a capacity behind
  /// `tail`, so it holds exactly when tail == delivered + lost, both of
  /// which only grow and sum to the reader's position at each retire().
  bool settled() const noexcept {
    const std::uint64_t tail = header_.tail.load(std::memory_order_acquire);
    const std::uint64_t delivered = delivered_.load(std::memory_order_acquire);
    return tail == delivered + lost_.load(std::memory_order_acquire);
  }

  /// Records claimed and not yet read, at most the capacity; 0 = empty.
  std::size_t size() const noexcept {
    const std::uint64_t tail = header_.tail.load(std::memory_order_acquire);
    const std::uint64_t read = read_.load(std::memory_order_acquire);
    return tail <= read ? 0 : std::min<std::uint64_t>(tail - read, capacity());
  }

 private:
  /// kOverwriteOldest: `pos`'s cell holds lap `pos - capacity` (seq 0 on
  /// the first lap), so no producer is still storing to it.
  bool lap_published(std::uint64_t pos) const noexcept {
    const std::uint64_t prev = pos < capacity() ? 0 : pos + 1 - capacity();
    return cells_[pos & mask_].seq.load(std::memory_order_acquire) == prev;
  }

  /// `pos - read < capacity`, from the cached `read_seen_` unless that says
  /// full. A stale `pos` can read as room (the CAS then fails), never full.
  bool has_room(std::uint64_t pos) noexcept {
    const auto cap = static_cast<std::int64_t>(capacity());
    if (static_cast<std::int64_t>(
            pos - read_seen_.load(std::memory_order_acquire)) < cap) {
      return true;
    }
    const std::uint64_t read = read_.load(std::memory_order_acquire);
    read_seen_.store(read, std::memory_order_release);
    return static_cast<std::int64_t>(pos - read) < cap;
  }

  RingHeader header_{};  ///< producers' line: tail
  RingCell* cells_ = nullptr;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> read_seen_{0};  ///< written only near full
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> closed_{false};
  /// The reader's line.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> read_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> lost_{0};
};

}  // namespace orca::ring
