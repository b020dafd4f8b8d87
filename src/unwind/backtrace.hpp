/// \file backtrace.hpp
/// Callstack capture — ORCA's stand-in for libunwind (paper Sec. IV-F:
/// "Call-stack retrieval, using the open source library libunwind. New API
/// entry points, callable by the collector, provide instruction pointer
/// values for each stack frame at the point of inquiry").
///
/// `Callstack::capture` returns exactly the frames glibc `backtrace(3)`
/// would return from the same point (same order, same `kMaxFrames`
/// truncation, same trailing-NULL rule), but at frame-pointer-walk cost
/// once a calling context has been seen:
///
///  * **Frame-pointer walk over verified return addresses.** A global,
///    insert-only, lock-free table (`kReturnAddressSlots` entries) records
///    one verdict per return address: does the function containing it keep
///    a frame-pointer frame at that call site? The walk follows a saved
///    frame pointer only out of a frame whose return address is verified,
///    so it never dereferences a garbage frame pointer and never skips a
///    frame the DWARF unwinder would report.
///  * **Per-thread suffix memo.** Where the walk stops (code without frame
///    pointers: libc process or thread start, a foreign caller such as a
///    `qsort` comparator's caller), the remaining frames come from a small
///    per-thread memo keyed by the stopping frame's return-address slot
///    and value. A memo entry is used only if every return-address slot it
///    recorded still holds the recorded value.
///  * **Miss path.** Anything unknown runs `_Unwind_Backtrace` — the very
///    unwinder `backtrace(3)` drives — and returns its frames; the DWARF
///    CFAs it reports then fill the table and the memo. Because every
///    frame the fast path returns is either frame-pointer-verified against
///    an earlier DWARF unwind or re-validated memo output, the result
///    matches `backtrace(3)` frame for frame.
///
/// Caveats: the table is insert-only. If a shared object is `dlclose`d and
/// different code is later mapped at the same addresses, stale verdicts
/// can survive; the walk still refuses frame pointers that do not move
/// strictly up the stack, but frames from such code may be misreported.
/// The memo assumes each thread keeps one stack: code that switches to
/// stacks of its own (ucontext coroutines) and frees them is not supported.
/// Frames past a signal trampoline are never memoised, so captures inside
/// signal handlers always take the miss path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace orca::unwind {

/// Maximum frames a single capture retains. Deep enough for the NPB call
/// chains; bounded so captures stay allocation-free. As with
/// `backtrace(buf, kMaxFrames)`, the count includes capture's own frame,
/// so at most `kMaxFrames - 1` frames survive `skip = 0`.
inline constexpr std::size_t kMaxFrames = 64;

/// Slots of the process-wide return-address verdict table. When it is full,
/// unknown return addresses simply keep taking the DWARF miss path.
inline constexpr std::size_t kReturnAddressSlots = 4096;

/// A captured implementation-model callstack: raw instruction pointers,
/// innermost first.
class Callstack {
 public:
  /// Capture the calling thread's stack, skipping `skip` innermost frames
  /// (the capture machinery itself is always skipped).
  static Callstack capture(int skip = 0) noexcept;

  /// DWARF unwinds (miss-path captures) performed by the calling thread so
  /// far. Repeated captures in a seen context must not raise it.
  static std::uint64_t dwarf_unwinds() noexcept;

  std::size_t depth() const noexcept { return depth_; }
  bool empty() const noexcept { return depth_ == 0; }

  const void* frame(std::size_t i) const noexcept {
    // depth_ <= kMaxFrames always; the second test keeps the bound visible
    // to static analysis.
    return i < depth_ && i < kMaxFrames ? frames_[i] : nullptr;
  }

  const void* const* data() const noexcept { return frames_.data(); }

  /// Copy out as a vector (for offline storage).
  std::vector<const void*> to_vector() const {
    // Parenthesized on purpose: with braces, the two iterators would be
    // treated as an initializer_list<const void*> of their own addresses.
    return std::vector<const void*>(
        frames_.begin(), frames_.begin() + static_cast<long>(depth_));
  }

  /// Rebuild from stored frames (offline reconstruction path).
  static Callstack from_frames(std::span<const void* const> frames) noexcept;

 private:
  std::array<const void*, kMaxFrames> frames_{};
  std::size_t depth_ = 0;
};

}  // namespace orca::unwind
