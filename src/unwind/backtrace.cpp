#include "unwind/backtrace.hpp"

#include <unwind.h>

#include <algorithm>
#include <atomic>
#include <cstring>

namespace orca::unwind {
namespace {

/// Callers a capture can return: `backtrace(buf, kMaxFrames)` spends one
/// slot on capture's own frame.
constexpr std::size_t kMaxCallers = kMaxFrames - 1;

/// Linear-probe bound of the verdict table.
constexpr std::size_t kMaxProbes = 16;

/// Suffix memo entries per thread (round-robin replacement).
constexpr std::size_t kSuffixMemos = 4;

/// Frames one DWARF unwind collects: the callers plus the capture
/// machinery's own frames ahead of them.
constexpr std::size_t kTraceFrames = 2 * kMaxFrames;

/// The fast path relies on the x86-64 frame record: [fp] = caller's fp,
/// [fp + 8] = return address, and the frame's CFA 16 bytes above fp. Other
/// targets take the DWARF path on every capture.
#if defined(__x86_64__)
constexpr bool kFramePointerWalk = true;
#else
constexpr bool kFramePointerWalk = false;
#endif
constexpr std::uintptr_t kFrameRecordSize = 2 * sizeof(void*);

/// Where the return address of a frame whose callee's CFA is `cfa` lives:
/// the call pushed it just below.
const void* const* return_slot(std::uintptr_t cfa) noexcept {
  return reinterpret_cast<const void* const*>(cfa - sizeof(void*));
}

enum class Verdict { kUnknown, kNoFramePointer, kFramePointer };

/// Process-wide, insert-only, lock-free map from return address to
/// verdict. Each slot packs `ra << 1 | keeps_frame_pointer` into one word
/// (0 = empty), so a reader sees a key and its verdict together.
class ReturnAddressTable {
 public:
  Verdict lookup(const void* ra) const noexcept {
    const std::uintptr_t key = reinterpret_cast<std::uintptr_t>(ra);
    for (std::size_t i = 0, s = home(key); i < kMaxProbes; ++i, s = next(s)) {
      const std::uintptr_t v = slots_[s].load(std::memory_order_relaxed);
      if (v == 0) return Verdict::kUnknown;
      if ((v >> 1) == key) {
        return (v & 1) != 0 ? Verdict::kFramePointer : Verdict::kNoFramePointer;
      }
    }
    return Verdict::kUnknown;
  }

  void insert(const void* ra, bool keeps_frame_pointer) noexcept {
    const std::uintptr_t key = reinterpret_cast<std::uintptr_t>(ra);
    if (key == 0 || (key >> 63) != 0) return;  // not encodable: stays unknown
    const std::uintptr_t packed = key << 1 | (keeps_frame_pointer ? 1 : 0);
    for (std::size_t i = 0, s = home(key); i < kMaxProbes; ++i, s = next(s)) {
      std::uintptr_t v = slots_[s].load(std::memory_order_relaxed);
      if (v == 0 && slots_[s].compare_exchange_strong(
                        v, packed, std::memory_order_relaxed)) {
        return;
      }
      if ((v >> 1) == key) return;  // first verdict wins
    }
  }

 private:
  static_assert((kReturnAddressSlots & (kReturnAddressSlots - 1)) == 0);

  static std::size_t home(std::uintptr_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 40) &
           (kReturnAddressSlots - 1);
  }
  static std::size_t next(std::size_t s) noexcept {
    return (s + 1) & (kReturnAddressSlots - 1);
  }

  std::array<std::atomic<std::uintptr_t>, kReturnAddressSlots> slots_{};
};

constinit ReturnAddressTable g_verdicts;

/// The frames past one stopping frame, as one DWARF unwind reported them:
/// each return address and the stack slot it was read from.
struct SuffixMemo {
  const void* const* stop_slot = nullptr;  ///< key: nullptr = empty entry
  const void* stop_ra = nullptr;           ///< key: value of *stop_slot
  std::size_t count = 0;
  std::array<const void* const*, kMaxCallers> slots{};
  std::array<const void*, kMaxCallers> ips{};
};

struct ThreadUnwindState {
  std::array<SuffixMemo, kSuffixMemos> memos{};
  std::size_t next_victim = 0;
  std::uint64_t dwarf_unwinds = 0;
};

constinit thread_local ThreadUnwindState t_unwind;

/// Append the memoised suffix for the frame whose return address `ra` was
/// read from `slot`. Returns the new frame count, or 0 on a memo miss.
[[gnu::no_sanitize_address]] std::size_t append_suffix(
    const void* const* slot, const void* ra, const void** out,
    std::size_t n) noexcept {
  for (const SuffixMemo& m : t_unwind.memos) {
    if (m.stop_slot != slot || m.stop_ra != ra) continue;
    const std::size_t take = std::min(m.count, kMaxCallers - n);
    for (std::size_t j = 0; j < take; ++j) {
      if (*m.slots[j] != m.ips[j]) return 0;  // the outer stack changed
      out[n + j] = m.ips[j];
    }
    return n + take;
  }
  return 0;
}

/// Frame-pointer walk from capture's own frame `fp`: writes capture's
/// callers to `out`. Returns their count, or 0 when the walk meets a return
/// address without a verdict (or a memo miss) and needs the DWARF unwinder.
[[gnu::no_sanitize_address]] std::size_t fast_walk(
    const void* const* fp, const void** out) noexcept {
  std::size_t n = 0;
  for (;;) {
    const void* ra = fp[1];
    out[n++] = ra;
    if (n == kMaxCallers) return n;
    switch (g_verdicts.lookup(ra)) {
      case Verdict::kFramePointer: {
        const auto* caller = static_cast<const void* const*>(fp[0]);
        // Verified frames only move up the stack; anything else means a
        // stale verdict (see the dlclose caveat) — let DWARF decide.
        if (caller <= fp ||
            reinterpret_cast<std::uintptr_t>(caller) % alignof(void*) != 0) {
          return 0;
        }
        fp = caller;
        break;
      }
      case Verdict::kNoFramePointer:
        return append_suffix(fp + 1, ra, out, n);
      case Verdict::kUnknown:
        return 0;
    }
  }
}

/// One `_Unwind_Backtrace` walk, with `backtrace(3)`'s stop rules.
struct DwarfTrace {
  std::size_t n = 0;
  bool complete = true;  ///< false: truncated at kTraceFrames
  std::array<const void*, kTraceFrames> ips{};
  /// `_Unwind_GetCFA` per entry: the CFA of the frame *below* (the callee),
  /// i.e. the stack pointer in the reported frame at its call site. The
  /// return address of entry k therefore lives at `return_slot(cfas[k])`.
  std::array<std::uintptr_t, kTraceFrames> cfas{};
  /// Entry k was interrupted by a signal: its ip came from the signal
  /// context, not from a return-address slot.
  std::array<bool, kTraceFrames> interrupted{};
};

_Unwind_Reason_Code collect_frame(_Unwind_Context* ctx, void* arg) {
  auto* trace = static_cast<DwarfTrace*>(arg);
  if (trace->n == kTraceFrames) {
    trace->complete = false;
    return _URC_END_OF_STACK;
  }
  int interrupted = 0;
  const auto* ip =
      reinterpret_cast<const void*>(_Unwind_GetIPInfo(ctx, &interrupted));
  const std::uintptr_t cfa = _Unwind_GetCFA(ctx);
  // backtrace(3)'s progress check: a frame that repeats its predecessor
  // (same ip, same CFA) ends the walk and is not reported.
  const std::size_t n = trace->n;
  if (n > 0 && ip == trace->ips[n - 1] && cfa == trace->cfas[n - 1]) {
    return _URC_END_OF_STACK;
  }
  trace->ips[n] = ip;
  trace->cfas[n] = cfa;
  trace->interrupted[n] = interrupted != 0;
  trace->n = n + 1;
  return _URC_NO_REASON;
}

/// Remember the frames past stopping entry `stop` of `trace`, if every one
/// of them sits in a return-address slot above the stop (frames past a
/// signal and frames on another stack do not, and are never memoised).
[[gnu::no_sanitize_address]] void remember_suffix(const DwarfTrace& trace,
                                                  std::size_t stop) {
  SuffixMemo memo;
  memo.stop_slot = return_slot(trace.cfas[stop]);
  memo.stop_ra = trace.ips[stop];
  const void* const* below = memo.stop_slot;
  for (std::size_t k = stop + 1; k < trace.n; ++k) {
    if (memo.count == kMaxCallers) break;
    const void* const* slot = return_slot(trace.cfas[k]);
    if (trace.interrupted[k] || slot <= below || *slot != trace.ips[k]) return;
    memo.slots[memo.count] = slot;
    memo.ips[memo.count] = trace.ips[k];
    ++memo.count;
    below = slot;
  }
  ThreadUnwindState& st = t_unwind;
  for (SuffixMemo& m : st.memos) {
    if (m.stop_slot == memo.stop_slot && m.stop_ra == memo.stop_ra) {
      m = memo;
      return;
    }
  }
  st.memos[st.next_victim] = memo;
  st.next_victim = (st.next_victim + 1) % kSuffixMemos;
}

/// Record verdicts for capture's callers along the frame-pointer chain
/// starting at capture's frame `fp` (entry `first`), and memoise the
/// suffix where the chain ends.
[[gnu::no_sanitize_address]] void learn(const DwarfTrace& trace,
                                        std::size_t first,
                                        const void* const* fp) {
  for (std::size_t k = first; k + 1 < trace.n; ++k) {
    // The walk would read entry k's return address from fp + 1.
    if (return_slot(trace.cfas[k]) != fp + 1) return;
    // Entry k's function keeps a frame-pointer frame at this call site iff
    // the frame pointer its callee saved is 16 bytes below its own CFA.
    // (Never across a signal: the frame past it was not called from here.)
    const auto* caller = static_cast<const void* const*>(fp[0]);
    const bool keeps_fp = !trace.interrupted[k + 1] &&
                          reinterpret_cast<std::uintptr_t>(caller) +
                                  kFrameRecordSize ==
                              trace.cfas[k + 1];
    g_verdicts.insert(trace.ips[k], keeps_fp);
    if (!keeps_fp) {
      if (trace.complete) remember_suffix(trace, k);
      return;
    }
    fp = caller;
  }
}

/// Miss path: the DWARF unwind `backtrace(3)` performs, returning the same
/// caller frames the fast path would, and teaching the fast path.
[[gnu::noinline]] std::size_t dwarf_walk(const void* const* capture_fp,
                                         const void** out) noexcept {
  ++t_unwind.dwarf_unwinds;
  DwarfTrace trace;
  _Unwind_Backtrace(&collect_frame, &trace);
  // libgcc reports a NULL frame past the outermost one; backtrace(3) drops
  // it. (A stack truncated by kMaxFrames never ends in it.)
  if (trace.complete && trace.n > 1 && trace.ips[trace.n - 1] == nullptr) {
    --trace.n;
  }

  // Capture's caller is the entry whose callee CFA is capture's own CFA.
  const std::uintptr_t capture_cfa =
      reinterpret_cast<std::uintptr_t>(capture_fp) + kFrameRecordSize;
  std::size_t first = 0;
  while (first < trace.n && trace.cfas[first] != capture_cfa) ++first;
  // Not found (no CFI for capture): fall back to position — this frame,
  // then capture's, then its caller — and learn nothing.
  const bool located = first < trace.n;
  if (!located) first = std::min<std::size_t>(2, trace.n);

  const std::size_t count = std::min(trace.n - first, kMaxCallers);
  std::copy_n(trace.ips.begin() + static_cast<long>(first), count, out);
  if (kFramePointerWalk && located) learn(trace, first, capture_fp);
  return count;
}

}  // namespace

Callstack Callstack::capture(int skip) noexcept {
  Callstack cs;
  const auto* fp = static_cast<const void* const*>(__builtin_frame_address(0));
  const void** out = cs.frames_.data();
  std::size_t n = kFramePointerWalk ? fast_walk(fp, out) : 0;
  if (n == 0) n = dwarf_walk(fp, out);
  const std::size_t drop =
      std::min(n, static_cast<std::size_t>(std::max(0, skip)));
  cs.depth_ = n - drop;
  if (drop > 0) {
    std::memmove(out, out + drop, cs.depth_ * sizeof(void*));
    std::fill(out + cs.depth_, out + n, nullptr);
  }
  return cs;
}

std::uint64_t Callstack::dwarf_unwinds() noexcept {
  return t_unwind.dwarf_unwinds;
}

Callstack Callstack::from_frames(
    std::span<const void* const> frames) noexcept {
  Callstack cs;
  cs.depth_ = std::min(frames.size(), kMaxFrames);
  std::copy_n(frames.begin(), cs.depth_, cs.frames_.begin());
  return cs;
}

}  // namespace orca::unwind
