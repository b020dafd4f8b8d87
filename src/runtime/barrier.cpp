#include "runtime/barrier.hpp"

#include <chrono>
#include <memory>
#include <thread>

namespace orca::rt {

const char* barrier_kind_name(BarrierKind kind) noexcept {
  switch (kind) {
    case BarrierKind::kAuto: return "auto";
    case BarrierKind::kCentralized: return "centralized";
    case BarrierKind::kDissemination: return "dissemination";
  }
  return "?";
}

namespace {

std::atomic<BarrierKind> g_pinned{BarrierKind::kAuto};

/// An inbox has no condvar to park on: once the spin budget is spent (or
/// the throttle denies it), the waiter naps this long between checks.
constexpr std::chrono::microseconds kInboxNap{50};

int ceil_log2(int n) noexcept {
  int rounds = 0;
  for (int reach = 1; reach < n; reach <<= 1) ++rounds;
  return rounds;
}

}  // namespace

void TeamBarrier::pin_for_testing(BarrierKind kind) noexcept {
  g_pinned.store(kind, std::memory_order_relaxed);
}

void TeamBarrier::init(int size) {
  kind_ = g_pinned.load(std::memory_order_relaxed);
  if (kind_ == BarrierKind::kAuto) {
    kind_ = choose_barrier(
        size, managed_thread_count().load(std::memory_order_relaxed),
        affinity_cpus());
  }
  size_ = size;
  // The generation is monotonic, so only the arrival count is reset.
  arrived_.store(0, std::memory_order_relaxed);
  if (kind_ != BarrierKind::kDissemination) return;
  rounds_ = ceil_log2(size);
  if (slots_.size() < static_cast<std::size_t>(size)) {
    slots_ = std::vector<CachePadded<Slot>>(static_cast<std::size_t>(size));
    return;  // freshly value-initialized: all inboxes and episodes are 0
  }
  // Only the slots and rounds this team uses: a later, larger team resets
  // what it uses before its first crossing.
  for (int t = 0; t < size; ++t) {
    Slot& slot = *slots_[static_cast<std::size_t>(t)];
    slot.episode = 0;
    for (int r = 0; r < rounds_; ++r) {
      slot.inbox[r].store(0, std::memory_order_relaxed);
    }
  }
}

void TeamBarrier::reset_after_fork() noexcept {
  // Reusing the storage ends the old object's lifetime without running
  // its destructor, which is the point.
  std::construct_at(&generation_);
}

void TeamBarrier::centralize() {
  const std::uint64_t gen = generation_.epoch();
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
    // Reset before the release: a waiter may re-arrive at the next
    // barrier as soon as it sees the new generation.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.advance(Wake::kAll);
    return;
  }
  generation_.wait(gen);
}

void TeamBarrier::disseminate(int tid) {
  Slot& self = *slots_[static_cast<std::size_t>(tid)];
  const std::uint64_t gen = ++self.episode;
  for (int r = 0; r < rounds_; ++r) {
    const int peer = (tid + (1 << r)) % size_;
    // Signal the round-r partner, then wait for our own round-r signal.
    // Episode numbers only grow, so a partner already in the *next*
    // episode (it finished this barrier and re-entered) satisfies the
    // `>=` wait — the reuse case sense-reversal bits get wrong.
    slots_[static_cast<std::size_t>(peer)]->inbox[r].store(
        gen, std::memory_order_release);
    const auto signalled = [&self, r, gen] {
      return self.inbox[r].load(std::memory_order_acquire) >= gen;
    };
    if (spin_until(signalled)) continue;
    while (!signalled()) std::this_thread::sleep_for(kInboxNap);
  }
}

}  // namespace orca::rt
