#include "runtime/barrier.hpp"

#include <chrono>
#include <thread>

namespace orca::rt {

const char* barrier_kind_name(BarrierKind kind) noexcept {
  switch (kind) {
    case BarrierKind::kCentralized: return "centralized";
    case BarrierKind::kDissemination: return "dissemination";
    case BarrierKind::kTree: return "tree";
  }
  return "?";
}

namespace {

/// Flag-spin helper for the dissemination/tree algorithms: bounded busy
/// spin, then OS yields, then short sleeps. The sleep tier matters on the
/// oversubscribed configurations (32 threads on one core): a pure yield
/// loop stays live but can starve the signalling thread of whole
/// scheduling quanta, while a 50µs nap lets stragglers through without
/// the cost of a full futex rendezvous per flag.
class FlagWait {
 public:
  void pause() noexcept {
    if (waits_ < kSpinBeforeYield) {
      cpu_relax();
    } else if (waits_ < kSpinBeforeYield + kYieldBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++waits_;
  }

 private:
  static constexpr int kYieldBeforeSleep = 512;
  int waits_ = 0;
};

int ceil_log2(int n) noexcept {
  int rounds = 0;
  for (int reach = 1; reach < n; reach <<= 1) ++rounds;
  return rounds;
}

}  // namespace

// --- centralized ------------------------------------------------------------

void CentralizedBarrier::arrive_and_wait(int tid) {
  (void)tid;  // the counter is the rendezvous; member identity is irrelevant
  if (size_ <= 1) return;
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

// --- dissemination ----------------------------------------------------------

void DisseminationBarrier::init(int size) {
  size_ = size;
  rounds_ = ceil_log2(size);
  if (slots_.size() < static_cast<std::size_t>(size)) {
    slots_ = std::vector<CachePadded<Slot>>(static_cast<std::size_t>(size));
    return;  // freshly value-initialized: all inboxes and episodes are 0
  }
  for (auto& slot : slots_) {
    slot->episode = 0;
    for (auto& inbox : slot->inbox) inbox.store(0, std::memory_order_relaxed);
  }
}

void DisseminationBarrier::arrive_and_wait(int tid) {
  if (size_ <= 1) return;
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
    FlagWait wait;
    while (self.inbox[r].load(std::memory_order_acquire) < gen) wait.pause();
  }
}

// --- tree -------------------------------------------------------------------

void TreeBarrier::init(int size) {
  size_ = size;
  if (nodes_.size() < static_cast<std::size_t>(size)) {
    nodes_ = std::vector<CachePadded<Node>>(static_cast<std::size_t>(size));
  } else {
    for (auto& node : nodes_) {
      node->episode = 0;
      node->arrived.store(0, std::memory_order_relaxed);
    }
  }
  release_->store(0, std::memory_order_relaxed);
}

void TreeBarrier::arrive_and_wait(int tid) {
  if (size_ <= 1) return;
  Node& self = *nodes_[static_cast<std::size_t>(tid)];
  const std::uint64_t gen = ++self.episode;

  // Gather phase: wait for each child subtree. A child's release-store of
  // `arrived` happens after it gathered its own children, so observing it
  // (acquire) carries the whole subtree's pre-barrier writes upward.
  for (int c = kFanout * tid + 1; c <= kFanout * tid + kFanout && c < size_;
       ++c) {
    FlagWait wait;
    while (nodes_[static_cast<std::size_t>(c)]->arrived.load(
               std::memory_order_acquire) < gen) {
      wait.pause();
    }
  }

  if (tid == 0) {
    // Root saw every subtree: publish the release generation.
    release_->store(gen, std::memory_order_release);
    return;
  }
  self.arrived.store(gen, std::memory_order_release);
  FlagWait wait;
  while (release_->load(std::memory_order_acquire) < gen) wait.pause();
}

// --- facade -----------------------------------------------------------------

void TeamBarrier::init(BarrierKind kind, int size) {
  if (impl_ == nullptr || impl_->kind() != kind) {
    switch (kind) {
      case BarrierKind::kDissemination:
        impl_ = std::make_unique<DisseminationBarrier>();
        break;
      case BarrierKind::kTree:
        impl_ = std::make_unique<TreeBarrier>();
        break;
      case BarrierKind::kCentralized:
        impl_ = std::make_unique<CentralizedBarrier>();
        break;
    }
  }
  impl_->init(size);
}

}  // namespace orca::rt
