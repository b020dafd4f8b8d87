/// \file barrier.hpp
/// Pluggable team-barrier algorithms.
///
/// Every implicit/explicit barrier of every benchmark funnels through one
/// of these, so the algorithm is on the hottest path the EPCC/NPB overhead
/// story has (paper Sec. V measures BARRIER as its own directive). The
/// runtime selects an algorithm per team via `ORCA_BARRIER`
/// (`centralized` | `dissemination` | `tree`, see RuntimeConfig::barrier):
///
///  * **centralized** — the original counter barrier: one fetch_add per
///    arrival, a generation advance by the last thread, and the runtime's
///    spin-then-park wait (common/parking.hpp) for everyone else. O(n)
///    contention on two cachelines. The parking throttle drops the long
///    spin once the process has more threads than CPUs, so heavily
///    oversubscribed teams (32 EPCC threads on few cores) sleep instead
///    of burning the CPU the last arriver needs.
///  * **dissemination** — ceil(log2 n) rounds of pairwise signalling;
///    thread i signals (i + 2^r) mod n each round and waits on its own
///    cacheline-padded inbox. No shared hot line, no serial release
///    broadcast; the classic choice once n grows.
///  * **tree** — a fanout-4 combining tree with cacheline-padded per-node
///    arrival flags and a single release generation. Arrivals climb the
///    tree (each parent spins only on its ≤4 children), the root publishes
///    the release; O(n) total stores with constant per-line sharing.
///
/// All three are reusable-by-generation: flags carry monotonically
/// increasing episode numbers instead of reversing a sense bit, so a team
/// descriptor can `init()` and re-run regions indefinitely (including
/// shrinking/growing the team) without a rendezvous to reset state —
/// `init()` only runs while the team is quiescent (master-side
/// reset_for_region, after quiesce_workers).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "common/parking.hpp"

namespace orca::rt {

/// Which barrier algorithm a team uses (ORCA_BARRIER).
enum class BarrierKind : int {
  kCentralized = 0,   ///< counter + spin-then-park (the default)
  kDissemination = 1, ///< log2(n)-round pairwise signalling
  kTree = 2,          ///< fanout-4 combining tree + release broadcast
};

/// Stable lowercase name ("centralized" | "dissemination" | "tree") used in
/// telemetry, bench JSON rows, and warning messages.
const char* barrier_kind_name(BarrierKind kind) noexcept;

/// One team-barrier algorithm. `init(size)` is master-only and must not
/// race with `arrive_and_wait`; the runtime guarantees that by resetting
/// teams only while quiescent. `arrive_and_wait(tid)` is called by team
/// member `tid` (0 <= tid < size) — the dissemination and tree algorithms
/// key their per-thread flag slots off it.
class Barrier {
 public:
  virtual ~Barrier() = default;
  virtual void init(int size) = 0;
  virtual void arrive_and_wait(int tid) = 0;
  virtual BarrierKind kind() const noexcept = 0;
};

/// Centralized counter barrier (the pre-pluggable `TeamBarrier`). Waiters
/// park on the generation `Parker`, which spins while the process fits its
/// CPUs and sleeps on a condvar otherwise, so oversubscribed runs (32 EPCC
/// threads on few cores) do not livelock.
class CentralizedBarrier final : public Barrier {
 public:
  /// The generation is monotonic, so only the arrival count is reset.
  void init(int size) noexcept override {
    size_ = size;
    arrived_.store(0, std::memory_order_relaxed);
  }

  void arrive_and_wait(int tid) override;

  BarrierKind kind() const noexcept override {
    return BarrierKind::kCentralized;
  }

 private:
  int size_ = 1;
  std::atomic<int> arrived_{0};
  Parker generation_;
};

/// Dissemination barrier: in round r (0..rounds-1), thread i stores its
/// episode number into the round-r inbox of thread (i + 2^r) mod n, then
/// waits for its own round-r inbox to reach that episode. After
/// ceil(log2 n) rounds every thread transitively synchronizes with every
/// other. Inboxes are per-thread cacheline-padded slots, each round's
/// inbox written by exactly one peer, so there is no shared hot line.
class DisseminationBarrier final : public Barrier {
 public:
  void init(int size) override;
  void arrive_and_wait(int tid) override;

  BarrierKind kind() const noexcept override {
    return BarrierKind::kDissemination;
  }

 private:
  /// 2^16 team members is far beyond max_threads; fixing the round count
  /// keeps a slot a flat object (one padded line per thread for the hot
  /// inboxes, no per-round indirection).
  static constexpr int kMaxRounds = 16;

  struct Slot {
    std::atomic<std::uint64_t> inbox[kMaxRounds] = {};
    std::uint64_t episode = 0;  ///< owner-thread-only barrier count
  };

  int size_ = 1;
  int rounds_ = 0;
  std::vector<CachePadded<Slot>> slots_;
};

/// Fanout-4 combining-tree barrier. Thread t's children are 4t+1..4t+4;
/// each thread gathers its children's padded arrival flags, publishes its
/// own, and the root then bumps one release generation every waiter spins
/// on. Release-store/acquire-load chains up the tree and back down give
/// the usual barrier memory semantics.
class TreeBarrier final : public Barrier {
 public:
  void init(int size) override;
  void arrive_and_wait(int tid) override;

  BarrierKind kind() const noexcept override { return BarrierKind::kTree; }

 private:
  static constexpr int kFanout = 4;

  struct Node {
    std::atomic<std::uint64_t> arrived{0};  ///< subtree-complete episode
    std::uint64_t episode = 0;              ///< owner-thread-only count
  };

  int size_ = 1;
  std::vector<CachePadded<Node>> nodes_;
  CachePadded<std::atomic<std::uint64_t>> release_;
};

/// The barrier slot of one team descriptor: owns the selected algorithm
/// and swaps it only when the configured kind changes, so recycled teams
/// (the runtime's top-level team runs every region) reuse the allocation.
class TeamBarrier {
 public:
  /// Master-only, team quiescent (reset_for_region).
  void init(BarrierKind kind, int size);

  void arrive_and_wait(int tid) {
    if (impl_ != nullptr) impl_->arrive_and_wait(tid);
  }

  BarrierKind kind() const noexcept {
    return impl_ != nullptr ? impl_->kind() : BarrierKind::kCentralized;
  }

 private:
  std::unique_ptr<Barrier> impl_;
};

}  // namespace orca::rt
