/// \file barrier.hpp
/// The team barrier.
///
/// Every implicit/explicit barrier of every benchmark funnels through
/// `TeamBarrier`, so it is on the hottest path the EPCC/NPB overhead story
/// has (paper Sec. V measures BARRIER as its own directive). It runs one of
/// two algorithms, picked per region by `choose_barrier`:
///
///  * **centralized** — one fetch_add per arrival; the last arriver
///    advances a generation `Parker` the others wait on (spin, then park on
///    its condvar). Two hot cachelines, the cheapest rendezvous for a pair,
///    and the only algorithm that sleeps in the kernel, which an
///    oversubscribed team needs so the thread it waits for gets the CPU.
///  * **dissemination** — ceil(log2 n) rounds of pairwise signalling;
///    thread i signals (i + 2^r) mod n each round and waits on its own
///    cacheline-padded inbox. No shared hot line and no serial release
///    broadcast, so it wins once the team outgrows a pair and every member
///    has a CPU to spin on.
///
/// Both are reusable by generation: the centralized release and the
/// dissemination inboxes carry monotonically increasing episode numbers
/// instead of a sense bit, so a team descriptor can `init()` and re-run
/// regions indefinitely (shrinking or growing the team, flipping the
/// algorithm) without a rendezvous to reset state — `init()` only runs
/// while the team is quiescent (master-side reset_for_region, after
/// quiesce_workers).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"
#include "common/parking.hpp"

namespace orca::rt {

/// A team-barrier algorithm, or `kAuto` for the per-region rule.
/// `1 + kind` is what telemetry reports (0 = no region yet).
enum class BarrierKind : int {
  kAuto = -1,         ///< `choose_barrier` decides per region
  kCentralized = 0,   ///< counter + spin-then-park
  kDissemination = 1, ///< log2(n)-round pairwise signalling
};

/// Stable lowercase name ("auto" | "centralized" | "dissemination") used
/// in bench rows and the perfbench host line.
const char* barrier_kind_name(BarrierKind kind) noexcept;

/// The rule: dissemination when the team has more than two members and
/// the process's managed threads fit the CPUs of its affinity mask (the
/// inputs `park_spin_budget` reads); centralized otherwise. A pair or an
/// oversubscribed team keeps the centralized barrier, whose waiters park
/// instead of spinning on an inbox. The threshold is measured in
/// EXPERIMENTS.md "barrier algorithm sweep".
constexpr BarrierKind choose_barrier(int team_size, int managed_threads,
                                     int cpus) noexcept {
  return team_size > 2 && managed_threads <= cpus ? BarrierKind::kDissemination
                                                  : BarrierKind::kCentralized;
}

/// The barrier slot of one team descriptor. It holds the state of both
/// algorithms, so a recycled team (the runtime's top-level team runs every
/// region) keeps its inbox allocation when the choice flips.
class TeamBarrier {
 public:
  /// Test seam: every later `init()` uses `kind` instead of the rule
  /// (`kAuto` restores the rule), so tests reach both algorithms on any
  /// host. No environment variable or config field reaches it.
  static void pin_for_testing(BarrierKind kind) noexcept;

  /// Master-only, team quiescent (reset_for_region): pick the algorithm
  /// for a team of `size` and reset its arrival state.
  void init(int size);

  /// Called by team member `tid` (0 <= tid < size).
  void arrive_and_wait(int tid) {
    if (size_ <= 1) return;
    if (kind_ == BarrierKind::kDissemination) {
      disseminate(tid);
    } else {
      centralize();
    }
  }

  /// The algorithm the last `init()` picked.
  BarrierKind kind() const noexcept { return kind_; }

  /// Atfork child handler, team quiescent. A thread that did not cross
  /// the fork may have held the generation Parker's mutex at the snapshot
  /// (a waiter reacquiring it on wake-up), and destroying a condvar such a
  /// thread waited on blocks forever. So the old Parker is abandoned, not
  /// destroyed, and a fresh one is built in its storage.
  void reset_after_fork() noexcept;

 private:
  friend struct orca::testing::WaitStatePeer;

  void centralize();
  void disseminate(int tid);

  /// 2^16 team members is far beyond max_threads; fixing the round count
  /// keeps a slot a flat object (one padded line per thread for the hot
  /// inboxes, no per-round indirection).
  static constexpr int kMaxRounds = 16;

  struct Slot {
    std::atomic<std::uint64_t> inbox[kMaxRounds] = {};
    std::uint64_t episode = 0;  ///< owner-thread-only barrier count
  };

  BarrierKind kind_ = BarrierKind::kCentralized;
  int size_ = 1;

  // centralized
  std::atomic<int> arrived_{0};
  Parker generation_;

  // dissemination
  int rounds_ = 0;
  std::vector<CachePadded<Slot>> slots_;
};

}  // namespace orca::rt
