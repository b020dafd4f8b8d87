/// \file stage.hpp
/// Typed, composable stream stages — the one consume vocabulary every
/// collector tool assembles instead of hand-rolling its own loop
/// (docs/PIPELINE.md).
///
/// A `Stage<T>` accepts items of one type through `push()` and forwards
/// zero or more items downstream. Stages are built downstream-first with
/// the factory combinators below (`map`, `filter`, `quantize`, `fanout`,
/// `tee`, `killswitch`, `collect`, `sink`) and form an arbitrary
/// DAG; `Pipeline<T>` (pipeline.hpp) wraps the head and walks the graph
/// for stats.
///
/// Contracts every stage honours:
///
///  * **Honest accounting.** Once a stage is quiescent,
///    `accepted == emitted + filtered + dropped + held`. `filtered` is
///    intentional selection (a predicate said no); `dropped` is loss under
///    pressure and additionally feeds
///    `telemetry::Counter::kPipelineDrops`, so shed load is visible in the
///    runtime's own telemetry report — never silently eaten.
///  * **Thread-safe push.** Any number of threads may push into any stage
///    concurrently; stages that retain or aggregate stripe or lock
///    internally. Stages never block on anything but their own downstream
///    (there is no hidden consumer thread to deadlock against).
///  * **flush() drains.** `flush()` pushes everything a stage still holds
///    into its downstream, then flushes the downstream. After a flush with
///    no concurrent pushers, `held == 0` everywhere.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "telemetry/telemetry.hpp"

namespace orca::pipeline {

// ---------------------------------------------------------------------------
// Stats + untyped base.

/// One stage's accounting snapshot (see the class comment for the
/// invariant). Counters are monotonic over the stage's lifetime; `held` is
/// the current buffered population.
struct StageStats {
  std::string name;
  std::uint64_t accepted = 0;  ///< items pushed into the stage
  std::uint64_t emitted = 0;   ///< items forwarded (or retained by a sink)
  std::uint64_t filtered = 0;  ///< items a predicate deliberately discarded
  std::uint64_t dropped = 0;   ///< items lost under pressure (honest loss)
  std::uint64_t held = 0;      ///< buffered items (0: no stage buffers)
};

/// Type-erased stage base: naming, accounting, and graph traversal. The
/// typed push/consume contract lives in `Stage<T>`.
class StageBase {
 public:
  explicit StageBase(std::string name) : name_(std::move(name)) {}
  virtual ~StageBase() = default;
  StageBase(const StageBase&) = delete;
  StageBase& operator=(const StageBase&) = delete;

  const std::string& name() const noexcept { return name_; }

  StageStats stats() const {
    StageStats s;
    s.name = name_;
    s.accepted = accepted_.load(std::memory_order_acquire);
    s.emitted = emitted_.load(std::memory_order_acquire);
    s.filtered = filtered_.load(std::memory_order_acquire);
    s.dropped = dropped_.load(std::memory_order_acquire);
    return s;
  }

  /// Push everything still held into the downstream, then flush it.
  virtual void flush() {}

  /// Direct downstream stages, for graph walks (Pipeline::stats()).
  virtual std::vector<StageBase*> downstream() const { return {}; }

 protected:
  void note_accepted(std::uint64_t n = 1) noexcept {
    accepted_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_emitted(std::uint64_t n = 1) noexcept {
    emitted_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_filtered(std::uint64_t n = 1) noexcept {
    filtered_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Loss is double-booked: the per-stage counter carries *where*, the
  /// process-wide telemetry counter carries *that it happened at all*.
  void note_dropped(std::uint64_t n = 1) noexcept {
    dropped_.fetch_add(n, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::kPipelineDrops, n);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// A stage consuming items of type T.
template <typename T>
class Stage : public StageBase {
 public:
  using value_type = T;
  using StageBase::StageBase;

  /// Thread-safe entry point; counts the item, then hands it to the
  /// stage-specific consume().
  void push(const T& item) {
    note_accepted();
    consume(item);
  }

 protected:
  virtual void consume(const T& item) = 0;
};

template <typename T>
using StagePtr = std::shared_ptr<Stage<T>>;

/// Stage with exactly one typed downstream (the common linear case).
template <typename In, typename Out = In>
class LinkedStage : public Stage<In> {
 public:
  LinkedStage(std::string name, StagePtr<Out> down)
      : Stage<In>(std::move(name)), down_(std::move(down)) {}

  void flush() override {
    if (down_) down_->flush();
  }

  std::vector<StageBase*> downstream() const override {
    if (!down_) return {};
    return {down_.get()};
  }

 protected:
  void emit(const Out& item) {
    this->note_emitted();
    if (down_) down_->push(item);
  }

  StagePtr<Out> down_;
};

// ---------------------------------------------------------------------------
// map / filter / quantize.

template <typename In, typename Out, typename Fn>
class MapStage final : public LinkedStage<In, Out> {
 public:
  MapStage(std::string name, Fn fn, StagePtr<Out> down)
      : LinkedStage<In, Out>(std::move(name), std::move(down)),
        fn_(std::move(fn)) {}

 protected:
  void consume(const In& item) override { this->emit(fn_(item)); }

 private:
  Fn fn_;
};

/// Transform stage: `Out = fn(In)`. `In` must be named explicitly; `Out`
/// is deduced from the callable:
///   `pipeline::map<Event>("ns", [](const Event& e) { return e.ns; }, down)`
template <typename In, typename Fn,
          typename Out = std::decay_t<std::invoke_result_t<Fn, const In&>>>
StagePtr<In> map(std::string name, Fn fn, StagePtr<Out> down) {
  return std::make_shared<MapStage<In, Out, Fn>>(std::move(name),
                                                 std::move(fn),
                                                 std::move(down));
}

template <typename T, typename Pred>
class FilterStage final : public LinkedStage<T> {
 public:
  FilterStage(std::string name, Pred pred, StagePtr<T> down)
      : LinkedStage<T>(std::move(name), std::move(down)),
        pred_(std::move(pred)) {}

 protected:
  void consume(const T& item) override {
    if (pred_(item)) {
      this->emit(item);
    } else {
      this->note_filtered();
    }
  }

 private:
  Pred pred_;
};

/// Selection stage: forwards items the predicate accepts, counts the rest
/// as `filtered` (intentional, not loss).
template <typename T, typename Pred>
StagePtr<T> filter(std::string name, Pred pred, StagePtr<T> down) {
  return std::make_shared<FilterStage<T, Pred>>(std::move(name),
                                                std::move(pred),
                                                std::move(down));
}

template <typename T>
class QuantizeStage final : public LinkedStage<T> {
 public:
  QuantizeStage(std::string name, std::uint64_t interval, StagePtr<T> down)
      : LinkedStage<T>(std::move(name), std::move(down)),
        interval_(interval == 0 ? 1 : interval) {}

 protected:
  void consume(const T& item) override {
    const std::uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed);
    if (n % interval_ == 0) {
      this->emit(item);
    } else {
      this->note_filtered();
    }
  }

 private:
  const std::uint64_t interval_;
  std::atomic<std::uint64_t> seen_{0};
};

/// Decimation stage: keeps every `interval`-th item (the first of each
/// stride), counts the rest as filtered. interval <= 1 passes everything.
template <typename T>
StagePtr<T> quantize(std::string name, std::uint64_t interval,
                     StagePtr<T> down) {
  return std::make_shared<QuantizeStage<T>>(std::move(name), interval,
                                            std::move(down));
}

// ---------------------------------------------------------------------------
// fanout / tee.

template <typename T>
class FanoutStage final : public Stage<T> {
 public:
  FanoutStage(std::string name, std::vector<StagePtr<T>> downs)
      : Stage<T>(std::move(name)), downs_(std::move(downs)) {}

  void flush() override {
    for (const StagePtr<T>& d : downs_) {
      if (d) d->flush();
    }
  }

  std::vector<StageBase*> downstream() const override {
    std::vector<StageBase*> out;
    for (const StagePtr<T>& d : downs_) {
      if (d) out.push_back(d.get());
    }
    return out;
  }

 protected:
  void consume(const T& item) override {
    // One accepted item counts as one emitted item regardless of branch
    // count, so the stage invariant stays balanced.
    this->note_emitted();
    for (const StagePtr<T>& d : downs_) {
      if (d) d->push(item);
    }
  }

 private:
  std::vector<StagePtr<T>> downs_;
};

/// Broadcast stage: every item goes to every branch. An item counts as
/// emitted once (not once per branch).
template <typename T>
StagePtr<T> fanout(std::string name, std::vector<StagePtr<T>> downs) {
  return std::make_shared<FanoutStage<T>>(std::move(name), std::move(downs));
}

/// Tap stage: forwards every item to `down` and mirrors a copy into
/// `side` — sugar for the common "observe without consuming" fanout.
template <typename T>
StagePtr<T> tee(std::string name, StagePtr<T> side, StagePtr<T> down) {
  return fanout<T>(std::move(name), {std::move(side), std::move(down)});
}

// ---------------------------------------------------------------------------
// killswitch.

/// Shared trip-wire handle. Copy it anywhere (watchdog thread, signal-side
/// flag poller, the assembly that built the pipeline); once tripped, every
/// killswitch stage holding this handle drops instead of forwarding.
class KillSwitch {
 public:
  KillSwitch() : tripped_(std::make_shared<std::atomic<bool>>(false)) {}

  void trip() noexcept { tripped_->store(true, std::memory_order_release); }
  void reset() noexcept { tripped_->store(false, std::memory_order_release); }
  bool tripped() const noexcept {
    return tripped_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> tripped_;
};

template <typename T>
class KillSwitchStage final : public LinkedStage<T> {
 public:
  KillSwitchStage(std::string name, KillSwitch ks, std::uint64_t trip_after,
                  StagePtr<T> down)
      : LinkedStage<T>(std::move(name), std::move(down)),
        ks_(std::move(ks)),
        trip_after_(trip_after) {}

 protected:
  void consume(const T& item) override {
    if (ks_.tripped()) {
      this->note_dropped();
      return;
    }
    if (trip_after_ != 0 &&
        passed_.fetch_add(1, std::memory_order_relaxed) + 1 >= trip_after_) {
      // The item that reaches the limit still goes through; the switch
      // trips behind it.
      ks_.trip();
    }
    this->emit(item);
  }

 private:
  KillSwitch ks_;
  const std::uint64_t trip_after_;  ///< 0 = manual trip only
  std::atomic<std::uint64_t> passed_{0};
};

/// Gate stage: forwards until `ks.tripped()`, then drops (counted loss —
/// a tripped pipeline that is still being fed IS losing data). With
/// `trip_after > 0` the switch self-trips once that many items have
/// passed, bounding a runaway producer.
template <typename T>
StagePtr<T> killswitch(std::string name, KillSwitch ks, StagePtr<T> down,
                       std::uint64_t trip_after = 0) {
  return std::make_shared<KillSwitchStage<T>>(std::move(name), std::move(ks),
                                              trip_after, std::move(down));
}

// ---------------------------------------------------------------------------
// Terminal stages: collect / sink / null.

/// Terminal stage retaining every item, striped across cache-padded
/// spinlocked slots so concurrent producers (app threads, the async
/// drainer) never contend on one line — the pipeline replacement for the
/// tracer's hand-rolled staging buffers.
template <typename T>
class CollectStage final : public Stage<T> {
 public:
  /// `max_items` 0 = unbounded; otherwise the stage drops (counted) once
  /// that many items are retained.
  explicit CollectStage(std::string name, std::size_t max_items = 0)
      : Stage<T>(std::move(name)), max_items_(max_items) {}

  /// Copy out everything retained, in stripe order (unmerged).
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(size_.load(std::memory_order_relaxed));
    for (const CachePadded<Stripe>& padded : stripes_) {
      const Stripe& s = *padded;
      std::scoped_lock lk(s.mu);
      out.insert(out.end(), s.items.begin(), s.items.end());
    }
    return out;
  }

  /// Copy out everything retained, sorted by `cmp` (typically a sequence
  /// or timestamp field) to reconstruct one global order.
  template <typename Cmp>
  std::vector<T> sorted(Cmp cmp) const {
    std::vector<T> out = snapshot();
    std::sort(out.begin(), out.end(), cmp);
    return out;
  }

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  void clear() {
    for (CachePadded<Stripe>& padded : stripes_) {
      Stripe& s = *padded;
      std::scoped_lock lk(s.mu);
      s.items.clear();
    }
    size_.store(0, std::memory_order_release);
  }

 protected:
  void consume(const T& item) override {
    store(this_thread_stripe(), item);
  }

 private:
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    mutable SpinLock mu;
    std::vector<T> items;
  };

  static std::size_t this_thread_stripe() noexcept {
    static std::atomic<unsigned> next{0};
    thread_local unsigned mine = next.fetch_add(1, std::memory_order_relaxed);
    return mine % kStripes;
  }

  void store(std::size_t stripe, const T& item) {
    if (max_items_ != 0) {
      if (size_.fetch_add(1, std::memory_order_acq_rel) >= max_items_) {
        size_.fetch_sub(1, std::memory_order_acq_rel);
        this->note_dropped();
        return;
      }
    } else {
      size_.fetch_add(1, std::memory_order_acq_rel);
    }
    Stripe& s = *stripes_[stripe];
    {
      std::scoped_lock lk(s.mu);
      s.items.push_back(item);
    }
    this->note_emitted();  // emitted == retained for a terminal stage
  }

  const std::size_t max_items_;
  std::array<CachePadded<Stripe>, kStripes> stripes_;
  std::atomic<std::size_t> size_{0};
};

/// Factory keeping the typed handle (callers need snapshot()/sorted()).
template <typename T>
std::shared_ptr<CollectStage<T>> collect(std::string name,
                                         std::size_t max_items = 0) {
  return std::make_shared<CollectStage<T>>(std::move(name), max_items);
}

template <typename T, typename Fn>
class SinkStage final : public Stage<T> {
 public:
  SinkStage(std::string name, Fn fn)
      : Stage<T>(std::move(name)), fn_(std::move(fn)) {}

 protected:
  void consume(const T& item) override {
    fn_(item);
    this->note_emitted();
  }

 private:
  Fn fn_;
};

/// Terminal callable stage: `fn` sees every item (export writers, test
/// probes). `fn` must be internally synchronized if producers are
/// concurrent.
template <typename T, typename Fn>
StagePtr<T> sink(std::string name, Fn fn) {
  return std::make_shared<SinkStage<T, Fn>>(std::move(name), std::move(fn));
}

template <typename T>
class NullStage final : public Stage<T> {
 public:
  using Stage<T>::Stage;

 protected:
  void consume(const T&) override { this->note_emitted(); }
};

/// Counting terminator — benchmark and ablation baseline.
template <typename T>
StagePtr<T> null(std::string name = "null") {
  return std::make_shared<NullStage<T>>(std::move(name));
}

}  // namespace orca::pipeline
