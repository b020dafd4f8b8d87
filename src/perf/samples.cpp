#include "perf/samples.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <mutex>

#include "testing/fault_injection.hpp"

namespace orca::perf {

SampleLane::SampleLane(std::size_t capacity) {
  if (capacity == 0 ||
      capacity > std::numeric_limits<std::size_t>::max() / sizeof(Cell) ||
      testing::FaultInjector::alloc_fails(
          testing::FaultPoint::kSampleRecord)) {
    return;
  }
  // MAP_NORESERVE and no value-initialisation: the fresh pages read as
  // zero stamps (unpublished) and stay out of RSS until a sample lands.
  void* mem = ::mmap(nullptr, capacity * sizeof(Cell), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  cells_ = static_cast<Cell*>(mem);
  capacity_ = capacity;
}

SampleLane::~SampleLane() {
  if (cells_ != nullptr) ::munmap(cells_, capacity_ * sizeof(Cell));
}

namespace {

constexpr auto by_ticks = [](const auto& a, const auto& b) {
  return a.ticks < b.ticks;
};

/// Ends the run `v[bounds.back(), v.size())` (if not empty): sorts it when
/// it is out of order and records its end in `bounds`.
template <typename T>
void close_run(std::vector<T>& v, std::vector<std::size_t>& bounds) {
  if (v.size() == bounds.back()) return;
  const auto first = v.begin() + static_cast<std::ptrdiff_t>(bounds.back());
  if (!std::is_sorted(first, v.end(), by_ticks)) {
    std::stable_sort(first, v.end(), by_ticks);
  }
  bounds.push_back(v.size());
}

/// Stable merge of the sorted runs `v[first, mid)` and `v[mid, last)` in
/// place: the shorter run moves out to `scratch` and merges back, from the
/// front or from the back. On a tie the left run's element goes first.
template <typename T>
void merge_adjacent(std::vector<T>& v, std::size_t first, std::size_t mid,
                    std::size_t last, std::vector<T>& scratch) {
  const auto at = [&v](std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (mid - first <= last - mid) {
    scratch.assign(std::make_move_iterator(at(first)),
                   std::make_move_iterator(at(mid)));
    auto a = scratch.begin();
    auto b = at(mid);
    auto out = at(first);
    while (a != scratch.end() && b != at(last)) {
      *out++ = by_ticks(*b, *a) ? std::move(*b++) : std::move(*a++);
    }
    std::move(a, scratch.end(), out);  // the rest of b is in place
  } else {
    scratch.assign(std::make_move_iterator(at(mid)),
                   std::make_move_iterator(at(last)));
    auto a = at(mid);
    auto b = scratch.end();
    auto out = at(last);
    while (a != at(first) && b != scratch.begin()) {
      *--out = by_ticks(*(b - 1), *(a - 1)) ? std::move(*--a) : std::move(*--b);
    }
    std::move_backward(scratch.begin(), b, out);  // the rest of a is in place
  }
}

/// Merges the sorted runs `v[bounds[j], bounds[j+1])` into one, adjacent
/// pairs per round, so `v` ends as stable_sort would leave it. The scratch
/// is reserved once: a merge moves out at most half of `v`.
template <typename T>
void merge_runs(std::vector<T>& v, std::vector<std::size_t> bounds) {
  if (bounds.size() <= 2) return;  // one run or none
  std::vector<T> scratch;
  scratch.reserve(v.size() / 2);
  while (bounds.size() > 2) {
    const std::size_t runs = bounds.size() - 1;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < runs; j += 2) {
      const std::size_t last = bounds[std::min(j + 2, runs)];
      if (j + 1 < runs) {
        merge_adjacent(v, bounds[j], bounds[j + 1], last, scratch);
      }
      bounds[++kept] = last;
    }
    bounds.resize(kept + 1);
  }
}

}  // namespace

SampleStore::SampleStore(std::size_t threads, std::size_t capacity)
    : callstack_slots_(std::clamp<std::size_t>(threads, 1, 1u << 16)) {
  lanes_.reserve(callstack_slots_.size());
  for (std::size_t i = 0; i < callstack_slots_.size(); ++i) {
    lanes_.push_back(std::make_unique<CachePadded<SampleLane>>(capacity));
  }
}

SampleLane& SampleStore::buffer(int tid) noexcept {
  return **lanes_[slot(tid)];
}

void SampleStore::record_callstack(int tid, CallstackRecord record) {
  CallstackSlot& cs = *callstack_slots_[slot(tid)];
  std::scoped_lock lk(cs.mu);
  cs.records.push_back(std::move(record));
}

std::vector<EventSample> SampleStore::merged_samples() const {
  // One writer per lane, so each lane is (nearly always) already a sorted
  // run: merge the runs rather than sort the whole.
  std::size_t claimed = 0;
  for (const auto& lane : lanes_) claimed += (*lane)->claimed();
  std::vector<EventSample> out;
  out.reserve(claimed);
  std::vector<std::size_t> bounds = {0};
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const auto lane = static_cast<std::uint16_t>(i);
    (*lanes_[i])->for_each([&out, lane](EventSample s) {
      s.lane = lane;
      out.push_back(s);
    });
    close_run(out, bounds);
  }
  merge_runs(out, std::move(bounds));
  return out;
}

std::vector<CallstackRecord> SampleStore::merged_callstacks() const {
  std::vector<CallstackRecord> out;
  std::vector<std::size_t> bounds = {0};
  for (const auto& slot : callstack_slots_) {
    std::scoped_lock lk(slot->mu);
    out.insert(out.end(), slot->records.begin(), slot->records.end());
    close_run(out, bounds);
  }
  merge_runs(out, std::move(bounds));
  return out;
}

std::uint64_t SampleStore::total_samples() const noexcept {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += (*lane)->size();
  return n;
}

std::uint64_t SampleStore::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += (*lane)->dropped();
  return n;
}

void SampleStore::clear() {
  for (auto& lane : lanes_) (*lane)->clear();
  for (auto& slot : callstack_slots_) {
    std::scoped_lock lk(slot->mu);
    slot->records.clear();
  }
}

}  // namespace orca::perf
