#include "perf/samples.hpp"

#include <sys/mman.h>

#include <algorithm>
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

SampleStore::SampleStore(std::size_t threads, std::size_t capacity)
    : callstack_slots_(std::max<std::size_t>(threads, 1)) {
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
  std::vector<EventSample> out;
  out.reserve(total_samples());
  for (const auto& lane : lanes_) {
    (*lane)->for_each([&out](const EventSample& s) { out.push_back(s); });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventSample& a, const EventSample& b) {
                     return a.ticks < b.ticks;
                   });
  return out;
}

std::vector<CallstackRecord> SampleStore::merged_callstacks() const {
  std::vector<CallstackRecord> out;
  for (const auto& slot : callstack_slots_) {
    std::scoped_lock lk(slot->mu);
    out.insert(out.end(), slot->records.begin(), slot->records.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CallstackRecord& a, const CallstackRecord& b) {
                     return a.ticks < b.ticks;
                   });
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
