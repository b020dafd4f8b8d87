#include "collector/message.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "testing/fault_injection.hpp"

namespace orca::collector {
namespace {

/// Round record sizes up so successive records stay pointer-aligned; the
/// header stores ints and mem[] may carry function pointers.
constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + alignof(void*) - 1) & ~(alignof(void*) - 1);
}

}  // namespace

std::size_t MessageBuilder::append_record(int req, const void* payload,
                                          std::size_t payload_size,
                                          std::size_t capacity) {
  const std::size_t mem_size = std::max(payload_size, capacity);
  // The record's sz travels through the ABI as an int; a mem[] request
  // large enough to overflow it must be rejected here, before it could be
  // encoded as a truncated (or negative) size the runtime would misparse.
  // (Bounding mem_size also keeps the size arithmetic below overflow-free.)
  constexpr std::size_t kMaxMem =
      static_cast<std::size_t>(std::numeric_limits<int>::max()) -
      kRecordHeaderSize - alignof(void*);
  if (mem_size > kMaxMem) return npos;
  const std::size_t total = align_up(record_size(mem_size));
  if (testing::FaultInjector::alloc_fails(
          testing::FaultPoint::kMessageAppend)) {
    return npos;
  }
  if (terminated_) {
    bytes_.shrink(bytes_.size() - kRecordHeaderSize);
    terminated_ = false;
  }
  const std::size_t offset = bytes_.size();
  bytes_.grow(offset + total);

  // Field-wise writes: `req` is a raw wire value that may lie outside the
  // request enum's range, so it must never pass through the enum-typed
  // struct member. r_errcode/r_sz stay zero (OK / no reply) from grow().
  const int sz = static_cast<int>(total);
  std::memcpy(bytes_.data() + offset + offsetof(omp_collector_message, sz),
              &sz, sizeof(sz));
  std::memcpy(bytes_.data() + offset + offsetof(omp_collector_message, r_req),
              &req, sizeof(req));
  if (payload != nullptr && payload_size > 0) {
    std::memcpy(bytes_.data() + offset + kRecordHeaderSize, payload,
                payload_size);
  }
  offsets_.push_back(offset);
  return offsets_.size() - 1;
}

std::size_t MessageBuilder::add(int req, std::size_t reply_capacity) {
  return append_record(req, nullptr, 0, reply_capacity);
}

std::size_t MessageBuilder::add_register(int event,
                                         OMP_COLLECTORAPI_CALLBACK cb) {
  char payload[sizeof(int) + sizeof(OMP_COLLECTORAPI_CALLBACK)];
  std::memcpy(payload, &event, sizeof(int));
  std::memcpy(payload + sizeof(int), &cb, sizeof(cb));
  return append_record(OMP_REQ_REGISTER, payload, sizeof(payload), 0);
}

std::size_t MessageBuilder::add_unregister(int event) {
  return append_record(OMP_REQ_UNREGISTER, &event, sizeof(event), 0);
}

std::size_t MessageBuilder::add_state_query() {
  // Reply: int state, then (for wait states) an unsigned long wait id.
  return append_record(OMP_REQ_STATE, nullptr, 0,
                       sizeof(int) + sizeof(unsigned long));
}

std::size_t MessageBuilder::add_id_query(OMP_COLLECTORAPI_REQUEST req) {
  assert(req == OMP_REQ_CURRENT_PRID || req == OMP_REQ_PARENT_PRID);
  return append_record(req, nullptr, 0, sizeof(unsigned long));
}

std::size_t MessageBuilder::add_event_stats_query() {
  return append_record(ORCA_REQ_EVENT_STATS, nullptr, 0,
                       sizeof(orca_event_stats));
}

std::size_t MessageBuilder::add_telemetry_query() {
  return append_record(ORCA_REQ_TELEMETRY_SNAPSHOT, nullptr, 0,
                       sizeof(orca_telemetry_snapshot));
}

std::size_t MessageBuilder::add_resilience_stats_query() {
  return append_record(ORCA_REQ_RESILIENCE_STATS, nullptr, 0,
                       sizeof(orca_resilience_stats));
}

void* MessageBuilder::buffer() {
  if (!terminated_) {
    const std::size_t offset = bytes_.size();
    bytes_.grow(offset + kRecordHeaderSize);  // sz == 0 terminator
    terminated_ = true;
  }
  return bytes_.data();
}

const char* MessageBuilder::record_at(std::size_t index) const {
  if (index >= offsets_.size()) {
    throw std::out_of_range("MessageBuilder: no record " +
                            std::to_string(index));
  }
  return bytes_.data() + offsets_.data()[index];
}

OMP_COLLECTORAPI_EC MessageBuilder::errcode(std::size_t index) const {
  omp_collector_message header{};
  std::memcpy(&header, record_at(index), kRecordHeaderSize);
  return header.r_errcode;
}

int MessageBuilder::reply_size(std::size_t index) const {
  omp_collector_message header{};
  std::memcpy(&header, record_at(index), kRecordHeaderSize);
  return header.r_sz;
}

bool MessageBuilder::reply_bytes(std::size_t index, void* out, std::size_t n,
                                 std::size_t at) const {
  omp_collector_message header{};
  const char* rec = record_at(index);
  std::memcpy(&header, rec, kRecordHeaderSize);
  if (header.r_sz < 0 || static_cast<std::size_t>(header.r_sz) < n ||
      static_cast<std::size_t>(header.r_sz) - n < at) {
    return false;
  }
  std::memcpy(out, rec + kRecordHeaderSize + at, n);
  return true;
}

bool MessageCursor::valid() const noexcept {
  if (base_ == nullptr) return false;
  omp_collector_message header{};
  std::memcpy(&header, base_ + offset_, kRecordHeaderSize);
  return header.sz >= static_cast<int>(kRecordHeaderSize);
}

bool MessageCursor::at_terminator() const noexcept {
  if (base_ == nullptr) return true;
  int sz = 0;
  std::memcpy(&sz, base_ + offset_, sizeof(int));
  return sz == 0;
}

std::size_t MessageCursor::payload_capacity() const noexcept {
  omp_collector_message header{};
  std::memcpy(&header, base_ + offset_, kRecordHeaderSize);
  if (header.sz < static_cast<int>(kRecordHeaderSize)) return 0;
  return static_cast<std::size_t>(header.sz) - kRecordHeaderSize;
}

bool MessageCursor::read_payload(void* out, std::size_t n,
                                 std::size_t at) noexcept {
  if (at + n > payload_capacity()) return false;
  std::memcpy(out, base_ + offset_ + kRecordHeaderSize + at, n);
  return true;
}

int MessageCursor::declared_size() const noexcept {
  int sz = 0;
  std::memcpy(&sz, base_ + offset_ + offsetof(omp_collector_message, sz),
              sizeof(sz));
  return sz;
}

int MessageCursor::request() const noexcept {
  int req = 0;
  std::memcpy(&req, base_ + offset_ + offsetof(omp_collector_message, r_req),
              sizeof(req));
  return req;
}

void MessageCursor::set_errcode(OMP_COLLECTORAPI_EC ec) noexcept {
  std::memcpy(base_ + offset_ + offsetof(omp_collector_message, r_errcode),
              &ec, sizeof(ec));
}

bool MessageCursor::write_reply(const void* data, std::size_t n,
                                std::size_t at) noexcept {
  // memcpy throughout: foreign buffers may pack records at unaligned
  // offsets, so the header fields cannot be touched through a struct
  // pointer here.
  if (at + n > payload_capacity()) {
    set_errcode(OMP_ERRCODE_MEM_TOO_SMALL);
    return false;
  }
  std::memcpy(base_ + offset_ + kRecordHeaderSize + at, data, n);
  int r_sz = 0;
  std::memcpy(&r_sz, base_ + offset_ + offsetof(omp_collector_message, r_sz),
              sizeof(r_sz));
  const int written = static_cast<int>(at + n);
  if (written > r_sz) {
    std::memcpy(base_ + offset_ + offsetof(omp_collector_message, r_sz),
                &written, sizeof(written));
  }
  return true;
}

bool MessageCursor::advance() noexcept {
  if (base_ == nullptr) return false;
  omp_collector_message header{};
  std::memcpy(&header, base_ + offset_, kRecordHeaderSize);
  if (header.sz < static_cast<int>(kRecordHeaderSize)) return false;
  offset_ += static_cast<std::size_t>(header.sz);
  return true;
}

}  // namespace orca::collector
