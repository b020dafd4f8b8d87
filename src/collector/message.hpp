/// \file message.hpp
/// Construction and safe parsing of ORA request buffers.
///
/// The wire format (api.h) is a byte array of variable-size
/// `omp_collector_message` records terminated by a record with `sz == 0`.
/// `MessageBuilder` is the collector-side composer ("a collector [may] pass
/// one or more requests" per call, paper Sec. IV); `MessageCursor` is the
/// runtime-side bounds-checked walker.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <vector>

#include "collector/api.h"

namespace orca::collector {

/// Size of the fixed record header preceding mem[].
inline constexpr std::size_t kRecordHeaderSize =
    offsetof(omp_collector_message, mem);

/// Bytes needed for a record carrying `payload` bytes in mem[].
constexpr std::size_t record_size(std::size_t payload) noexcept {
  return kRecordHeaderSize + payload;
}

namespace detail {

/// Element storage with room for `N` elements inline; spills to the heap
/// (once, for good) past it. New elements are value-initialized.
template <typename T, std::size_t N>
class InlineVector {
 public:
  T* data() noexcept { return spilled_ ? heap_.data() : inline_.data(); }
  const T* data() const noexcept {
    return spilled_ ? heap_.data() : inline_.data();
  }
  std::size_t size() const noexcept { return size_; }

  /// Grow to `n` elements (n >= size()).
  void grow(std::size_t n) {
    if (!spilled_ && n > N) {
      heap_.assign(inline_.begin(), inline_.begin() + size_);
      spilled_ = true;
    }
    if (spilled_) {
      heap_.resize(n);
    } else {
      std::fill(inline_.begin() + size_, inline_.begin() + n, T{});
    }
    size_ = n;
  }

  /// Drop elements past the first `n` (n <= size()).
  void shrink(std::size_t n) {
    if (spilled_) heap_.resize(n);
    size_ = n;
  }

  void push_back(const T& value) {
    grow(size_ + 1);
    data()[size_ - 1] = value;
  }

 private:
  alignas(alignof(std::max_align_t)) std::array<T, N> inline_{};
  std::vector<T> heap_;
  std::size_t size_ = 0;
  bool spilled_ = false;
};

}  // namespace detail

/// Collector-side request composer. Produces a self-terminated buffer that
/// can be handed directly to `__omp_collector_api`. Reply fields
/// (`r_errcode`, `r_sz`, reply payload) are read back through the accessors
/// after the call. Messages of up to `kInlineBytes` bytes and
/// `kInlineRecords` records (every typed single query) live inside the
/// builder, so composing one allocates nothing.
class MessageBuilder {
 public:
  /// Returned by the add_* methods when the record cannot be appended —
  /// a mem[] request so large the record's `sz` would overflow the ABI's
  /// int field (or a test-injected allocation failure). The builder is
  /// left unchanged.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  static constexpr std::size_t kInlineBytes = 256;
  static constexpr std::size_t kInlineRecords = 4;

  /// Append a request with an empty payload but `reply_capacity` bytes of
  /// mem[] reserved for the runtime's answer. Returns the record index,
  /// or `npos` when the record cannot be encoded. `req` is the raw wire
  /// value — unknown/negative codes are encodable on purpose (the runtime
  /// must answer them with OMP_ERRCODE_UNKNOWN, and the fuzzers check it).
  std::size_t add(int req, std::size_t reply_capacity = 0);

  /// Append OMP_REQ_REGISTER for `event` (raw wire value) with callback
  /// `cb`.
  std::size_t add_register(int event, OMP_COLLECTORAPI_CALLBACK cb);

  /// Append OMP_REQ_UNREGISTER for `event` (raw wire value).
  std::size_t add_unregister(int event);

  /// Append OMP_REQ_STATE with room for state + wait id in the reply.
  std::size_t add_state_query();

  /// Append a region-id query (OMP_REQ_CURRENT_PRID / OMP_REQ_PARENT_PRID).
  std::size_t add_id_query(OMP_COLLECTORAPI_REQUEST req);

  /// Append ORCA_REQ_EVENT_STATS with room for one orca_event_stats reply.
  std::size_t add_event_stats_query();

  /// Append ORCA_REQ_TELEMETRY_SNAPSHOT with room for one
  /// orca_telemetry_snapshot reply.
  std::size_t add_telemetry_query();

  /// Append ORCA_REQ_RESILIENCE_STATS with room for one
  /// orca_resilience_stats reply.
  std::size_t add_resilience_stats_query();

  /// Finalized buffer (appends the sz==0 terminator once). The pointer is
  /// valid until the builder is mutated or destroyed.
  void* buffer();

  std::size_t count() const noexcept { return offsets_.size(); }

  /// Per-record reply accessors (valid after the API call).
  OMP_COLLECTORAPI_EC errcode(std::size_t index) const;
  int reply_size(std::size_t index) const;

  /// Copy `n` bytes of reply payload, starting at byte offset `at`, from
  /// record `index` into `out`. Returns false when the record holds fewer
  /// than `at + n` reply bytes.
  bool reply_bytes(std::size_t index, void* out, std::size_t n,
                   std::size_t at = 0) const;

  /// Typed helper: read a single POD value from the reply payload at
  /// byte offset `at`.
  template <typename T>
  bool reply_value(std::size_t index, T* out, std::size_t at = 0) const {
    return reply_bytes(index, out, sizeof(T), at);
  }

 private:
  const char* record_at(std::size_t index) const;
  std::size_t append_record(int req, const void* payload,
                            std::size_t payload_size, std::size_t capacity);

  detail::InlineVector<char, kInlineBytes> bytes_;
  detail::InlineVector<std::size_t, kInlineRecords> offsets_;
  bool terminated_ = false;
};

/// Runtime-side walker over an incoming request buffer. Every access is
/// bounds-checked against the declared record sizes so a malformed buffer
/// cannot crash the runtime (it is rejected instead).
class MessageCursor {
 public:
  explicit MessageCursor(void* raw) noexcept
      : base_(static_cast<char*>(raw)) {}

  /// True while positioned on a valid, non-terminator record.
  bool valid() const noexcept;

  /// True when the current record is the sz==0 terminator.
  bool at_terminator() const noexcept;

  /// Direct view of the current record. Only safe when the record is
  /// pointer-aligned (true for MessageBuilder output); foreign buffers may
  /// pack records at any offset, so the dispatcher uses the memcpy-based
  /// accessors below instead.
  omp_collector_message* record() noexcept {
    return reinterpret_cast<omp_collector_message*>(base_ + offset_);
  }

  /// Alignment-safe header reads/writes for the current record. `request()`
  /// returns the raw int: a foreign buffer may carry any value there, and
  /// an int loaded as the request enum would be UB for out-of-range codes.
  int declared_size() const noexcept;
  int request() const noexcept;
  void set_errcode(OMP_COLLECTORAPI_EC ec) noexcept;

  /// Payload capacity (mem[] bytes) of the current record; 0 when the
  /// declared sz is smaller than the header (malformed).
  std::size_t payload_capacity() const noexcept;

  /// Copy `n` payload bytes at offset `at` into `out`; false if they do not
  /// fit in the declared record size.
  bool read_payload(void* out, std::size_t n, std::size_t at = 0) noexcept;

  /// Write `n` reply bytes at offset `at`; sets r_sz high-water mark.
  /// Returns false (and sets OMP_ERRCODE_MEM_TOO_SMALL) when they don't fit.
  bool write_reply(const void* data, std::size_t n, std::size_t at = 0) noexcept;

  /// Advance to the next record. False when the current record was the
  /// terminator or malformed (sz < header size).
  bool advance() noexcept;

 private:
  char* base_;
  std::size_t offset_ = 0;
};

}  // namespace orca::collector
