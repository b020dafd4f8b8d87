/// \file spans.hpp
/// In-memory span recorder of the benchmark's traced runs.
///
/// Spans are recorded from the benchmark's own files around calls into
/// each layer (and, for the PrototypeCollector, around its raw callback),
/// kept in per-thread buffers, and written out once at exit as fixed
/// 40-byte little-endian records that perfbench/analysis.py decodes:
///
///   u64 id, u64 parent, u64 start_ns, u64 end_ns, i32 event,
///   u16 name, u16 thread
///
/// Times are CLOCK_MONOTONIC nanoseconds. The tree is
/// workload -> pass -> region -> tool.callback, plus flush/report/orcamon
/// children of a pass. Spans of one region share its id: the region span
/// opens in the FORK callback and closes in the JOIN callback on the
/// master.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench::spans {

/// Span names; the numeric values are the file format.
enum Name : std::uint16_t {
  kWorkload = 1,
  kPass = 2,
  kRegion = 3,
  kCallback = 4,
  kNpbKernel = 5,
  kEpccDirective = 6,
  kFlush = 7,
  kReport = 8,
  kOrcamonSession = 9,
  kSetup = 10,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t event = 0;  ///< OMP_COLLECTORAPI_EVENT for callbacks
  std::uint16_t name = 0;
  std::uint16_t thread = 0;  ///< recorder-assigned thread index
};
static_assert(sizeof(Span) == 40, "span records are 40 bytes on disk");

/// Recording switch; record() is a no-op while it is off.
void enable(bool on) noexcept;
bool enabled() noexcept;

std::uint64_t new_id() noexcept;
std::uint64_t now_ns() noexcept;

/// Append a span to the calling thread's buffer (no-op while disabled).
void record(Span span);

/// Id of the pass span open on the bench thread (0 = none); parent of
/// spans recorded on threads that know no closer parent.
void set_current_pass(std::uint64_t id) noexcept;
std::uint64_t current_pass() noexcept;

/// Write every buffered span to `path`. False on I/O failure.
bool write(const std::string& path);

/// Scoped span: records [construction, destruction) under `parent`.
class Scope {
 public:
  Scope(Name name, std::uint64_t parent)
      : id_(enabled() ? new_id() : 0), parent_(parent), name_(name),
        start_(now_ns()) {}
  ~Scope() {
    if (id_ != 0) record({id_, parent_, start_, now_ns(), 0, name_, 0});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
  std::uint64_t parent_;
  Name name_;
  std::uint64_t start_;
};

}  // namespace perfbench::spans
