/// \file export.hpp
/// Telemetry exporters: Chrome/Perfetto `trace_event` JSON (load the file
/// in https://ui.perfetto.dev or chrome://tracing) and a human-readable
/// text report for `ORCA_TELEMETRY_REPORT=stderr|<path>` at shutdown.
/// `TraceWriter` is the one trace_event emitter: the runtime's telemetry
/// export and orcamon's fleet trace both write through it.
///
/// Higher layers (the collector tool, examples) merge their own streams —
/// ORA collector events, perf callstack samples — into the trace by
/// converting them to `ExternalEvent`s; this module stays dependent on
/// `src/common` only, so both the collector and the runtime can link it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace orca::telemetry {

/// An event contributed by another subsystem (collector event trace, perf
/// callstack sample, ...) to merge into the exported timeline.
struct ExternalEvent {
  std::uint64_t ns = 0;      ///< SteadyClock timestamp
  std::uint64_t dur_ns = 0;  ///< 0 => instant marker, else a complete span
  int tid = -1;              ///< telemetry slot id; -1 => "external" track
  std::string name;
  std::string category;      ///< trace_event "cat", e.g. "collector"
};

/// Chrome `trace_event` JSON writer. It appends events into one reused
/// buffer; opened on a path, it hands that buffer to the file every
/// kChunkBytes, so a trace never sits whole in memory. Stamps are ns from
/// the trace's base, written as microseconds with the digits "%.3f" gives.
class TraceWriter {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  TraceWriter() = default;                        ///< in memory: take()
  explicit TraceWriter(const std::string& path);  ///< streamed: close()

  /// `M` metadata rows; the process row writes `tid` only when given.
  void process_name(std::int64_t pid, std::string_view name,
                    std::optional<int> tid = std::nullopt) {
    metadata(pid, tid, "process_name", name);
  }
  void thread_name(std::int64_t pid, int tid, std::string_view name) {
    metadata(pid, tid, "thread_name", name);
  }
  void complete(std::int64_t pid, int tid, std::string_view name,
                std::string_view cat, std::uint64_t ts_ns,
                std::uint64_t dur_ns);
  void instant(std::int64_t pid, int tid, std::string_view name,
               std::string_view cat, std::uint64_t ts_ns);

  std::string take();  ///< end the document and return it
  /// End the document and close the file: true iff the open, every write
  /// and the fclose succeeded.
  bool close();

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void metadata(std::int64_t pid, std::optional<int> tid,
                std::string_view kind, std::string_view name);
  void begin(char ph, std::int64_t pid, std::optional<int> tid);
  void quoted(std::string_view key, std::string_view value);
  void stamp(std::string_view key, std::uint64_t ns);
  void end(std::string_view tail);
  void flush();

  std::string buf_ = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  std::unique_ptr<std::FILE, Closer> file_;
  bool streaming_ = false;
  bool ok_ = true;
  bool first_ = true;
};

/// Render the current telemetry state (all thread timelines + any extra
/// streams) as Chrome `trace_event` JSON: one process, one track per
/// thread with `thread_name` metadata, complete (`X`) spans for states and
/// internal spans, instant (`i`) markers for unpaired points.
std::string render_chrome_trace(const std::vector<ExternalEvent>& extra = {});

/// Write render_chrome_trace()'s document to `path`, streamed in
/// TraceWriter chunks; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<ExternalEvent>& extra = {});

/// Human-readable metric catalog + per-thread timeline summary.
std::string render_text_report();

/// Emit render_text_report() to `destination`: "stderr", or a file path.
/// Empty destination is a no-op.
void shutdown_report(const std::string& destination);

}  // namespace orca::telemetry
