#include "telemetry/export.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>

#include "common/strutil.hpp"

namespace orca::telemetry {
namespace {

/// Below this many ns, ns / 1000 printed with integer digits equals
/// "%.3f" of ns / 1000.0: that double is within half an ulp (< 0.0005) of
/// the exact value. Larger (wrapped) offsets take the double path.
constexpr std::uint64_t kExactUsLimit = std::uint64_t{1} << 43;

/// Append `in` as the body of a JSON string literal.
void json_escape(std::string& out, std::string_view in) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : in) {
    const auto ch = static_cast<unsigned char>(c);
    if (ch >= 0x20 && c != '"' && c != '\\') {
      out += c;
      continue;
    }
    out += '\\';
    switch (c) {
      case '"': case '\\': out += c; break;
      case '\n': out += 'n'; break;
      case '\r': out += 'r'; break;
      case '\t': out += 't'; break;
      default: out += "u00"; out += kHex[ch >> 4]; out += kHex[ch & 0xF];
    }
  }
}

void append_int(std::string& out, std::int64_t v) {
  char tmp[24];
  out.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
}

/// A span kind in flight (open B waiting for its E).
struct OpenSpan {
  std::uint64_t begin_ns = 0;
  std::uint32_t arg = 0;
};

bool plausible_record(const TimelineRecord& rec) {
  // Torn or zeroed cells decode to out-of-range kinds/phases; drop them.
  return static_cast<std::uint16_t>(rec.kind) <=
             static_cast<std::uint16_t>(SpanKind::kParallelRegion) &&
         static_cast<std::uint8_t>(rec.phase) <= 2 && rec.ns != 0;
}

/// Emit the telemetry timelines plus `extra` through `w`.
void emit_trace(TraceWriter& w, const std::vector<ExternalEvent>& extra) {
  const std::vector<ThreadTimeline> threads = timelines();

  // Base timestamp: the earliest nanosecond anywhere, so the trace starts
  // near t=0.
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const ThreadTimeline& t : threads) {
    for (const TimelineRecord& rec : t.records) {
      if (plausible_record(rec)) base = std::min(base, rec.ns);
    }
  }
  for (const ExternalEvent& e : extra) {
    if (e.ns != 0) base = std::min(base, e.ns);
  }
  if (base == std::numeric_limits<std::uint64_t>::max()) base = 0;

  constexpr int kPid = 1;
  constexpr int kExternalTid = 999;
  const auto complete = [&w, base](int tid, std::string_view name,
                                   std::string_view cat,
                                   std::uint64_t begin_ns,
                                   std::uint64_t end_ns) {
    w.complete(kPid, tid, name, cat, begin_ns - base,
               end_ns > begin_ns ? end_ns - begin_ns : 0);
  };
  const auto instant = [&w, base](int tid, std::string_view name,
                                  std::string_view cat, std::uint64_t ns) {
    w.instant(kPid, tid, name, cat, ns - base);
  };

  w.process_name(kPid, "orca-runtime");
  for (const ExternalEvent& e : extra) {
    if (e.tid < 0) {
      w.thread_name(kPid, kExternalTid, "external");
      break;
    }
  }

  for (const ThreadTimeline& t : threads) {
    w.thread_name(kPid, t.tid,
                  t.name.empty() ? strfmt("thread-%d", t.tid) : t.name);

    std::uint64_t last_ns = 0;
    for (const TimelineRecord& rec : t.records) {
      if (plausible_record(rec)) last_ns = std::max(last_ns, rec.ns);
    }

    // Pass 1: state instants become wall-to-wall X spans: each state runs
    // until the next state record on the same thread (the final state is
    // closed at the thread's last timestamp).
    const TimelineRecord* prev_state = nullptr;
    for (const TimelineRecord& rec : t.records) {
      if (!plausible_record(rec) || rec.kind != SpanKind::kState) continue;
      if (prev_state != nullptr) {
        complete(t.tid, state_name(static_cast<int>(prev_state->arg)),
                 "thread-state", prev_state->ns, rec.ns);
      }
      prev_state = &rec;
    }
    if (prev_state != nullptr) {
      complete(t.tid, state_name(static_cast<int>(prev_state->arg)),
               "thread-state", prev_state->ns,
               std::max(last_ns, prev_state->ns));
    }

    // Pass 2: explicit B/E pairs become X spans; a lone E (its B was
    // overwritten) is dropped, a lone B (span still open, or its E lost to
    // wraparound) becomes an instant marker.
    OpenSpan open[6];
    bool is_open[6] = {};
    for (const TimelineRecord& rec : t.records) {
      if (!plausible_record(rec) || rec.kind == SpanKind::kState) continue;
      const auto k = static_cast<std::size_t>(rec.kind);
      if (rec.phase == Phase::kBegin) {
        if (is_open[k]) {
          instant(t.tid, span_name(rec.kind), "runtime-internal",
                  open[k].begin_ns);
        }
        open[k] = OpenSpan{rec.ns, rec.arg};
        is_open[k] = true;
      } else if (rec.phase == Phase::kEnd) {
        if (!is_open[k]) continue;
        complete(t.tid, span_name(rec.kind), "runtime-internal",
                 open[k].begin_ns, rec.ns);
        is_open[k] = false;
      } else {
        instant(t.tid, span_name(rec.kind), "runtime-internal", rec.ns);
      }
    }
    for (std::size_t k = 0; k < 6; ++k) {
      if (is_open[k]) {
        instant(t.tid, span_name(static_cast<SpanKind>(k)),
                "runtime-internal", open[k].begin_ns);
      }
    }
  }

  for (const ExternalEvent& e : extra) {
    const int tid = e.tid < 0 ? kExternalTid : e.tid;
    const std::string_view cat =
        e.category.empty() ? std::string_view("external") : e.category;
    if (e.dur_ns > 0) {
      complete(tid, e.name, cat, e.ns, e.ns + e.dur_ns);
    } else {
      instant(tid, e.name, cat, e.ns);
    }
  }
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")),
      streaming_(true),
      ok_(file_ != nullptr) {
  // The writer batches into kChunkBytes itself; skip stdio's copy.
  if (ok_) std::setvbuf(file_.get(), nullptr, _IONBF, 0);
  buf_.reserve(kChunkBytes + 4096);
}

void TraceWriter::complete(std::int64_t pid, int tid, std::string_view name,
                           std::string_view cat, std::uint64_t ts_ns,
                           std::uint64_t dur_ns) {
  begin('X', pid, tid);
  quoted(",\"name\":", name);
  quoted(",\"cat\":", cat);
  stamp(",\"ts\":", ts_ns);
  stamp(",\"dur\":", dur_ns);
  end("}");
}

void TraceWriter::instant(std::int64_t pid, int tid, std::string_view name,
                          std::string_view cat, std::uint64_t ts_ns) {
  begin('i', pid, tid);
  quoted(",\"name\":", name);
  quoted(",\"cat\":", cat);
  stamp(",\"ts\":", ts_ns);
  end(",\"s\":\"t\"}");
}

std::string TraceWriter::take() {
  buf_ += "\n]}\n";
  return std::move(buf_);
}

bool TraceWriter::close() {
  buf_ += "\n]}\n";
  flush();
  if (file_ && std::fclose(file_.release()) != 0) ok_ = false;
  return ok_;
}

void TraceWriter::metadata(std::int64_t pid, std::optional<int> tid,
                           std::string_view kind, std::string_view name) {
  begin('M', pid, tid);
  quoted(",\"name\":", kind);
  quoted(",\"args\":{\"name\":", name);
  end("}}");
}

void TraceWriter::begin(char ph, std::int64_t pid, std::optional<int> tid) {
  buf_ += first_ ? "\n{\"ph\":\"" : ",\n{\"ph\":\"";
  first_ = false;
  buf_ += ph;
  buf_ += "\",\"pid\":";
  append_int(buf_, pid);
  if (tid) {
    buf_ += ",\"tid\":";
    append_int(buf_, *tid);
  }
}

void TraceWriter::quoted(std::string_view key, std::string_view value) {
  buf_ += key;
  buf_ += '"';
  json_escape(buf_, value);
  buf_ += '"';
}

void TraceWriter::stamp(std::string_view key, std::uint64_t ns) {
  buf_ += key;
  char tmp[48];
  char* const limit = tmp + sizeof(tmp);
  char* end = nullptr;
  if (ns < kExactUsLimit) {
    char* point = std::to_chars(tmp, limit, ns / 1000).ptr;
    // 1000 + the fraction prints four digits; its leading '1' becomes '.'.
    end = std::to_chars(point, limit, 1000 + ns % 1000).ptr;
    *point = '.';
  } else {
    end = std::to_chars(tmp, limit, static_cast<double>(ns) / 1000.0,
                        std::chars_format::fixed, 3)
              .ptr;
  }
  buf_.append(tmp, end);
}

void TraceWriter::end(std::string_view tail) {
  buf_ += tail;
  if (streaming_ && buf_.size() >= kChunkBytes) flush();
}

void TraceWriter::flush() {
  if (file_ && ok_ &&
      std::fwrite(buf_.data(), 1, buf_.size(), file_.get()) != buf_.size()) {
    ok_ = false;
  }
  buf_.clear();
}

std::string render_chrome_trace(const std::vector<ExternalEvent>& extra) {
  TraceWriter w;
  emit_trace(w, extra);
  return w.take();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<ExternalEvent>& extra) {
  TraceWriter w(path);
  emit_trace(w, extra);
  return w.close();
}

std::string render_text_report() {
  const MetricsView view = metrics();
  std::string out = "== ORCA telemetry report ==\n";
  out += strfmt("armed: timeline=%d metrics=%d  threads tracked: %llu  "
                "timeline records held: %llu\n\n",
                (view.armed & kTimelineBit) != 0 ? 1 : 0,
                (view.armed & kMetricsBit) != 0 ? 1 : 0,
                static_cast<unsigned long long>(view.threads_tracked),
                static_cast<unsigned long long>(view.timeline_records));

  TextTable counters({"counter", "value"});
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters.add_row({counter_name(static_cast<Counter>(i)),
                      strfmt("%llu", static_cast<unsigned long long>(
                                         view.counters[i]))});
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    counters.add_row({gauge_name(static_cast<Gauge>(i)),
                      strfmt("%llu", static_cast<unsigned long long>(
                                         view.gauges[i]))});
  }
  out += counters.render();

  TextTable hists({"histogram", "count", "mean ns", "p50 ns", "p99 ns",
                   "max ns"});
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const HistogramView& h = view.histograms[i];
    const double mean =
        h.count > 0 ? static_cast<double>(h.sum_ns) /
                          static_cast<double>(h.count)
                    : 0.0;
    hists.add_row({histogram_name(static_cast<Histogram>(i)),
                   strfmt("%llu", static_cast<unsigned long long>(h.count)),
                   strfmt("%.0f", mean), strfmt("%.0f", h.quantile(0.5)),
                   strfmt("%.0f", h.quantile(0.99)),
                   strfmt("%llu", static_cast<unsigned long long>(h.max_ns))});
  }
  out += "\n";
  out += hists.render();

  const std::vector<ThreadTimeline> threads = timelines();
  if (!threads.empty()) {
    TextTable tl({"tid", "thread", "records", "overwritten"});
    for (const ThreadTimeline& t : threads) {
      tl.add_row({strfmt("%d", t.tid), t.name,
                  strfmt("%zu", t.records.size()),
                  strfmt("%llu",
                         static_cast<unsigned long long>(t.overwritten))});
    }
    out += "\n";
    out += tl.render();
  }
  return out;
}

void shutdown_report(const std::string& destination) {
  if (destination.empty()) return;
  const std::string report = render_text_report();
  if (destination == "stderr") {
    std::fputs(report.c_str(), stderr);
    return;
  }
  std::FILE* f = std::fopen(destination.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "ORCA: cannot open ORCA_TELEMETRY_REPORT path \"%s\"; "
                 "writing report to stderr instead\n",
                 destination.c_str());
    std::fputs(report.c_str(), stderr);
    return;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fclose(f);
}

}  // namespace orca::telemetry
