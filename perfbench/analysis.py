"""Turns the perfbench binary's raw records into the benchmark's metrics.

Pure functions only: run.py does the building, running and printing. The
statistics helpers here (percentile, self time, loss ratio) are covered
by test_analysis.py.
"""

import math
import statistics
import struct

# OMP_COLLECTORAPI_EVENT values (src/collector/api.h).
EVENT_FORK = 1
EVENT_JOIN = 2
EVENT_BEGIN_IBAR = 5
EVENT_END_IBAR = 6

# Span names (perfbench/src/spans.hpp).
SPAN_PASS = 2
SPAN_REGION = 3
SPAN_CALLBACK = 4
SPAN_NPB_KERNEL = 5

SPAN_FORMAT = struct.Struct("<QQQQiHH")

# Workloads whose passes run an NPB kernel under the PrototypeCollector.
NPB_WORKLOADS = ("lu_hp", "sp_mz")


# --- statistics ----------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def loss_ratio(lost, total):
    """Share of `total` that was lost; 0 when nothing was attempted."""
    return lost / total if total else 0.0


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([c for c in clipped if c[0] < c[1]])


# --- spans -------------------------------------------------------------------


# Field positions of a decoded span tuple.
ID, PARENT, START, END, EVENT, NAME, THREAD = range(7)


def decode_spans(data):
    """40-byte span records -> list of (id, parent, start, end, event,
    name, thread) tuples."""
    return list(SPAN_FORMAT.iter_unpack(data))


def region_analysis(spans):
    """Traced PrototypeCollector split, over the regions of the NPB kernels.

    Regions are the spans from a master's FORK callback start to its JOIN
    callback end; only those inside an NPB kernel span count, so the EPCC
    trio that follows the kernel in a pass does not mix in.
    """
    kernels = [(s[START], s[END]) for s in spans if s[NAME] == SPAN_NPB_KERNEL]

    def in_kernel(s):
        return any(k0 <= s[START] and s[END] <= k1 for k0, k1 in kernels)

    regions = {s[ID]: s for s in spans if s[NAME] == SPAN_REGION and in_kernel(s)}
    callbacks = [s for s in spans if s[NAME] == SPAN_CALLBACK and in_kernel(s)]
    if not regions:
        return None
    children = {rid: [] for rid in regions}
    for cb in callbacks:
        if cb[PARENT] in children:
            children[cb[PARENT]].append(cb)

    spans_us, self_us, ibar_us = [], [], []
    for rid, region in regions.items():
        kids = sorted(children[rid], key=lambda c: c[START])
        spans_us.append((region[END] - region[START]) / 1e3)
        self_us.append(self_time((region[START], region[END]), [(c[START], c[END]) for c in kids]) / 1e3)
        wait = 0
        begin_end = None
        for c in kids:
            if c[EVENT] == EVENT_BEGIN_IBAR:
                begin_end = c[END]
            elif c[EVENT] == EVENT_END_IBAR and begin_end is not None:
                wait += c[START] - begin_end
                begin_end = None
        ibar_us.append(wait / 1e3)

    join_ns = [c[END] - c[START] for c in callbacks if c[EVENT] == EVENT_JOIN]
    other_ns = [c[END] - c[START] for c in callbacks if c[EVENT] != EVENT_JOIN]
    callback_total_us = sum(c[END] - c[START] for c in callbacks) / 1e3
    return {
        "regions": len(regions),
        "region_span_us_p50": percentile(spans_us, 50),
        "region_span_us_p99": percentile(spans_us, 99),
        "region_self_us": mean(self_us),
        "ibar_wait_us": mean(ibar_us),
        "events_per_region": len(callbacks) / len(regions),
        "callback_ns": median(other_ns),
        "join_callback_ns": median(join_ns),
        "callback_us_per_region": callback_total_us / len(regions),
    }


# --- metrics -------------------------------------------------------------------


def arm_passes(raw, arm):
    return [p for p in raw["passes"] if p["arm"] == arm]


def region_us_of(p):
    """Per-region time of one pass: NPB kernel time over its region calls,
    or on the EPCC workloads the mean PARALLEL per-call time."""
    if p["regions"]:
        return p["work_s"] / p["regions"] * 1e6
    return mean(p["parallel_call_us"])


def book_sum(passes, key):
    return sum(p["books"].get(key, 0) for p in passes)


def delivered_pct(workload, passes):
    """Share of the records a collector was handed that it kept."""
    if workload in NPB_WORKLOADS:
        kept, offered = book_sum(passes, "samples_stored"), book_sum(passes, "samples_attempted")
    elif workload == "epcc_async":
        kept, offered = book_sum(passes, "delivered"), book_sum(passes, "submitted")
    else:
        kept, offered = book_sum(passes, "read"), book_sum(passes, "produced")
    return 100.0 * kept / offered if offered else 0.0


def end_to_end(raw):
    workload = raw["workload"]
    prof = arm_passes(raw, "profiled")
    bare = arm_passes(raw, "bare")

    def epcc(passes, directive):
        return median([mean(p["epcc_us"][directive]) for p in passes])

    return {
        "setup_s": (median([p["setup_s"] for p in prof]), "s"),
        "region_us": (median([region_us_of(p) for p in prof]), "us"),
        "region_us_bare": (median([region_us_of(p) for p in bare]), "us"),
        "parallel_us": (epcc(prof, "PARALLEL"), "us"),
        "barrier_us": (epcc(prof, "BARRIER"), "us"),
        "reduction_us": (epcc(prof, "REDUCTION"), "us"),
        "flush_ms": (median([p["flush_s"] for p in prof]) * 1e3, "ms"),
        "report_ready_s": (median([p["ready_s"] for p in prof]), "s"),
        "delivered_pct": (delivered_pct(workload, prof), "%"),
        "peak_rss_mb": ((raw["max_rss_kb"] + raw["child_max_rss_kb"]) / 1024.0, "MB"),
    }


def per_layer(raw, spans):
    """Every per-layer metric; 0 where the workload does not use a layer."""
    workload = raw["workload"]
    hops = raw["hops"]
    prof = arm_passes(raw, "profiled")
    traced = arm_passes(raw, "traced")
    n = max(len(prof), 1)

    def per_pass(key):
        return book_sum(prof, key) / n

    def extra_median(key, scale):
        values = [p["extra"][key] for p in traced if key in p["extra"]]
        return median(values) * scale

    split = region_analysis(spans) or {}
    traced_region = median([region_us_of(p) for p in traced])
    untraced_region = median([region_us_of(p) for p in prof])

    residual = 0.0
    if split:
        record = hops["perf.record_shared_ns"] if workload == "sp_mz" else hops["perf.record_ns"]
        predicted_us = (
            split["events_per_region"] * record
            + hops["collector.query_prid_ns"]
            + hops["unwind.capture_ns"]
            + hops["perf.record_callstack_ns"]
        ) / 1e3
        measured = split["callback_us_per_region"]
        residual = 100.0 * (measured - predicted_us) / measured

    frames = book_sum(prof, "join_frames")
    stacks = book_sum(prof, "join_callstacks")
    return {
        "runtime.fork_empty_us": (hops["runtime.fork_empty_us"], "us"),
        "runtime.barrier_us": (hops["runtime.barrier_us"], "us"),
        "runtime.region_self_us": (split.get("region_self_us", 0.0), "us"),
        "runtime.ibar_wait_us": (split.get("ibar_wait_us", 0.0), "us"),
        "runtime.region_span_us_p50": (split.get("region_span_us_p50", 0.0), "us"),
        "runtime.region_span_us_p99": (split.get("region_span_us_p99", 0.0), "us"),
        "runtime.events_per_region": (split.get("events_per_region", 0.0), "count"),
        "collector.emit_disarmed_ns": (hops["collector.emit_disarmed_ns"], "ns"),
        "collector.emit_armed_ns": (hops["collector.emit_armed_ns"], "ns"),
        "collector.query_prid_ns": (hops["collector.query_prid_ns"], "ns"),
        "collector.callbacks": (per_pass("samples_attempted") + per_pass("delivered"), "count"),
        "async.push_ns": (hops["async.push_ns"], "ns"),
        "async.submitted": (per_pass("submitted"), "count"),
        "async.delivered": (per_pass("delivered"), "count"),
        "async.dropped": (per_pass("dropped"), "count"),
        "async.overwritten": (per_pass("overwritten"), "count"),
        "async.event_loss": (
            loss_ratio(book_sum(prof, "dropped") + book_sum(prof, "overwritten"), book_sum(prof, "submitted")),
            "ratio",
        ),
        "tool.callback_ns": (split.get("callback_ns", 0.0), "ns"),
        "tool.join_callback_ns": (split.get("join_callback_ns", 0.0), "ns"),
        "tool.callback_us_per_region": (split.get("callback_us_per_region", 0.0), "us"),
        "perf.record_ns": (hops["perf.record_ns"], "ns"),
        "perf.record_shared_ns": (hops["perf.record_shared_ns"], "ns"),
        "perf.record_shared_loss": (hops["perf.record_shared_loss"], "ratio"),
        "perf.record_callstack_ns": (hops["perf.record_callstack_ns"], "ns"),
        "perf.samples_attempted": (per_pass("samples_attempted"), "count"),
        "perf.samples_dropped": (per_pass("samples_dropped"), "count"),
        "perf.sample_loss": (
            loss_ratio(book_sum(prof, "samples_dropped"), book_sum(prof, "samples_attempted")),
            "ratio",
        ),
        "unwind.capture_ns": (hops["unwind.capture_ns"], "ns"),
        "unwind.frames_per_join": (frames / stacks if stacks else 0.0, "count"),
        "pipeline.stage_ns": (hops["pipeline.stage_ns"], "ns"),
        "pipeline.accepted": (per_pass("pipeline_accepted"), "count"),
        "pipeline.emitted": (per_pass("pipeline_emitted"), "count"),
        "pipeline.filtered": (per_pass("pipeline_filtered"), "count"),
        "pipeline.dropped": (per_pass("pipeline_dropped"), "count"),
        "pipeline.held": (per_pass("pipeline_held"), "count"),
        "shm.publish_ns": (hops["shm.publish_ns"], "ns"),
        "shm.poll_ns": (hops["shm.poll_ns"], "ns"),
        "shm.produced": (per_pass("produced"), "count"),
        "shm.read": (per_pass("read"), "count"),
        "shm.lost": (per_pass("lost"), "count"),
        "shm.event_loss": (loss_ratio(book_sum(prof, "lost"), book_sum(prof, "produced")), "ratio"),
        "orcamon.drain_tail_ms": (extra_median("drain_tail_s", 1e3), "ms"),
        "orcamon.trace_write_s": (extra_median("trace_write_s", 1.0), "s"),
        "orcamon.report_render_ms": (extra_median("report_render_ms", 1.0), "ms"),
        "orcamon.events_seen": (per_pass("events_seen"), "count"),
        "npb.region_calls": (median([p["regions"] for p in prof]), "count"),
        "journey.residual_pct": (residual, "%"),
        # Only the NPB workloads trace inside regions; elsewhere the traced
        # arm adds spans per pass, outside anything region_us times.
        "trace.overhead_pct": (
            100.0 * (traced_region - untraced_region) / untraced_region if split else 0.0,
            "%",
        ),
    }


# --- correctness -------------------------------------------------------------------


def pass_problems(workload, p, reference_checksum):
    """Why one pass's outputs are wrong (empty when they are right)."""
    problems = []
    books = p["books"]
    if p["epcc_regions"] != p["epcc_expected"]:
        problems.append(f"EPCC ran {p['epcc_regions']} regions, expected {p['epcc_expected']}")
    if workload in NPB_WORKLOADS:
        procs = 2 if workload == "sp_mz" else 1
        if p["regions"] != p["target"] or p["total_regions"] != procs * p["target"]:
            problems.append(f"region calls {p['regions']}/{p['total_regions']} != target {p['target']}")
        if not math.isclose(p["checksum"], reference_checksum, rel_tol=1e-12):
            problems.append(f"checksum {p['checksum']!r} != {reference_checksum!r}")
        if p["arm"] != "bare" and (
            books["samples_stored"] + books["samples_dropped"] != books["samples_attempted"]
        ):
            problems.append("sample books: stored + dropped != attempted")
    elif workload == "epcc_async" and p["arm"] != "bare":
        if books["submitted"] != books["delivered"] + books["dropped"] + books["overwritten"]:
            problems.append("event books: submitted != delivered + dropped + overwritten")
        if books["pipeline_unbalanced_stages"]:
            problems.append("pipeline books: accepted != emitted + filtered + dropped + held")
        if books["forks_logged"] != books["forks_expected"]:
            problems.append(f"trace logged {books['forks_logged']} forks of {books['forks_expected']}")
    elif workload == "epcc_fleet" and p["arm"] != "bare":
        if books["produced"] != books["read"] + books["lost"]:
            problems.append("orcamon books: produced != read + lost")
        if books["events_seen"] != books["read"]:
            problems.append("orcamon decoded a different number of records than it read")
        if books["producers"] != 1 or books["quarantined"]:
            problems.append("orcamon did not see exactly one healthy producer")
    return problems
