#!/usr/bin/env bash
# CI driver: the full verification matrix in one command.
#
#   scripts/ci.sh            # default + tsan + asan + ubsan presets
#   scripts/ci.sh default    # just the default preset
#   scripts/ci.sh tsan asan  # just the sanitizer presets
#
# Each preset (CMakePresets.json) configures its own build tree
# (build/, build-tsan/, build-asan/, build-ubsan/), builds everything,
# and runs:
#   * the full ctest suite (unit + fuzz + stress + resilience labels) —
#     which includes the conformance differ re-run with the resilience
#     fault seams (signal_during_query / callback_stall / fork_race)
#     armed, inside resilience_test (the seams have no env interface,
#     so the armed run lives in-process there) and the repo benchmark's
#     python self-tests (perfbench_selftest); the default preset runs it
#     a second time pinned to one core (taskset -c 0), the sanitizer
#     presets run its unit label a second time pinned;
#   * the perf-smoke lane (bench_event_path --smoke): every event-delivery
#     mode end to end in ~2s, a sanity check that the benches still run —
#     not a performance gate.
# The tsan preset is the one that validates the lock-free event fast path
# (collector_churn_test and friends must be race-free, see DESIGN.md §5.1)
# and the SIGPROF signal-storm lane (signal_storm_test).
#
# The default preset additionally archives machine-readable bench output
# into build/artifacts/ (BENCH_*.json, one JSON object per line) so a CI
# run leaves a perf paper trail to diff across commits:
#   BENCH_event_path.json          — bench_event_path --smoke rows
#   BENCH_primitives.json          — bench_primitives --smoke rows
#                                    (barrier and fork/join × threads,
#                                    labelled with the algorithm the
#                                    rule picked; spinlock, disarmed
#                                    emit)
#   BENCH_pipeline.json            — bench_pipeline --smoke rows
#                                    (events/s vs stage chain depth)
#   BENCH_shm.json                 — bench_shm_drain --smoke rows
#                                    (drained Mev/s vs reader shard count)
#   BENCH_telemetry_overhead.json  — telemetry_viewer armed-vs-off rows
#
# PERF_GATE=1 scripts/ci.sh additionally diffs the archived artifacts
# against the checked-in bench/baselines/ snapshot with
# scripts/perf_gate.py and fails the run on a regression beyond the
# per-row tolerances (docs/PERFORMANCE.md covers refreshing baselines).
set -euo pipefail

cd "$(dirname "$0")/.."

# Stale-shm hygiene: crashed or SIGKILLed runs leave /dev/shm/orca.* (and
# orcatest-*/orcafleet-*/orcabench-* from the suites) behind. Segment names
# are "<prefix>.<pid>.<seq>"; unlink any whose owner pid is gone. The
# runtime does the same (shm::cleanup_stale_segments) before arming.
for seg in /dev/shm/orca.* /dev/shm/orcatest-* /dev/shm/orcafleet-* \
           /dev/shm/orcabench-* /dev/shm/orcachaos-*; do
  [ -e "$seg" ] || continue
  pid=$(basename "$seg" | awk -F. '{print $(NF-1)}')
  case "$pid" in
    ''|*[!0-9]*) continue ;;  # unparseable name: leave it alone
  esac
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "ci.sh: reaping stale shm segment $seg (owner $pid is gone)"
    rm -f "$seg"
  fi
done

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default tsan asan ubsan)
fi

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"

  echo "=== [$preset] ctest (all labels) ==="
  ctest --preset "$preset" -j "$(nproc)"

  if [ "$preset" = default ]; then
    echo "=== [$preset] ctest pinned to one core ==="
    # Several paths (slot sharing, spin-vs-park, attach races) behave
    # differently on one core than on many; the full suite must pass
    # both ways, whatever the CI host's core count.
    taskset -c 0 ctest --preset "$preset"
  else
    echo "=== [$preset] ctest -L unit pinned to one core ==="
    # The sanitizers see the one-core interleavings too (parked waits,
    # shared slots); the unit label keeps the pinned lane short.
    taskset -c 0 ctest --preset "$preset" -L unit
  fi

  echo "=== [$preset] perf-smoke lane ==="
  ctest --preset "$preset" -L perf-smoke --output-on-failure

  echo "=== [$preset] fleet lane ==="
  # Out-of-process aggregation: orcamon against a three-producer fleet
  # with one producer SIGKILLed mid-run (docs/FLEET.md acceptance).
  ctest --preset "$preset" -L fleet --output-on-failure

  if [ "$preset" = default ] || [ "$preset" = asan ]; then
    echo "=== [$preset] chaos lane ==="
    # Seeded hostile-fleet schedules (SIGSTOP/SIGKILL/truncate/header
    # scribbles/attach flapping) against a live monitor, plus the
    # deterministic watchdog / stall-deadline / attach-backoff scenarios
    # (docs/FLEET.md threat model). A failing schedule prints a
    # replayable ORCA_TEST_SEED; archive every seed so a flake caught
    # here is never lost with the log.
    mkdir -p build/artifacts
    chaos_log="build/artifacts/chaos_${preset}.log"
    if ! ctest --preset "$preset" -L chaos --output-on-failure \
        | tee "$chaos_log"; then
      grep -o 'ORCA_TEST_SEED=0x[0-9a-fA-F]*' "$chaos_log" \
        >> build/artifacts/chaos_seeds.txt || true
      echo "ci.sh: chaos lane failed; replay seeds archived in" \
           "build/artifacts/chaos_seeds.txt"
      exit 1
    fi
  fi

  if [ "$preset" = default ]; then
    echo "=== [$preset] archive bench artifacts ==="
    artifacts=build/artifacts
    mkdir -p "$artifacts"
    ./build/bench/bench_event_path --smoke \
      | grep '^{' > "$artifacts/BENCH_event_path.json"
    ./build/bench/bench_primitives --smoke \
      | grep '^{' > "$artifacts/BENCH_primitives.json"
    ./build/bench/bench_pipeline --smoke \
      | grep '^{' > "$artifacts/BENCH_pipeline.json"
    ./build/bench/bench_shm_drain --smoke \
      | grep '^{' > "$artifacts/BENCH_shm.json"
    ./build/examples/telemetry_viewer --reps=200 --inner=8 \
      "--out=$artifacts/telemetry_viewer_trace.json" \
      | grep '^{' > "$artifacts/BENCH_telemetry_overhead.json"
    # SIGPROF sampling over syncbench; exits nonzero when no samples
    # landed, so a broken signal path fails CI here.
    ./build/examples/resilience_smoke --smoke \
      | grep '^{' > "$artifacts/BENCH_resilience_smoke.json"
    wc -l "$artifacts"/BENCH_*.json

    if [ "${PERF_GATE:-0}" = 1 ]; then
      echo "=== [$preset] perf gate (bench/baselines vs $artifacts) ==="
      python3 scripts/perf_gate.py \
        --baseline bench/baselines --current "$artifacts"
    fi
  fi
done

echo "ci.sh: all presets green (${presets[*]})"
