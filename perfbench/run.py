#!/usr/bin/env python3
"""The repo benchmark: profiled region cost, loss and fleet readiness.

    python3 perfbench/run.py --workload lu_hp --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the ORCA libraries it
links) into .bench_build/perfbench, runs one workload in closed loop for
--seconds, checks every pass's outputs and books, prints the metrics by
name with their units, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs the four workloads one after another, each with its
own tables and result line. --trace 0 reports the end-to-end metrics
(BENCHMARK.json "end_to_end");
--trace 1 runs a traced arm beside the bare and profiled ones, times each
layer's hops, and reports the per-layer metrics ("per_layer").

Workloads (team sizes are fixed so results stay comparable):
  lu_hp       NPB LU-HP analog, team of 4, PrototypeCollector (sync)
  sp_mz       SP-MZ analog over MiniMPI, 2 ranks x 2 threads, shared store
  epcc_async  EPCC PARALLEL/BARRIER/REDUCTION, team of 2, async delivery
              into the TracingCollector
  epcc_fleet  the same directives with shm export, drained by orcamon in a
              child process

Exit status: 0 when every check passed, 1 when a check failed or the
build or the run broke, 2 on bad arguments or a host with too few cores.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

# Threads each workload keeps busy at once; the run refuses a host with
# fewer cores, where the figures would measure oversubscription instead.
THREAD_BUDGET = {"lu_hp": 4, "sp_mz": 4, "epcc_async": 3, "epcc_fleet": 4}

RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build(bench_dir, build_dir, jobs):
    """Configure once, then an incremental build of the perfbench target."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return build_dir / "perfbench"


def clean_env():
    """No inherited ORCA_* / OMP_* knob may reach the runtime under test."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("ORCA_", "OMP_"))}


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def run_workload(binary, build_dir, workload, args, cores):
    """One measured run of `workload`; prints its tables and result line.
    Returns the exit status: 0 when every check passed."""
    run_dir = build_dir / f"run-{workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [
            str(binary),
            f"--workload={workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--out={run_dir}",
        ]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, env=clean_env(), timeout=RUN_TIMEOUT_S, text=True
            )
        except subprocess.TimeoutExpired:
            log("perfbench: run timed out")
            return 1
        if proc.returncode != 0 or not proc.stdout.strip():
            log(f"perfbench: run failed with status {proc.returncode}")
            return 1
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = []
        if args.trace:
            spans = analysis.decode_spans((run_dir / "spans.bin").read_bytes())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Correctness: every pass, bare and profiled, against the same books.
    bare = analysis.arm_passes(raw, "bare")
    reference = bare[0]["checksum"] if bare else 0.0
    failed = 0
    for p in raw["passes"]:
        problems = analysis.pass_problems(workload, p, reference)
        if problems:
            failed += 1
            log(f"perfbench: {p['arm']} pass {p['round']}: " + "; ".join(problems))

    print(
        f"host: nproc={cores} cpu={cpu_model()!r} build={raw['build_type']} sha={raw['git_sha']} "
        f"barrier={raw['barrier']} delivery={raw['delivery']} seed={args.seed}"
    )
    counts = {arm: len(analysis.arm_passes(raw, arm)) for arm in ("bare", "profiled", "traced")}
    print(f"workload: {workload} passes={counts} failed={failed}")

    if args.trace:
        metrics = analysis.per_layer(raw, spans)
        print_table("per-layer metrics:", metrics)
        split = analysis.region_analysis(spans)
        region_us = analysis.end_to_end(raw)["region_us"][0]
        if split and workload == "lu_hp":
            share = split["region_self_us"] / region_us
            print(
                f"runtime.region_self_us is {100 * share:.1f}% of region_us={region_us:.3f} us "
                f"({'the majority' if share > 0.5 else 'not the majority'})"
            )
        if split and workload == "sp_mz":
            share = split["callback_us_per_region"] / region_us
            print(
                f"tool.callback_us_per_region is {100 * share:.1f}% of region_us={region_us:.3f} us "
                f"({'the majority' if share > 0.5 else 'not the majority'}); "
                f"sample_loss={metrics['perf.sample_loss'][0]:.4%}"
            )
    else:
        metrics = analysis.end_to_end(raw)
        print_table("end-to-end metrics:", metrics)

    result = {
        "correct": failed == 0,
        "attempted": len(raw["passes"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREAD_BUDGET) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = list(THREAD_BUDGET) if args.workload == "all" else [args.workload]

    cores = len(os.sched_getaffinity(0))
    for workload in workloads:
        if cores < THREAD_BUDGET[workload]:
            log(f"perfbench: {workload} needs {THREAD_BUDGET[workload]} cores, host has {cores}")
            return 2

    bench_dir = Path(__file__).resolve().parent
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(bench_dir, build_dir, min(cores, 4))
    if binary is None:
        log("perfbench: build failed")
        return 1
    return max(run_workload(binary, build_dir, w, args, cores) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
