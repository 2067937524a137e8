#!/usr/bin/env python3
"""Analyst-gesture benchmark of viva: build, generate inputs, replay.

Run from the repository root:

    python3 perfbench/run.py --workload g5k-timeline --seed 1 \
        --seconds 10 --trace 0

Steps:
  1. configure and build perfbench/ (the viva sources under src/ plus
     the gesture_bench driver) in Release mode, under $CARGO_TARGET_DIR
     (default .bench_build)/perfbench;
  2. generate the workload's seeded inputs once per seed (trace file and
     gesture list), cached under the build directory; g5k-timeline's
     trace is the same for every seed, so it is simulated only once;
  3. replay them for --seconds and print the result JSON as the last
     line of standard output. --trace 1 prints the per-layer metrics
     and writes the run's spans to <build>/spans/<workload>-<seed>.json.

Exits non-zero, printing no result, when the viva sources are missing or
the build, the generator or the replay fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("g5k-timeline", "synth10k-churn")
# Workloads whose trace does not depend on the seed.
SEED_FREE_TRACES = ("g5k-timeline",)
RUN_TIMEOUT_S = 170


def build_root():
    """Where everything the benchmark builds or writes goes."""
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build gesture_bench; return its path."""
    if not (SOURCE_DIR / "CMakeLists.txt").is_file():
        raise RuntimeError(f"viva sources not found under {SOURCE_DIR}")
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", *generator, "-B", str(out), "-S",
                        str(BENCH_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "gesture_bench"


def inputs(binary, workload, seed):
    """The workload's inputs for a seed, generated on first use."""
    stamp_text = str(binary.stat().st_mtime_ns)
    where = build_root() / "inputs" / f"{workload}-{seed}"
    stamp = where / ".generated"
    if not stamp.is_file() or stamp.read_text() != stamp_text:
        if where.exists():
            shutil.rmtree(where)
        cmd = [str(binary), "gen", "--workload", workload,
               "--seed", str(seed), "--dir", str(where)]
        # The Fig. 8 trace is the same for every seed: simulate it once.
        shared = build_root() / "inputs" / f"{workload}.trace"
        shared_stamp = shared.with_suffix(".generated")
        reuse = (workload in SEED_FREE_TRACES and shared_stamp.is_file()
                 and shared_stamp.read_text() == stamp_text)
        if reuse:
            cmd += ["--trace-from", str(shared)]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        if workload in SEED_FREE_TRACES and not reuse:
            shutil.copyfile(where / "trace.viva", shared)
            shared_stamp.write_text(stamp_text)
        stamp.write_text(stamp_text)
    return where


def replay(binary, workload, seed, seconds, traced, extra=(), where=None):
    """Run gesture_bench; return (stdout lines, parsed result)."""
    where = where or inputs(binary, workload, seed)
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--dir", str(where), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", *extra]
    if traced:
        spans = build_root() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-{seed}.json")]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError("gesture_bench printed nothing")
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        binary = build()
        lines, result = replay(binary, args.workload, args.seed,
                               args.seconds, args.trace == 1)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 1
    if not isinstance(result, dict) or "metrics" not in result:
        log("perfbench: the last line is not a result")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
