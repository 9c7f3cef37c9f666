"""Benchmark command: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each round of the workload runs in a fresh
process (round.py) with the program imported from src/, so set-up time
and peak memory are those of one study. Rounds repeat until the next one
would end past S seconds; at least one round runs. With --trace 1 every
round is traced. Set-up time is also sampled by set-up-only processes.
BLAS and OpenMP threads are held to the number of usable cores.

The last line of standard output is one JSON object: whether every check
held, the operations attempted and failed, and the metrics named in
BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1), each
the median over the run's rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


def _thread_env() -> dict:
    cores = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = cores
    return env


def _spawn(workload: str, seed: int, traced: bool, deadline: float, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "round.py"), workload, str(seed),
            repr(time.monotonic()), "1" if traced else "0"]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=_thread_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise ValueError(f"unknown workload {workload!r}")
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    problems = checks.self_test()
    if problems:
        raise RuntimeError("output checks failed their self test: " + "; ".join(problems))
    setups = [] if trace else [
        _spawn(workload, seed, False, hard_deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)]
    rounds = []
    deadline = start + seconds
    while True:
        rounds.append(_spawn(workload, seed, trace, hard_deadline))
        if time.monotonic() + rounds[-1]["elapsed_s"] > deadline:
            break

    errors = sorted({error for r in rounds for error in r["errors"]})
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in rounds[0]["layers"]}
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        declared = spec["end_to_end"]
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
