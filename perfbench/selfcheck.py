"""Determinism self-check of the benchmark, one fresh process per run.

    python3 perfbench/selfcheck.py [--workload NAME]

For every workload (or just NAME): two runs with seed 0, untraced and
traced, must print identical simulated metrics, counts, cache counters,
``*.calls`` and result digests; a run with seed 1 must pass every result
check.  Each run measures for 5 seconds, or its step prefix if longer.
Exits non-zero on the first workload that fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import run as bench_run

RUN = Path(bench_run.__file__).resolve()
SEED, OTHER_SEED = 0, 1
SECONDS = 5

#: End-to-end metrics that are deterministic for one seed.
SIMULATED = ("sim_latency_p50_ms", "sim_latency_p90_ms", "bytes_moved_per_query")
#: Per-layer metrics measured in host time (everything else repeats exactly).
HOST_TIMED = ("trace.overhead", "write_p50_ms")


def run(workload: str, seed: int, trace: int) -> Tuple[dict, Dict[str, str]]:
    """One benchmark process: its result object and its digest lines."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digests = {}
    for line in lines:
        if line.startswith("# digest "):
            _, _, template, config, digest = line.split()
            digests[f"{template} {config}"] = digest
    return json.loads(lines[-1]), digests


def deterministic(result: dict, trace: int) -> Dict[str, float]:
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        return {
            name: value for name, value in metrics.items()
            if not name.endswith(".self_ms") and name not in HOST_TIMED
        }
    return {name: metrics[name] for name in SIMULATED}


def check(workload: str) -> list:
    problems = []
    for trace in (0, 1):
        (first, first_digests), (second, second_digests) = (
            run(workload, SEED, trace) for _ in range(2)
        )
        for label, result in (("first", first), ("second", second)):
            if not result["correct"]:
                problems.append(f"trace {trace}: {label} run with seed {SEED} not correct")
        a, b = deterministic(first, trace), deterministic(second, trace)
        for name in sorted(a):
            if a[name] != b.get(name):
                problems.append(f"trace {trace}: {name} {a[name]} != {b.get(name)}")
        # Timed runs go past the prefix by a host-dependent amount, so
        # they may see more pairs; every pair both saw must agree.
        for pair in sorted(set(first_digests) & set(second_digests)):
            if first_digests[pair] != second_digests[pair]:
                problems.append(f"trace {trace}: digest of {pair} differs")
        other, _ = run(workload, OTHER_SEED, trace)
        if not other["correct"]:
            problems.append(f"trace {trace}: run with seed {OTHER_SEED} not correct")
    return problems


def main() -> int:
    scenarios, _ = bench_run.load_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(scenarios.SCENARIOS))
    args = parser.parse_args()
    for workload in [args.workload] if args.workload else list(scenarios.SCENARIOS):
        problems = check(workload)
        for problem in problems:
            print(f"{workload}: {problem}")
        if problems:
            return 1
        print(f"{workload}: deterministic for seed {SEED}, "
              f"correct for seeds {SEED} and {OTHER_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
