"""One cold set-up of a workload, timed by ``run.py`` for ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the program, sets the workload up from ``SEED`` (datasets, the
write path and the warm-up query) and prints ``ready``.  ``run.py``
times this process from its start to that line: interpreter start,
imports and set-up, everything before a timed run's first query.
"""

import sys

import run


def main() -> int:
    scenarios, _ = run.load_program()
    workload, seed = sys.argv[1], int(sys.argv[2])
    scenarios.SCENARIOS[workload]().setup(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
