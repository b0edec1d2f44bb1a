"""Two-clock benchmark of the Presto-OCS reproduction.

    python3 perfbench/run.py --workload tpch-pushdown --seed 1 --seconds 15 --trace 0

Runs one workload in this process on one host thread and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Host time (set-up, query
throughput and per-query latency, peak memory) is the cost of this
program; simulated latency and bytes moved are what the reproduction
reports, computed over the workload's fixed step prefix so that one
seed always gives the same values.

Host times are reported at a reference host speed.  A shared virtual
machine runs this code at a speed that changes by up to a factor of two,
several times a second, as neighbours load the cores.  So the run times
a short calibration sample, a fixed pure-Python loop, between every two
steps and scales each step's host time by the reference sample time
over the mean of the samples just before and just after it, raised to
the workload's ``host_elasticity``.  ``setup_s`` is not scaled.  Raw
times are printed on the ``#`` lines.

``--trace 1`` reports the per-layer metrics instead.  It runs the step
prefix on two fresh set-ups, taking turns step by step: one untraced and
one under the outside-in layer tracer (``tracer.py``).  Both passes must
agree exactly on every simulated number and result digest, every hook
must fire on the workload meant to exercise it, and ``trace.overhead``
is the traced pass's wall time over the untraced one.

Workloads, metrics and the layer-to-metric mapping: ``README.md``.
"""

from __future__ import annotations

import os

# One host thread: keep numpy's BLAS pools from starting more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Cold set-ups per timed run, each in a fresh process; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3
#: Loops per calibration sample; the sample is their median, so one
#: loop that the host preempts does not skew it.
CALIBRATION_LOOPS = 3
#: Duration of one calibration loop at the reference host speed: its
#: typical time on the 2-vCPU Xeon VM the benchmark was built on, so
#: reported host times read close to raw ones there.
CALIBRATION_REFERENCE_S = 0.0005
STAGES = (
    "logical_plan_analysis", "substrait_generation", "pushdown_and_transfer",
    "presto_execution", "exchange", "others",
)

Metrics = Dict[str, Tuple[float, str]]


def load_program():
    """Import the program from ``src/``; exit non-zero when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import scenarios
    import tracer

    return scenarios, tracer


class Pass:
    """The records one drive of the step sequence produced."""

    def __init__(self) -> None:
        self.records: list = []
        self.prefix: list = []
        self.seconds = 0.0
        self.scaled_seconds = 0.0


def _queries(records: list) -> list:
    return [r for r in records if r.kind == "query"]


class HostClock:
    """Host time of the program's work, and the host's speed around it.

    ``now()`` leaves out the time spent calibrating.  ``sample()`` times
    a calibration sample at a safe point between pieces of work.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._calibrating_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._calibrating_s

    def sample(self) -> float:
        start = time.perf_counter()
        loops = sorted(_calibration_loop() for _ in range(CALIBRATION_LOOPS))
        self.samples.append(loops[len(loops) // 2])
        self._calibrating_s += time.perf_counter() - start
        return self.samples[-1]


def _scale(before: float, after: float, elasticity: float) -> float:
    """Factor taking host time between two samples to reference speed.

    ``elasticity`` is how strongly the workload's host time follows the
    calibration loop's (``Scenario.host_elasticity``).
    """
    return (2 * CALIBRATION_REFERENCE_S / (before + after)) ** elasticity


def _calibration_loop() -> float:
    """Time one fixed pure-Python loop (dict, bytes and list work)."""
    gc.disable()  # the program's heap size must not change the sample
    try:
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        pieces = []
        for i in range(1000):
            key = i & 255
            counts[key] = counts.get(key, 0) + i
            pieces.append(bytes((key,)) * 3)
        b"".join(pieces)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _drive(scenario, state, seed: int, seconds: float, clock: HostClock) -> Pass:
    """Run steps: the whole prefix, then more until ``seconds`` of work.

    ``Pass.seconds`` is the steps' own host time, calibration left out;
    ``Pass.scaled_seconds`` is the same at reference speed, and each
    record's ``scale`` is its step's factor.
    """
    out = Pass()
    steps = scenario.steps(state, seed)
    taken = 0
    before = clock.sample()
    while taken < scenario.prefix_steps or out.seconds < seconds:
        start = clock.now()
        records = next(steps)(clock)
        raw = clock.now() - start
        after = clock.sample()
        scale = _scale(before, after, scenario.host_elasticity)
        for record in records:
            record.scale = scale
        out.records.extend(records)
        out.seconds += raw
        out.scaled_seconds += raw * scale
        before = after
        taken += 1
        if taken == scenario.prefix_steps:
            out.prefix = list(out.records)
    return out


def _percentile(values: List[float], pct: float) -> float:
    # Imported here: ``repro`` is importable only after load_program().
    from repro.service.slo import percentile

    return percentile(values, pct)


def _simulated_metrics(run: Pass) -> Metrics:
    done = [r for r in _queries(run.prefix) if r.ok]
    sims = [r.sim_s * 1e3 for r in done]
    return {
        "sim_latency_p50_ms": (_percentile(sims, 50), "sim_ms"),
        "sim_latency_p90_ms": (_percentile(sims, 90), "sim_ms"),
        "bytes_moved_per_query": (
            sum(r.moved for r in done) / len(done) if done else 0.0, "bytes"
        ),
    }


def _host_metrics(setup_times: List[float], run: Pass, raw: bool) -> Metrics:
    """Host metrics at reference speed, or as measured when ``raw``."""
    latencies = [r.host_s * 1e3 * (1.0 if raw else r.scale) for r in _queries(run.records)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "qps": (len(run.records) / (run.seconds if raw else run.scaled_seconds), "1/s"),
        "latency_p50_ms": (_percentile(latencies, 50), "ms"),
        "latency_p90_ms": (_percentile(latencies, 90), "ms"),
    }


def _cold_setup_seconds(workload: str, seed: int) -> float:
    """Host seconds from starting a fresh process to its set-up's end.

    The child (``setup_probe.py``) starts the interpreter, imports the
    program and sets the workload up, then prints one line; its exit is
    not timed.  Only this process runs meanwhile, as it waits.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    seconds = time.perf_counter() - start
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold set-up of {workload} failed (exit {child.returncode})")
    return seconds


def timed_run(scenario, seed: int, seconds: float) -> Tuple[Metrics, Pass, dict, list]:
    clock = HostClock()
    setups = [_cold_setup_seconds(scenario.name, seed) for _ in range(SETUP_REPEATS)]
    state = scenario.setup(seed)
    scenario.prepare(state, seed)
    run = _drive(scenario, state, seed, seconds, clock)
    for name, (value, unit) in sorted(_host_metrics(setups, run, raw=True).items()):
        print(f"# raw {name} = {value} {unit}")
    print(f"# calibration samples {len(clock.samples)} "
          f"median {statistics.median(clock.samples)} s")
    metrics = _host_metrics(setups, run, raw=False)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics.update(_simulated_metrics(run))
    return metrics, run, state.checker.digests, []


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _cache_metrics(stats: Optional[dict]) -> Metrics:
    tiers = ("result", "split", "storage")
    out: Metrics = {}
    for tier in tiers:
        counters = stats[tier] if stats else {}
        lookups = counters.get("hits", 0) + counters.get("misses", 0)
        out[f"cache.{tier}.hit_rate"] = (
            counters["hits"] / lookups if lookups else 0.0, "ratio"
        )
    for counter in ("evictions", "stale_drops"):
        total = sum(stats[tier][counter] for tier in tiers) if stats else 0
        out[f"cache.{counter}"] = (total, "count")
    return out


def _simulated_layer_metrics(run: Pass) -> Metrics:
    done = [r for r in _queries(run.records) if r.ok]
    out: Metrics = {}
    for stage in STAGES:
        out[f"stage.{stage}_ms"] = (
            _mean([r.stages.get(stage, 0.0) * 1e3 for r in done]), "sim_ms"
        )
    storage = [
        _mean([v for k, v in r.util.items() if k.startswith("storage_cores[")]) for r in done
    ]
    out["util.compute_cores"] = (_mean([r.util.get("compute_cores", 0.0) for r in done]), "ratio")
    out["util.storage_cores"] = (_mean(storage), "ratio")
    out["util.link"] = (_mean([r.util.get("link", 0.0) for r in done]), "ratio")
    served = [r for r in done if r.exec_s > 0.0]
    waits = [r.queue_wait_s * 1e3 for r in served]
    out["service.queue_wait_p50_ms"] = (_percentile(waits, 50), "sim_ms")
    out["service.queue_wait_p90_ms"] = (_percentile(waits, 90), "sim_ms")
    out["service.exec_p50_ms"] = (
        _percentile([r.exec_s * 1e3 for r in served], 50), "sim_ms"
    )
    return out


def _drive_pair(scenario, plain_state, traced_state, seed: int, layer_tracer) -> Tuple[Pass, Pass]:
    """Run the step prefix on two fresh states, one untraced and one traced.

    The two passes take turns step by step, and which goes first
    alternates, so a slow spell of the shared host lands on both.
    """
    plain, traced = Pass(), Pass()
    clock = HostClock()
    sides = [
        (plain, scenario.steps(plain_state, seed), False),
        (traced, scenario.steps(traced_state, seed), True),
    ]
    for index in range(scenario.prefix_steps):
        for run, steps, tracing in sides if index % 2 == 0 else sides[::-1]:
            layer_tracer.active = tracing
            start = clock.now()
            run.records.extend(next(steps)(clock))
            run.seconds += clock.now() - start
    layer_tracer.active = True
    return plain, traced


def traced_run(scenario, tracer_module, seed: int) -> Tuple[Metrics, Pass, dict, List[str]]:
    problems: List[str] = []
    layer_tracer = tracer_module.LayerTracer().install()
    try:
        with layer_tracer.paused():
            plain_state = scenario.setup(seed)
            scenario.prepare(plain_state, seed)
        state = scenario.setup(seed)
        with layer_tracer.paused():
            scenario.prepare(state, seed)
        plain, traced = _drive_pair(scenario, plain_state, state, seed, layer_tracer)
    finally:
        layer_tracer.uninstall()
    plain_digests = plain_state.checker.digests

    if [r.simulated() for r in plain.records] != [r.simulated() for r in traced.records]:
        problems.append("simulated numbers differ between the untraced and traced pass")
    if plain_digests != state.checker.digests:
        problems.append("result digests differ between the untraced and traced pass")
    unfired = layer_tracer.unfired(scenario.name)
    if unfired:
        problems.append(f"hooks never fired: {', '.join(unfired)}")

    metrics: Metrics = dict(layer_tracer.layer_metrics())
    metrics.update(_cache_metrics(scenario.cache_stats(state)))
    metrics.update(_simulated_layer_metrics(traced))
    metrics["service.rejected"] = (sum(1 for r in traced.records if r.rejected), "count")
    writes = [r.host_s * 1e3 for r in plain.records if r.kind == "write"]
    metrics["write_p50_ms"] = (_percentile(writes, 50), "ms")
    metrics["trace.overhead"] = (traced.seconds / plain.seconds, "ratio")
    return metrics, traced, state.checker.digests, problems


def main(argv: Optional[List[str]] = None) -> int:
    scenarios, tracer_module = load_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    scenario = scenarios.SCENARIOS[args.workload]()
    if args.trace:
        metrics, run, digests, problems = traced_run(scenario, tracer_module, args.seed)
    else:
        metrics, run, digests, problems = timed_run(scenario, args.seed, args.seconds)

    attempted = len(run.records)
    failed = sum(1 for r in run.records if not r.ok)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# attempted {attempted} failed {failed} error_rate {failed / max(attempted, 1)}")
    for (template, config), digest in sorted(digests.items()):
        print(f"# digest {template} {config} {digest}")
    for problem in problems:
        print(f"# problem: {problem}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
