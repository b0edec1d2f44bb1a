"""The benchmark's four workloads, driven through the program's public API.

Each workload builds its datasets from ``--seed`` (``setup``), computes
the references its result checks compare against (``prepare``, untimed)
and then yields an endless, seed-determined sequence of *steps*.  A step
runs one operation (a query or a table-file rewrite; on
``service-contention`` a wait for the oldest open query, which completes
one or more) and returns one :class:`OpRecord` per operation.  Steps
time themselves with the runner's host clock (``now()``); the runner
calibrates between steps.  The first ``prefix_steps`` steps are the same
for every run with one seed, so the simulated metrics computed over
them are deterministic whatever the host speed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.determinism import canonical_result_digest
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.bench import cache as cache_bench
from repro.bench import rewrite as rewrite_bench
from repro.bench import service as service_bench
from repro.bench.env import Environment, RunConfig
from repro.config import MB, CacheSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.formats import writer
from repro.formats.reader import ParcelReader
from repro.service import JobStatus, QueryService
from repro.workloads import (
    DEEPWATER_QUERY,
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q6,
    TPCH_Q12,
    TPCH_Q18,
    DatasetSpec,
    deepwater,
    tpch,
)
from repro.workloads.laghos import LAGHOS_QUERY

__all__ = ["OpRecord", "SCENARIOS", "Scenario"]


@dataclass
class OpRecord:
    """One timed operation and what it measured on both clocks."""

    kind: str  # "query" or "write"
    host_s: float
    ok: bool
    sim_s: float = 0.0
    moved: int = 0
    stages: Dict[str, float] = field(default_factory=dict)
    util: Dict[str, float] = field(default_factory=dict)
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    #: Refused by the service's admission control.
    rejected: bool = False
    #: Factor taking ``host_s`` to the reference host speed (set by the runner).
    scale: float = 1.0

    def simulated(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (
            self.kind, self.ok, self.sim_s, self.moved,
            tuple(sorted(self.stages.items())), tuple(sorted(self.util.items())),
            self.queue_wait_s, self.exec_s, self.rejected,
        )


#: Called with the runner's host clock (``now()``).
Step = Callable[[Any], List[OpRecord]]


class ResultCheck:
    """Exact digest per (template, config) plus a reference within tolerance.

    The first result of each pair fixes its canonical digest; every later
    result of that pair must match it bit for bit (repeats, cache hits
    and misses).  Every result must also ``approx_equals`` its template's
    reference: OCS and hive-raw sum partial aggregates in a different
    order, so Q1 and Q6 differ in the last bits between them.
    """

    def __init__(self) -> None:
        self.references: Dict[str, RecordBatch] = {}
        self.digests: Dict[Tuple[str, str], str] = {}

    def check(self, template: str, config: str, batch: RecordBatch) -> bool:
        digest = canonical_result_digest(batch)
        expected = self.digests.setdefault((template, config), digest)
        return digest == expected and batch.approx_equals(self.references[template])


def _report_failure(what: str) -> None:
    print(f"# operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _query_step(
    env: Environment, checker: ResultCheck, template: str, sql: str,
    config: RunConfig, schema: str,
) -> Step:
    def step(clock) -> List[OpRecord]:
        start = clock.now()
        try:
            result = env.run(sql, config, schema)
        except Exception:  # noqa: BLE001 - counted as a failed query
            host = clock.now() - start
            _report_failure(f"{template} under {config.label}")
            return [OpRecord("query", host, False)]
        host = clock.now() - start
        return [
            OpRecord(
                "query", host, checker.check(template, config.label, result.batch),
                sim_s=result.execution_seconds,
                moved=result.data_moved_bytes,
                stages=dict(result.stage_seconds),
                util=dict(result.utilization),
            )
        ]

    return step


def _shuffled_rounds(items: list, seed: int) -> Iterator:
    """Endless rounds, each a seeded shuffle of every item."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class Scenario:
    """One workload: set-up, untimed references, and the step sequence."""

    name: str = ""
    #: Steps whose records feed the simulated metrics; every run takes
    #: at least this many, so p90 has at least 100 queries behind it.
    prefix_steps: int = 0
    #: Slope of log step host time on log calibration-loop time when the
    #: host's speed changes (see README, "Host times at a reference
    #: speed"); the runner scales host times by the speed ratio to it.
    host_elasticity: float = 1.0

    def setup(self, seed: int):
        raise NotImplementedError

    def prepare(self, state, seed: int) -> None:
        """Compute the result-check references (not timed)."""

    def steps(self, state, seed: int) -> Iterator[Step]:
        raise NotImplementedError

    def cache_stats(self, state) -> Optional[dict]:
        return None


# -- tpch-pushdown --------------------------------------------------------------

TPCH_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("q1", TPCH_Q1), ("q3", TPCH_Q3), ("q3_full", TPCH_Q3_FULL), ("q4", TPCH_Q4),
    ("q6", TPCH_Q6), ("q12", TPCH_Q12), ("q18", TPCH_Q18),
)
OCS_FULL = RunConfig(label="ocs-full", mode="ocs", policy=PushdownPolicy.all_operators())
HIVE_RAW = RunConfig.none()
#: lineitem and orders come from the rewrite bench's "smoke" builder
#: (2 files x 20,000 rows each); customer is added here for Q3_FULL.
CUSTOMER_ROWS = 10_000


@dataclass
class TpchState:
    env: Environment
    checker: ResultCheck = field(default_factory=ResultCheck)


class TpchPushdown(Scenario):
    name = "tpch-pushdown"
    prefix_steps = 8 * 2 * len(TPCH_QUERIES)
    host_elasticity = 0.8

    def setup(self, seed: int) -> TpchState:
        env = rewrite_bench.build_environment("smoke", seed)
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name="customer",
                bucket="data",
                file_count=1,
                generator=lambda i: tpch.generate_customer(CUSTOMER_ROWS, seed=23 + seed),
                row_group_rows=8192,
            )
        )
        env.run(TPCH_Q6, OCS_FULL, "tpch")  # warm-up
        return TpchState(env)

    def prepare(self, state: TpchState, seed: int) -> None:
        for label, sql in TPCH_QUERIES:
            state.checker.references[label] = state.env.run(sql, HIVE_RAW, "tpch").batch

    def steps(self, state: TpchState, seed: int) -> Iterator[Step]:
        pairs = [
            (label, sql, config)
            for label, sql in TPCH_QUERIES
            for config in (OCS_FULL, HIVE_RAW)
        ]
        for label, sql, config in _shuffled_rounds(pairs, seed):
            yield _query_step(state.env, state.checker, label, sql, config, "tpch")


# -- fig6-compressed ------------------------------------------------------------

DEEPWATER_FILES, DEEPWATER_ROWS = 2, 8192
FIG6_CODECS = ("snappy", "zstd")
FIG6_CONFIGS = (
    RunConfig.filter_only(),
    RunConfig.ocs("all-op", "filter", "project", "aggregate"),
    HIVE_RAW,
)


def _deepwater_env(codec: str, seed: int) -> Environment:
    """Figure 6's dataset layout (as ``bench.figure6``) at benchmark size."""
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            "hpc", "deepwater", "data", DEEPWATER_FILES,
            lambda i: deepwater.generate_deepwater_file(DEEPWATER_ROWS, i, seed=seed),
            codec=codec, row_group_rows=max(2048, DEEPWATER_ROWS // 4),
        )
    )
    return env


@dataclass
class Fig6State:
    envs: Dict[str, Environment]
    checker: ResultCheck = field(default_factory=ResultCheck)


class Fig6Compressed(Scenario):
    name = "fig6-compressed"
    prefix_steps = 17 * len(FIG6_CODECS) * len(FIG6_CONFIGS)

    def setup(self, seed: int) -> Fig6State:
        envs = {codec: _deepwater_env(codec, seed) for codec in FIG6_CODECS}
        envs[FIG6_CODECS[0]].run(DEEPWATER_QUERY, FIG6_CONFIGS[0], "hpc")  # warm-up
        return Fig6State(envs)

    def prepare(self, state: Fig6State, seed: int) -> None:
        reference = _deepwater_env("none", seed)
        for config in FIG6_CONFIGS:
            batch = reference.run(DEEPWATER_QUERY, config, "hpc").batch
            state.checker.references[config.label] = batch

    def steps(self, state: Fig6State, seed: int) -> Iterator[Step]:
        # The template key is the config: each config's reference is its
        # own run over the uncompressed copy.
        cells = [
            (codec, config.label, dataclasses.replace(config, label=f"{codec}/{config.label}"))
            for codec in FIG6_CODECS
            for config in FIG6_CONFIGS
        ]
        for codec, reference, config in _shuffled_rounds(cells, seed):
            yield _query_step(
                state.envs[codec], state.checker, reference, DEEPWATER_QUERY, config, "hpc"
            )


# -- cache-reuse-rewrite ---------------------------------------------------------

CACHE_TEMPLATES = 20
#: Zipf exponent of template popularity (template t has weight (t+1)^-s).
CACHE_SKEW = 1.5
#: Every this-many operations, one data file is rewritten.
REWRITE_EVERY = 32
#: Storage-tier budget per OCS node, below the working set so it evicts.
STORAGE_BUDGET = 1 * MB
CACHE_CONFIG = RunConfig(
    label="cache",
    mode="ocs",
    policy=PushdownPolicy.filter_only(),
    split_granularity="file",
    cache=CacheSpec(storage_budget_bytes=STORAGE_BUDGET),
)
#: Row-group size ``bench.cache.build_environment`` writes with.
CACHE_ROW_GROUP_ROWS = 8192


def _cycle_templates() -> List[int]:
    """The templates of one rewrite cycle's queries, in template order.

    Counts follow Zipf(``CACHE_SKEW``) over the cycle's queries, rounded
    by largest remainder, and every cycle repeats them in a seeded order.
    A rewrite stales every cached result (each template scans every
    file), so each template's first query in a cycle misses and the rest
    hit: the result-tier hit rate is fixed at 20 of 31 whatever the seed,
    p50 sits on the hit path and p90 on the miss path.  Independent draws
    moved bytes per query by about 0.15 of its median from seed to seed.
    """
    queries = REWRITE_EVERY - 1
    weights = [1.0 / (template + 1) ** CACHE_SKEW for template in range(CACHE_TEMPLATES)]
    shares = [queries * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(CACHE_TEMPLATES), key=lambda t: counts[t] - shares[t])
    for template in by_remainder[: queries - sum(counts)]:
        counts[template] += 1
    return [t for t in range(CACHE_TEMPLATES) for _ in range(counts[t])]


def _cache_sql(template: int) -> str:
    # Same thresholds as the cache bench: template 0 keeps the fewest rows.
    return cache_bench.SQL_TEMPLATE.format(threshold=0.08 - template * 0.004)


@dataclass
class CacheState:
    env: Environment
    checker: ResultCheck = field(default_factory=ResultCheck)
    #: (key, decoded batch, stored bytes) per lineitem data file.
    files: List[Tuple[str, RecordBatch, bytes]] = field(default_factory=list)


class CacheReuseRewrite(Scenario):
    name = "cache-reuse-rewrite"
    prefix_steps = 6 * REWRITE_EVERY

    def setup(self, seed: int) -> CacheState:
        env = cache_bench.build_environment("smoke", seed)
        # Warm up with every tier off, so the cache starts cold.
        env.run(_cache_sql(0), dataclasses.replace(CACHE_CONFIG, cache=None), "tpch")
        return CacheState(env)

    def prepare(self, state: CacheState, seed: int) -> None:
        env = state.env
        for template in sorted(set(_cycle_templates())):
            state.checker.references[str(template)] = env.run(
                _cache_sql(template), HIVE_RAW, "tpch"
            ).batch
        descriptor = env.metastore.get_table("tpch", "lineitem")
        for key in descriptor.files:
            data = env.store.get_object(descriptor.bucket, key)
            reader = ParcelReader(data)
            batch = concat_batches(
                [reader.read_row_group(i) for i in range(reader.num_row_groups)]
            )
            state.files.append((key, batch, data))

    def steps(self, state: CacheState, seed: int) -> Iterator[Step]:
        rng = random.Random(seed)
        cycle = _cycle_templates()
        bucket = state.env.metastore.get_table("tpch", "lineitem").bucket
        for index in itertools.count():
            rng.shuffle(cycle)
            for template in cycle:
                yield _query_step(
                    state.env, state.checker, str(template), _cache_sql(template),
                    CACHE_CONFIG, "tpch",
                )
            key, batch, data = state.files[index % len(state.files)]
            yield self._rewrite_step(state.env, bucket, key, batch, data)

    @staticmethod
    def _rewrite_step(
        env: Environment, bucket: str, key: str, batch: RecordBatch, stored: bytes
    ) -> Step:
        def step(clock) -> List[OpRecord]:
            start = clock.now()
            data = writer.write_table([batch], row_group_rows=CACHE_ROW_GROUP_ROWS)
            env.store.put_object(bucket, key, data)
            host = clock.now() - start
            # Identical bytes: the put only bumps the object's version.
            return [OpRecord("write", host, data == stored)]

        return step

    def cache_stats(self, state: CacheState) -> Optional[dict]:
        return state.env.cache_manager(CACHE_CONFIG.cache).stats()


# -- service-contention -----------------------------------------------------------

SERVICE_INTERARRIVAL_S = 0.060
#: Arrival gaps are drawn in blocks of this many (see ``_stratified_gaps``).
SERVICE_GAP_BLOCK = 10
SERVICE_SPEC = ServiceSpec(max_active_queries=3, max_queue_depth=64, policy="fair")
#: The service's default per-query config (full OCS pushdown).
SERVICE_CONFIG = RunConfig(label="service", mode="ocs")
SERVICE_TEMPLATES: Tuple[Tuple[str, str, str, str], ...] = (
    # (tenant, label, schema, sql), submitted round-robin as in bench service.
    ("analytics", "q1", "tpch", TPCH_Q1),
    ("hpc", "laghos", "hpc", LAGHOS_QUERY),
)


def _stratified_gaps(count: int, mean_s: float, rng: random.Random) -> List[float]:
    """Exponential interarrival gaps at evenly spaced quantiles, shuffled.

    Every block gets the same gap multiset (its mean is exactly
    ``mean_s``); only the order is random.  Independent draws made the
    simulated p90 spread about 0.2 of its median across seeds; this keeps
    the arrivals Poisson-shaped while the load stays the same per block.
    """
    gaps = [-mean_s * math.log(1.0 - (i + 0.5) / count) for i in range(count)]
    rng.shuffle(gaps)
    return gaps


@dataclass
class ServiceState:
    env: Environment
    service: QueryService
    checker: ResultCheck = field(default_factory=ResultCheck)


class ServiceContention(Scenario):
    """One long-lived ``QueryService`` under endless open-loop arrivals.

    Arrivals are submitted from inside the simulation (as
    ``repro.service.closed_loop`` does), so whatever the host speed, no query
    is submitted late and one seed gives one schedule.  Step ``k`` waits
    for the ``k``-th query, so ``k`` steps always finish the first ``k``
    queries (and any later ones that overtook them).  Each query's host
    latency is the host time from the previous completion (or the step's
    start) to its own, stamped by a callback on its completion event.
    """

    name = "service-contention"
    prefix_steps = 800
    host_elasticity = 0.5

    def setup(self, seed: int) -> ServiceState:
        env = service_bench.build_environment()
        for _, _, schema, sql in SERVICE_TEMPLATES:  # warm-up
            env.run(sql, SERVICE_CONFIG, schema)
        return ServiceState(env, QueryService(env, SERVICE_SPEC))

    def prepare(self, state: ServiceState, seed: int) -> None:
        for _, label, schema, sql in SERVICE_TEMPLATES:
            state.checker.references[label] = state.env.run(
                sql, SERVICE_CONFIG, schema
            ).batch

    def steps(self, state: ServiceState, seed: int) -> Iterator[Step]:
        service = state.service
        # (job, host time of its completion) in completion order.
        completed: List[Tuple[Any, float]] = []
        clock: List[Any] = [None]

        def arrivals():
            rng = random.Random(seed)
            gaps: List[float] = []
            for index in itertools.count():
                if not gaps:
                    gaps = _stratified_gaps(SERVICE_GAP_BLOCK, SERVICE_INTERARRIVAL_S, rng)
                tenant, label, schema, sql = SERVICE_TEMPLATES[index % len(SERVICE_TEMPLATES)]
                service.submit(sql, tenant=tenant, schema=schema, label=label)
                job = service.jobs[-1]
                job.completion.callbacks.append(
                    lambda _event, job=job: completed.append((job, clock[0].now()))
                )
                yield service.sim.timeout(gaps.pop())

        service.sim.process(arrivals(), name="perfbench-arrivals")
        for index in itertools.count():
            yield self._wait_step(state, completed, clock, index)

    @staticmethod
    def _wait_step(state: ServiceState, completed: list, clock: list, index: int) -> Step:
        def step(step_clock) -> List[OpRecord]:
            clock[0] = step_clock
            service = state.service
            start = step_clock.now()
            try:
                while len(service.jobs) <= index:  # not yet arrived: run on
                    service.sim.run(service.sim.now + SERVICE_INTERARRIVAL_S)
                service.wait_for(service.jobs[index])
            except Exception:  # noqa: BLE001 - counted as a failed query
                _report_failure("service wait")
                completed.clear()
                return [OpRecord("query", step_clock.now() - start, False)]
            records = []
            previous = start
            for job, done_at in completed:
                host, previous = done_at - previous, done_at
                result = job.result
                if job.status is not JobStatus.SUCCEEDED or result is None:
                    rejected = job.status is JobStatus.REJECTED
                    records.append(OpRecord("query", host, False, rejected=rejected))
                    continue
                records.append(
                    OpRecord(
                        "query", host,
                        state.checker.check(job.label, SERVICE_CONFIG.label, result.batch),
                        sim_s=job.latency_seconds,
                        moved=result.data_moved_bytes,
                        stages=dict(result.stage_seconds),
                        util=dict(result.utilization),
                        queue_wait_s=job.queue_wait_seconds,
                        exec_s=job.finished - job.dispatched,
                    )
                )
            completed.clear()
            return records

        return step


SCENARIOS: Dict[str, type] = {
    scenario.name: scenario
    for scenario in (TpchPushdown, Fig6Compressed, CacheReuseRewrite, ServiceContention)
}
