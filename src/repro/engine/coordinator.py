"""The coordinator: the paper's Figure 3 pipeline end to end.

``execute`` runs one SQL statement: parse -> analyze -> logical plan ->
global optimize -> connector local optimize -> **lower to a stage
graph** -> hand the graph to the DAG scheduler -> gather results.  All
real computation happens inline; all timing comes from the DES.

Queries no longer run down hard-coded pipelines.  :meth:`Coordinator.
_lower` turns every plan — single-table scans and chains of equi-joins
alike — into a typed :class:`~repro.engine.dag.StageGraph` (scan,
filter, exchange, join, aggregate, merge stages with schema-carrying
edges), and :class:`~repro.engine.scheduler.DagScheduler` runs any
stage the moment its inputs complete.  That one change buys N-way
joins (TPC-H Q3's customer ⋈ orders ⋈ lineitem lowers to two join
levels), concurrent independent scans, speculative re-execution of
straggler splits, and stage-level restart after exchange faults —
without per-shape coordinator code.

Stage attribution matches Table 3's rows: ``logical_plan_analysis``
(connector plan traversal), ``substrait_generation`` (charged by the OCS
connector's page source), ``pushdown_and_transfer`` (storage round trip
+ page materialization), ``presto_execution`` (post-scan operators), and
``others`` (coordination fixed costs + scheduling).

When the cluster's tracer records, the coordinator opens one root span
per query, the scheduler wraps each stage in an (untagged)
``stage:<id>`` span, and every stage window is mirrored by a
``stage``-tagged child span over the same instants, so the Table 3
breakdown is re-derivable from the span tree alone
(:func:`repro.trace.stage_totals`); spans add no simulated cost, so the
timings are bit-identical with tracing on or off.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.analysis.runtime import strict_verify_enabled
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Schema
from repro.cache.manager import CacheManager, object_version_signature
from repro.engine.cluster import Cluster
from repro.engine.costing import choose_join_distribution, presto_pipeline_cycles
from repro.engine.dag import Stage, StageContext, StageGraph
from repro.engine.physical import PhysicalPlan, fragment_plan
from repro.engine.scheduler import DagScheduler, SchedulerSpec, run_splits
from repro.engine.session import Session
from repro.engine.spi import Connector, ConnectorSplit, PageSourceResult
from repro.errors import AnalysisError, EngineError, NoSuchCatalogError, PlanError
from repro.exchange.filters import build_dynamic_filter
from repro.exchange.partition import hash_partition
from repro.exec.backend import ExecBackend, get_backend
from repro.exec.operators import HashJoinOperator, HashAggregationOperator, Operator, run_operators
from repro.plan.nodes import (
    JoinNode,
    OutputNode,
    PlanNode,
    TableScanNode,
    format_plan,
)
from repro.plan.optimizer import GlobalOptimizer
from repro.plan.planner import plan_query
from repro.rewrite import (
    RewriteContext,
    RuleFiring,
    derived_schema,
    rewrite_statement,
)
from repro.rpc.retry import RetryPolicy
from repro.sim.kernel import AllOf
from repro.sim.metrics import MetricsRegistry, StageAccountant
from repro.sql.analyzer import analyze as analyze_statement
from repro.sql.ast_nodes import (
    CommonTableExpr,
    DateLiteral,
    Expression,
    Literal,
    SelectStatement,
    TableName,
)
from repro.sql.parser import parse
from repro.trace import Trace, render_tree, stage_totals

__all__ = ["Coordinator", "MaterializedHandle", "QueryResult"]

STAGE_ANALYSIS = "logical_plan_analysis"
STAGE_SUBSTRAIT = "substrait_generation"
STAGE_TRANSFER = "pushdown_and_transfer"
STAGE_EXECUTION = "presto_execution"
STAGE_EXCHANGE = "exchange"
STAGE_OTHERS = "others"


@dataclass
class QueryResult:
    """Everything one query run produced and measured."""

    batch: RecordBatch
    execution_seconds: float
    #: Bytes that crossed from the storage layer into the compute node.
    data_moved_bytes: int
    splits: int
    plan_before: str
    plan_after: str
    metrics: MetricsRegistry
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Mean busy fraction per resource over the query's lifetime, e.g.
    #: {"compute_cores": 0.02, "storage_cores[0]": 0.61, "link": 0.05}.
    utilization: Dict[str, float] = field(default_factory=dict)
    #: The query's span tree when the cluster ran with tracing enabled.
    trace: Optional[Trace] = None
    #: The stage graph the query ran through (EXPLAIN renders this),
    #: retired: it describes the graph but cannot be re-executed.
    stage_graph: Optional[StageGraph] = None

    @property
    def rows(self) -> int:
        return self.batch.num_rows

    def to_pydict(self) -> Dict[str, list]:
        return self.batch.to_pydict()


@dataclass
class _Branch:
    """One scan branch of the lowered graph (base table or join build)."""

    stage_id: str
    table: str
    plan: PlanNode
    physical: PhysicalPlan
    handle: Any
    splits: List[ConnectorSplit]


@dataclass
class _SplitProbe:
    """Split-cache keys for one branch plus the lowering-time hit set.

    Computed by :meth:`Coordinator._split_probe` with pure peeks (no
    recency or stats mutation) so EXPLAIN can lower without executing.
    The *shape* of the graph is fixed here; the cached stage re-checks
    each entry with a real versioned lookup at run time and falls back
    to the pushdown path for anything evicted or invalidated in between.
    """

    keys: List[Hashable]
    hits: List[int]
    misses: List[int]


@dataclass
class _Lowered:
    """Everything :meth:`Coordinator._lower` produced for one query."""

    graph: StageGraph
    plan_after: str
    branches: List[_Branch]
    total_splits: int
    #: Plan-node count driving the local-optimization cycle charge
    #: (0 when the connector has no local optimizer).
    analysis_nodes: int
    output_schema: Schema
    result_stage: str
    has_exchange: bool


@dataclass
class MaterializedHandle:
    """Connector-handle stand-in for a rewriter-materialized CTE.

    The coordinator executes the CTE body once and parks the result
    here; every reference then scans ``batches`` locally instead of
    pushing to storage.  The handle deliberately has no ``descriptor``
    and no ``pushed`` plan, so split/result caching and pushdown both
    disable themselves for materialized branches (there is no object
    version signature to invalidate against).
    """

    name: str
    table_schema: Schema
    batches: List[RecordBatch] = field(default_factory=list)


@dataclass
class _Prepared:
    """parse -> rewrite output for one statement.

    ``statement`` is the rewritten form with the WITH clause stripped
    (every surviving CTE is listed in ``cte_jobs`` for one-shot
    materialization); ``scalar_jobs`` are the uncorrelated scalar
    subqueries the run path must execute before the deterministic
    second rewrite pass substitutes their values.
    """

    original: SelectStatement
    statement: SelectStatement
    firings: List[RuleFiring]
    scalar_jobs: List[SelectStatement]
    cte_jobs: List[CommonTableExpr]
    cte_schemas: Dict[str, Schema]


class Coordinator:
    """Plans and runs queries against registered catalogs on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        catalogs: Dict[str, Connector],
        exec_backend: Union[str, ExecBackend] = "tree",
        scheduler: Optional[SchedulerSpec] = None,
        rewrite: bool = True,
        rewrite_budget: int = 32,
    ) -> None:
        self.cluster = cluster
        self.catalogs = dict(catalogs)
        #: Compiles every compute-side operator pipeline before it runs
        #: (tree-walk reference vs fused vectorized kernels).
        self.backend = get_backend(exec_backend)
        #: Restart/speculation policy handed to every query's scheduler.
        self.scheduler_spec = scheduler if scheduler is not None else SchedulerSpec()
        #: Run the rule-driven logical rewriter between parse and
        #: analysis.  Off, subquery expressions and WITH clauses reach
        #: the analyzer unrewritten and fail with a clear diagnostic.
        self.rewrite = rewrite
        #: Fixpoint budget: max rule applications per statement.
        self.rewrite_budget = rewrite_budget

    def connector_for(self, name: str) -> Connector:
        try:
            return self.catalogs[name]
        except KeyError:
            raise NoSuchCatalogError(
                f"catalog {name!r}; registered: {sorted(self.catalogs)}"
            ) from None

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str, session: Session) -> QueryResult:
        """Run one statement to completion; returns results + measurements."""
        cluster = self.cluster
        process = cluster.sim.process(self._run_query(sql, session), name="query")
        result = cluster.sim.run(until=process)
        return result

    def query_process(
        self,
        sql: str,
        session: Session,
        *,
        metrics: Optional[MetricsRegistry] = None,
        parent=None,
        query_id: Optional[str] = None,
        tenant: str = "default",
    ):
        """The query as a schedulable DES generator (re-entrant form).

        :meth:`execute` drives one query to completion on an otherwise
        idle cluster; the multi-tenant query service instead spawns many
        of these concurrently on one shared cluster.  Each call gets its
        own metrics registry and span root (parented under ``parent``
        when given, so a service-level trace nests the query),
        ``query_id`` tags resource claims for per-query accounting, and
        ``tenant`` owns the query's cache fills for quota accounting.
        """
        return self._run_query(
            sql, session, metrics=metrics, parent=parent, query_id=query_id,
            tenant=tenant,
        )

    def explain(self, sql: str, session: Session, analyze: bool = False) -> str:
        """Plan (without executing) and describe what would happen.

        Shows the optimized logical plan, the plan after the connector's
        local optimizer, the operators merged into the scan handle with
        their selectivity estimates, the split structure, and the stage
        graph the scheduler would run — Presto's EXPLAIN, extended with
        the paper's pushdown vocabulary.

        With ``analyze=True`` the query actually runs (with tracing
        forced on) and the output is the recorded span tree, the
        span-derived Table 3 stage breakdown, and the stage graph with
        per-stage timings — ``EXPLAIN ANALYZE``.
        """
        if analyze:
            return self._explain_analyze(sql, session)
        plan, plan_before, connector, prepared = self._plan_statement(sql, session)
        lowered = self._lower(plan, connector, MetricsRegistry())

        lines = [f"EXPLAIN {' '.join(sql.split())}", ""]
        if prepared.firings:
            # Omitted entirely when no rule fired: the section only
            # exists to explain a statement that actually changed.
            lines.append("Rewrite (rules fired):")
            for i, firing in enumerate(prepared.firings, start=1):
                lines.append(f"  {i}. {firing.rule}: {firing.detail}")
            lines.append("")
        lines += [
            "Logical plan (after global optimization):",
            plan_before,
        ]
        if len(lowered.branches) == 1:
            # Single-table: the classic EXPLAIN shape.
            branch = lowered.branches[0]
            lines += [
                "",
                f"After {type(connector).__name__} local optimizer:",
                lowered.plan_after,
            ]
            lines += self._pushed_lines(branch.handle)
        else:
            lines += [
                "",
                f"After {type(connector).__name__} local optimizer:",
                lowered.plan_after,
            ]
            for branch in lowered.branches:
                lines += [
                    "",
                    f"Branch {branch.stage_id} after "
                    f"{type(connector).__name__} local optimizer:",
                    format_plan(branch.plan),
                ]
                lines += self._pushed_lines(branch.handle, label=branch.stage_id)
        lines.append("")
        lines.append("Stage graph:")
        lines.append(lowered.graph.render())
        lines.append("")
        lines.append(f"Splits: {lowered.total_splits}")
        return "\n".join(lines)

    @staticmethod
    def _pushed_lines(handle, label: Optional[str] = None) -> List[str]:
        pushed = getattr(handle, "pushed", None)
        if pushed is None:
            return []
        operators = pushed.operator_names() or ["(none)"]
        suffix = f" ({label})" if label else ""
        lines = ["", f"Pushed to storage{suffix}: {', '.join(operators)}"]
        if getattr(handle, "estimated_selectivity", None) is not None:
            lines.append(
                f"  estimated filter selectivity: "
                f"{handle.estimated_selectivity:.4%}"
            )
        if getattr(handle, "estimated_output_rows", None) is not None:
            lines.append(
                f"  estimated aggregation groups: "
                f"{handle.estimated_output_rows:,}"
            )
        return lines

    def _explain_analyze(self, sql: str, session: Session) -> str:
        """Run the query with tracing forced on; render tree + stages."""
        tracer = self.cluster.tracer
        was_enabled = tracer.enabled
        tracer.enabled = True
        try:
            result = self.execute(sql, session)
        finally:
            tracer.enabled = was_enabled
        lines = [
            f"EXPLAIN ANALYZE {' '.join(sql.split())}",
            "",
            f"wall time: {result.execution_seconds * 1e3:.3f} ms    "
            f"rows: {result.rows:,}    "
            f"data moved: {result.data_moved_bytes:,} B    "
            f"splits: {result.splits}",
            "",
            render_tree(result.trace),
            "",
            "Stage breakdown (derived from spans):",
        ]
        totals = stage_totals(result.trace, elapsed=result.execution_seconds)
        for stage in (
            STAGE_ANALYSIS,
            STAGE_SUBSTRAIT,
            STAGE_TRANSFER,
            STAGE_EXCHANGE,
            STAGE_EXECUTION,
            STAGE_OTHERS,
        ):
            seconds = totals.get(stage, 0.0)
            lines.append(f"  {stage:<24} {seconds * 1e3:10.3f} ms")
        if result.stage_graph is not None:
            timings: Dict[str, float] = {}
            for span in result.trace:
                if span.name.startswith("stage:") and span.end is not None:
                    sid = span.name[len("stage:"):]
                    timings[sid] = timings.get(sid, 0.0) + span.duration
            lines.append("")
            lines.append("Stage graph (per-stage wall time):")
            lines.append(result.stage_graph.render(timings=timings))
        return "\n".join(lines)

    # -- planning --------------------------------------------------------------

    def _schema_resolver(self, session: Session) -> Callable[[TableName], Schema]:
        """Catalog schema lookup for rewrite-rule guards."""

        def resolve(name: TableName) -> Schema:
            # Unknown catalogs/tables surface as SqlError so rules decline
            # and the planning path owns the real diagnostic (including
            # the cross-catalog-join rejection).
            try:
                connector = self.connector_for(name.catalog or session.catalog)
                handle = connector.get_table_handle(
                    name.schema or session.schema, name.table
                )
            except EngineError as exc:
                raise AnalysisError(str(exc)) from exc
            return handle.table_schema

        return resolve

    def _prepare_statement(
        self,
        sql: str,
        session: Session,
        tracer,
        startup,
        scalar_results: Optional[Dict[str, Expression]] = None,
    ) -> _Prepared:
        """parse -> rewrite (rule fixpoint).

        ``scalar_results`` maps a scalar subquery's SQL to its computed
        literal; absent entries get a typed placeholder and are recorded
        in ``scalar_jobs`` so the run path can execute them and re-run
        this (deterministic) pass with the real values.
        """
        with tracer.span("parse", parent=startup):
            original = parse(sql)
        if not self.rewrite:
            return _Prepared(original, original, [], [], [], {})

        scalar_jobs: List[SelectStatement] = []

        def scalar_value(sub: SelectStatement) -> Expression:
            key = sub.to_sql()
            if scalar_results is not None and key in scalar_results:
                return scalar_results[key]
            scalar_jobs.append(sub)
            return self._placeholder_literal(sub, ctx)

        ctx = RewriteContext(
            resolve=self._schema_resolver(session), scalar_value=scalar_value
        )
        result = rewrite_statement(
            original, ctx, budget=self.rewrite_budget, tracer=tracer, parent=startup
        )
        statement = result.statement
        cte_jobs = [cte for cte in statement.ctes if cte.materialized]
        if statement.ctes and all(c.materialized for c in statement.ctes):
            # Every binding is pinned for one-shot materialization; the
            # analyzer never sees the WITH clause.  (A residual
            # non-materialized CTE stays put so the analyzer reports it.)
            statement = replace(statement, ctes=())
        cte_schemas = {
            cte.name: derived_schema(cte.query, ctx) for cte in cte_jobs
        }
        return _Prepared(
            original=original,
            statement=statement,
            firings=list(result.firings),
            scalar_jobs=scalar_jobs,
            cte_jobs=cte_jobs,
            cte_schemas=cte_schemas,
        )

    def _placeholder_literal(
        self, sub: SelectStatement, ctx: RewriteContext
    ) -> Expression:
        """Typed stand-in for a scalar subquery on the pure (EXPLAIN) path."""
        dtype = derived_schema(sub, ctx).fields[0].dtype
        name = dtype.name
        if name == "date32":
            return DateLiteral("1970-01-01")
        if name in ("float32", "float64"):
            return Literal(0.0)
        if name == "bool":
            return Literal(False)
        if name == "string":
            return Literal("")
        return Literal(0)

    @staticmethod
    def _scalar_literal(batch: RecordBatch) -> Expression:
        """Literal AST node for an executed scalar subquery's result."""
        if batch.num_rows != 1:
            raise PlanError(
                f"scalar subquery returned {batch.num_rows} rows "
                f"(must return exactly 1)"
            )
        field_ = batch.schema.fields[0]
        value = batch.columns[0].to_pylist()[0]
        if value is None:
            raise PlanError("scalar subquery returned NULL")
        if field_.dtype.name == "date32":
            import datetime

            iso = (
                datetime.date(1970, 1, 1) + datetime.timedelta(days=int(value))
            ).isoformat()
            return DateLiteral(iso)
        return Literal(value)

    def _resolve_handle(
        self,
        table: TableName,
        session: Session,
        materialized: Dict[str, MaterializedHandle],
    ) -> Any:
        """Table handle: rewriter-materialized CTEs first, then the catalog."""
        if (
            table.catalog is None
            and table.schema is None
            and table.table in materialized
        ):
            return materialized[table.table]
        connector = self.connector_for(table.catalog or session.catalog)
        return connector.get_table_handle(
            table.schema or session.schema, table.table
        )

    def _plan_prepared(
        self,
        prepared: _Prepared,
        session: Session,
        tracer,
        startup,
        materialized: Dict[str, MaterializedHandle],
    ):
        """analyze -> logical plan -> global optimize (post-rewrite).

        Returns the optimized plan, its rendering, and the resolved
        connector.  A semi/anti join clause contributes the schema of
        its *subquery's* FROM table (the analyzer plans the derived
        table itself); handles key by scanned-table name, which covers
        both catalog tables and materialized CTE temporaries.
        """
        statement = prepared.statement
        catalog_name = statement.from_table.catalog or session.catalog
        connector = self.connector_for(catalog_name)
        handle = self._resolve_handle(statement.from_table, session, materialized)
        join_handles: List[Any] = []
        join_schemas: List[Schema] = []
        handle_keys: List[str] = []
        for clause in statement.joins:
            source = (
                clause.subquery.from_table
                if clause.subquery is not None
                else clause.table
            )
            is_materialized = (
                source.catalog is None
                and source.schema is None
                and source.table in materialized
            )
            if not is_materialized:
                join_catalog = source.catalog or session.catalog
                if join_catalog != catalog_name:
                    raise PlanError(
                        f"cross-catalog joins are not supported "
                        f"({catalog_name} vs {join_catalog})"
                    )
            join_handle = self._resolve_handle(source, session, materialized)
            join_handles.append(join_handle)
            join_schemas.append(join_handle.table_schema)
            handle_keys.append(source.table)
        with tracer.span("analyze", parent=startup):
            if join_handles:
                query = analyze_statement(
                    statement, handle.table_schema, join_schemas=join_schemas
                )
            else:
                query = analyze_statement(statement, handle.table_schema)
        with tracer.span("plan.logical", parent=startup):
            plan: PlanNode = plan_query(query)
            handles_by_table = {statement.from_table.table: handle}
            for key, join_handle in zip(handle_keys, join_handles):
                handles_by_table[key] = join_handle
            self._attach_handles(plan, handles_by_table)
        with tracer.span("optimize.global", parent=startup):
            if strict_verify_enabled():
                # Global rewrites must preserve the analyzed plan's output
                # schema; verify both sides under strict verification.
                from repro.analysis.verifier import verify_logical_plan

                pre_schema = verify_logical_plan(plan)
                plan = GlobalOptimizer().optimize(plan)
                post_schema = verify_logical_plan(plan)
                if pre_schema.names() != post_schema.names() or any(
                    a.dtype is not b.dtype for a, b in zip(pre_schema, post_schema)
                ):
                    from repro.errors import VerificationError

                    raise VerificationError(
                        f"global optimization changed the output schema from "
                        f"{pre_schema.names()} to {post_schema.names()}"
                    )
            else:
                plan = GlobalOptimizer().optimize(plan)
        if strict_verify_enabled() and prepared.firings:
            # The rewritten plan must still produce the output shape the
            # pre-rewrite statement declared.
            from repro.analysis.verifier import verify_rewrite

            verify_rewrite(prepared.original, plan)
        return plan, format_plan(plan), connector

    def _plan_statement(self, sql: str, session: Session, tracer=None, startup=None):
        """parse -> rewrite -> analyze -> logical plan -> global optimize.

        The pure planning path shared by :meth:`explain` (no tracer) and
        the no-subexecution fast path of the query process.  Scalar
        subqueries keep their typed placeholders and materialized CTEs
        lower against schema-only (batch-less) handles, so no simulated
        time passes.  Returns the plan, its rendering, the connector,
        and the :class:`_Prepared` record (for EXPLAIN's Rewrite
        section).
        """
        from repro.trace.tracer import NOOP_TRACER

        tracer = tracer if tracer is not None else NOOP_TRACER
        prepared = self._prepare_statement(sql, session, tracer, startup)
        materialized = {
            name: MaterializedHandle(name=name, table_schema=schema)
            for name, schema in prepared.cte_schemas.items()
        }
        plan, plan_after, connector = self._plan_prepared(
            prepared, session, tracer, startup, materialized
        )
        return plan, plan_after, connector, prepared

    # -- the query process ----------------------------------------------------------

    def _run_query(
        self,
        sql: str,
        session: Session,
        *,
        metrics: Optional[MetricsRegistry] = None,
        parent=None,
        query_id: Optional[str] = None,
        tenant: str = "default",
    ):
        cluster = self.cluster
        sim = cluster.sim
        costs = cluster.costs
        # Per-query scoped: consecutive/concurrent queries on one shared
        # cluster must not see each other's counters or stage windows.
        metrics = metrics if metrics is not None else MetricsRegistry()
        tracer = cluster.tracer
        accountant = StageAccountant(sim, metrics.stages)

        # (0) Coordination overhead ("others" in Table 3).  Every stage
        # window below is mirrored by a stage-tagged span over the same
        # instants, so span-derived totals reproduce ``stage_seconds``.
        query_start = sim.now
        bytes_start = cluster.bytes_to_compute()
        retries_start = cluster.exchange.retries
        root = tracer.start(
            "query", parent=parent, attributes={"sql": " ".join(sql.split())}
        )
        startup = tracer.start("startup", parent=root, stage=STAGE_OTHERS)
        with accountant.charged(STAGE_OTHERS):
            yield cluster.compute.execute(
                costs.coordinator_fixed_cycles, name="coordinate"
            )

            # (1-3) Parse, rewrite, analyze, logical plan, global
            # optimization.  These run inline (instantaneous in
            # simulated time) — their spans are zero-width markers
            # recording pipeline structure.
            prepared = self._prepare_statement(
                sql, session, tracer=tracer, startup=startup
            )
            if not prepared.scalar_jobs and not prepared.cte_jobs:
                plan, plan_before, connector = self._plan_prepared(
                    prepared, session, tracer, startup, materialized={}
                )
        tracer.end(startup)

        if prepared.scalar_jobs or prepared.cte_jobs:
            # (1b) Rewriter-requested sub-executions.  Uncorrelated
            # scalar subqueries and materialized CTE bodies run as
            # nested queries on this same cluster; their transfers and
            # stage time accrue to this query's wall clock and ledger.
            if prepared.scalar_jobs:
                scalar_results: Dict[str, Expression] = {}
                for sub in prepared.scalar_jobs:
                    sub_result = yield from self._run_query(
                        sub.to_sql(), session, metrics=MetricsRegistry(),
                        parent=root, tenant=tenant,
                    )
                    scalar_results[sub.to_sql()] = self._scalar_literal(
                        sub_result.batch
                    )
                # Deterministic second pass: the same rules fire in the
                # same order, now substituting the computed values.
                from repro.trace.tracer import NOOP_TRACER

                prepared = self._prepare_statement(
                    sql, session, tracer=NOOP_TRACER, startup=None,
                    scalar_results=scalar_results,
                )
            materialized: Dict[str, MaterializedHandle] = {}
            for cte in prepared.cte_jobs:
                sub_result = yield from self._run_query(
                    cte.query.to_sql(), session, metrics=MetricsRegistry(),
                    parent=root, tenant=tenant,
                )
                materialized[cte.name] = MaterializedHandle(
                    name=cte.name,
                    table_schema=prepared.cte_schemas[cte.name],
                    batches=[sub_result.batch],
                )
            planning = tracer.start("planning", parent=root, stage=STAGE_OTHERS)
            with accountant.charged(STAGE_OTHERS):
                plan, plan_before, connector = self._plan_prepared(
                    prepared, session, tracer, planning, materialized=materialized
                )
            tracer.end(planning)

        # (4) Connector-specific (local) optimization + lowering to the
        # stage graph.  The lowering itself is pure (no simulated time);
        # the traversal cost it reports is charged here.
        local_opt = tracer.start("optimize.local", parent=root, stage=STAGE_ANALYSIS)
        with accountant.charged(STAGE_ANALYSIS):
            lowered = self._lower(plan, connector, metrics, tenant=tenant)
            if lowered.analysis_nodes:
                yield cluster.compute.execute(
                    lowered.analysis_nodes * costs.plan_analysis_cycles_per_node,
                    name="local-opt",
                )
        tracer.end(local_opt)

        # (4b) Coordinator-tier result cache.  The key is the canonical
        # fingerprint of every pushed subplan plus the residual logical
        # plan; the version signature covers every object (and catalog
        # descriptor) any branch reads, so a write or stats refresh
        # anywhere in the query's footprint turns the entry stale.
        cache = cluster.cache
        if cache is not None:
            # Per-table lookup ledger for the adaptive controller.  The
            # probe is a pure peek, so recording here (run path only)
            # keeps EXPLAIN side-effect free.
            for branch in lowered.branches:
                probe = self._split_probe(branch)
                if probe is not None:
                    cache.record_table_lookup(
                        branch.table, hits=len(probe.hits), misses=len(probe.misses)
                    )
        result_probe = (
            self._result_probe(lowered)
            if cache is not None and cache.results.budget_bytes > 0
            else None
        )
        if result_probe is not None:
            result_key, result_versions = result_probe
            lookup = tracer.start(
                "cache-lookup", parent=root, stage=STAGE_OTHERS,
                attributes={"tier": "result"},
            )
            resident = cache.results.entry(result_key) is not None
            hit = cache.results.get(
                result_key, tenant=tenant, versions=result_versions
            )
            lookup.set("hit", hit is not None)
            with accountant.charged(STAGE_OTHERS):
                yield cluster.compute.execute(
                    costs.cache_lookup_cycles, name="cache-lookup"
                )
                if hit is not None:
                    yield cluster.compute.execute(
                        hit.nbytes * costs.cache_serve_cycles_per_byte,
                        name="cache-serve",
                    )
            tracer.end(lookup)
            if hit is not None:
                cache.account("hit", tenant, hit.nbytes)
                for branch in lowered.branches:
                    cache.record_table_lookup(branch.table, hits=1, misses=0)
                metrics.add("result_cache_hits", 1)
                elapsed = sim.now - query_start
                utilization = {
                    "compute_cores": cluster.compute.core_utilization(),
                    "frontend_cores": cluster.frontend.core_utilization(),
                    "link": cluster.link_cf.utilization(),
                    "scan_drivers": cluster.scan_drivers.utilization(),
                }
                for i, node in enumerate(cluster.storage):
                    utilization[f"storage_cores[{i}]"] = node.core_utilization()
                stage_seconds = accountant.partitioned(elapsed)
                tracer.end(root)
                return QueryResult(
                    batch=hit,
                    execution_seconds=elapsed,
                    data_moved_bytes=cluster.bytes_to_compute() - bytes_start,
                    splits=0,
                    plan_before=plan_before,
                    plan_after=lowered.plan_after,
                    metrics=metrics,
                    stage_seconds=stage_seconds,
                    utilization=utilization,
                    trace=tracer.trace(root=root) if tracer.recording else None,
                    stage_graph=lowered.graph.retired(),
                )
            cache.account("stale" if resident else "miss", tenant, 0)
            for branch in lowered.branches:
                cache.record_table_lookup(branch.table, hits=0, misses=1)

        # (5) Split scheduling cost ("others").
        schedule = tracer.start("schedule", parent=root, stage=STAGE_OTHERS)
        schedule.set("splits", lowered.total_splits)
        schedule.set("stages", len(lowered.graph))
        with accountant.charged(STAGE_OTHERS):
            yield cluster.compute.execute(
                lowered.total_splits * costs.schedule_cycles_per_split,
                name="schedule",
            )
        tracer.end(schedule)
        metrics.add("splits", lowered.total_splits)

        # (6) Run the graph.  Any ready stage launches the instant its
        # inputs complete; stage-level restart and split speculation are
        # the scheduler's business, not the lowering's.
        scheduler = DagScheduler(
            sim,
            lowered.graph,
            self.scheduler_spec,
            tracer=tracer,
            metrics=metrics,
            accountant=accountant,
            parent=root,
            query_id=query_id,
        )
        stage_results = yield from scheduler.run()
        results = stage_results[lowered.result_stage]

        batch = (
            concat_batches(results)
            if results
            else RecordBatch.empty(lowered.output_schema)
        )
        # Retries on the exchange link, attributed to this query's window
        # (exact on a dedicated cluster, like the data-moved ledger).
        retries_delta = cluster.exchange.retries - retries_start
        if retries_delta:
            metrics.add("exchange_retries", retries_delta)
        utilization = {
            "compute_cores": cluster.compute.core_utilization(),
            "frontend_cores": cluster.frontend.core_utilization(),
            "link": cluster.link_cf.utilization(),
            "scan_drivers": cluster.scan_drivers.utilization(),
        }
        if lowered.has_exchange:
            utilization["exchange_link"] = cluster.link_exchange.utilization()
        for i, node in enumerate(cluster.storage):
            utilization[f"storage_cores[{i}]"] = node.core_utilization()
        # Stage attribution must partition the wall time: window union
        # keeps concurrent splits from double charging, but stages that
        # overlap *each other* (e.g. one split transferring while another
        # runs operators) can still push the sum past the elapsed time.
        # The accountant scales the reported copy down so Table 3 always
        # partitions; serial runs are untouched (total <= elapsed there).
        elapsed = sim.now - query_start
        stage_seconds = accountant.partitioned(elapsed)
        if result_probe is not None:
            fill_span = tracer.start(
                "cache-fill", parent=root, attributes={"tier": "result"}
            )
            filled = cache.results.put(
                result_key, batch, nbytes=batch.nbytes, tenant=tenant,
                versions=result_versions, cost=float(elapsed),
            )
            fill_span.set("bytes", batch.nbytes)
            fill_span.set("accepted", filled)
            tracer.end(fill_span)
            cache.account("fill" if filled else "quota", tenant, batch.nbytes)
            if filled:
                metrics.add("result_cache_fills", 1)
        tracer.end(root)
        return QueryResult(
            batch=batch,
            execution_seconds=elapsed,
            # Delta over the link ledger across the query's window:
            # exact on a dedicated cluster.  On a shared (service)
            # cluster it also counts concurrent queries' transfers; the
            # query's own movement is ``metrics.value("bytes_received")``.
            data_moved_bytes=cluster.bytes_to_compute() - bytes_start,
            splits=lowered.total_splits,
            plan_before=plan_before,
            plan_after=lowered.plan_after,
            metrics=metrics,
            stage_seconds=stage_seconds,
            utilization=utilization,
            trace=tracer.trace(root=root) if tracer.recording else None,
            stage_graph=lowered.graph.retired(),
        )

    # -- lowering: logical plan -> stage graph ----------------------------------

    def _lower(
        self,
        plan: PlanNode,
        connector: Connector,
        metrics: MetricsRegistry,
        tenant: str = "default",
    ) -> _Lowered:
        """Lower an optimized logical plan to a typed stage graph.

        Pure — no simulated time passes — so EXPLAIN can lower without
        executing.  The same graph value is then run by the scheduler.

        Single-table plans lower to ``scan -> [aggregate] -> merge``.  A
        chain of N equi-joins lowers to N+1 scan stages (each branch
        locally optimized, so pushdown applies per table), per-join
        exchange stages (two for a partitioned join, one for broadcast —
        the probe side of a broadcast join feeds the join stage
        directly), one join stage per level running the fragment between
        this join and the next, an optional ``dynamic-filter`` stage
        gating the base scan on the first build side, and the shared
        ``aggregate``/``merge`` tail.

        When the cluster carries a split cache and some (or all) of a
        branch's splits are resident, the branch lowers *hybrid*: a
        cached-local stage serving the resident splits and a
        pushed-remote residual stage over the rest, reassembled in
        original split order by a ``cache-union`` stage — the
        FlexPushdownDB separable-operator shape.  A branch gated by a
        dynamic join filter is never split this way: its pushed plan
        mutates after lowering with bits derived from *another* table's
        data, which the branch's own version signature does not cover.
        """
        costs = self.cluster.costs
        graph = StageGraph()
        optimizer_factory = connector.plan_optimizer
        joins = _join_chain(plan)
        analysis_nodes = 0

        if not joins:
            optimizer = optimizer_factory()
            material = isinstance(
                _leftmost_scan(plan).connector_handle, MaterializedHandle
            )
            if optimizer is not None and not material:
                analysis_nodes = _count_nodes(plan)
                plan = optimizer.optimize(plan, metrics)
            plan_after = format_plan(plan)
            physical = fragment_plan(plan)
            handle = physical.scan.connector_handle
            splits = [] if material else connector.get_splits(handle)
            branch = _Branch(
                stage_id=f"scan:0:{physical.scan.table.table}",
                table=physical.scan.table.table,
                plan=plan,
                physical=physical,
                handle=handle,
                splits=splits,
            )
            source_id = self._add_branch_stages(
                graph, connector, branch, finish=False, tenant=tenant
            )
            result_stage = self._add_tail_stages(
                graph, physical, source=source_id,
                output_schema=plan.output_schema(),
            )
            lowered = _Lowered(
                graph=graph,
                plan_after=plan_after,
                branches=[branch],
                total_splits=len(splits),
                analysis_nodes=analysis_nodes,
                output_schema=plan.output_schema(),
                result_stage=result_stage,
                has_exchange=False,
            )
            self._verify_lowered(lowered)
            return lowered

        # --- join chain ----------------------------------------------------
        workers = max(1, int(costs.exchange_partition_count))

        # Scan branches: the base table (probe of join 0) plus one build
        # branch per join level.  Each is wrapped in an OutputNode and
        # locally optimized as its own linear plan, so per-table pushdown
        # (and later the dynamic filter) applies normally.
        branch_sources = [joins[0].left] + [join.right for join in joins]
        branches: List[_Branch] = []
        for index, source in enumerate(branch_sources):
            branch_plan: PlanNode = OutputNode(source, source.output_schema().names())
            optimizer = optimizer_factory()
            material = isinstance(
                _leftmost_scan(branch_plan).connector_handle, MaterializedHandle
            )
            if optimizer is not None and not material:
                analysis_nodes += _count_nodes(branch_plan)
                branch_plan = optimizer.optimize(branch_plan, metrics)
            physical = fragment_plan(branch_plan)
            handle = physical.scan.connector_handle
            branches.append(
                _Branch(
                    stage_id=f"scan:{index}:{physical.scan.table.table}",
                    table=physical.scan.table.table,
                    plan=branch_plan,
                    physical=physical,
                    handle=handle,
                    splits=[] if material else connector.get_splits(handle),
                )
            )

        # Dynamic filter: the first join's finished build side prunes the
        # base scan at storage.  Only for an inner join (an outer join
        # preserves the probe side, so pushed pruning would drop rows
        # that must surface NULL-extended) and only when the base scan
        # has a pushed plan to fold the filter into.
        from repro.analysis.verifier import DYNAMIC_FILTER_JOIN_KINDS

        policy = getattr(connector, "policy", None)
        base, first_build = branches[0], branches[1]
        dynamic_filter_stage: Optional[str] = None
        if (
            policy is not None
            and getattr(policy, "dynamic_filters", False)
            and getattr(base.handle, "pushed", None) is not None
            and joins[0].kind in DYNAMIC_FILTER_JOIN_KINDS
        ):
            dynamic_filter_stage = "dynamic-filter:0"

        # Scan branches.  The dynamic-filter-gated base scan stays a
        # single uncached stage (see docstring); every other branch may
        # lower hybrid, so downstream edges read from ``source_ids``.
        source_ids: Dict[str, str] = {}
        for index, branch in enumerate(branches):
            if index == 0 and dynamic_filter_stage is not None:
                # The handshake edge: the base scan may not start before
                # the filter lands in its pushed plan.  Untyped — the
                # payload is a signal, not a batch stream.
                graph.add(
                    Stage(
                        stage_id=branch.stage_id,
                        kind="scan",
                        run=self._scan_stage(connector, branch, finish=True),
                        inputs=(dynamic_filter_stage,),
                        output_schema=branch.plan.output_schema(),
                        attributes={
                            "table": branch.table, "splits": len(branch.splits),
                        },
                    )
                )
                source_ids[branch.stage_id] = branch.stage_id
            else:
                source_ids[branch.stage_id] = self._add_branch_stages(
                    graph, connector, branch, finish=True, tenant=tenant
                )

        if dynamic_filter_stage is not None:
            build_source = source_ids[first_build.stage_id]
            graph.add(
                Stage(
                    stage_id=dynamic_filter_stage,
                    kind="filter",
                    run=self._dynamic_filter_stage(
                        joins[0], base, build_source
                    ),
                    inputs=(build_source,),
                    input_schemas={
                        build_source: first_build.plan.output_schema()
                    },
                    output_schema=first_build.plan.output_schema(),
                    attributes={
                        "target": base.stage_id,
                        # Verified against DYNAMIC_FILTER_JOIN_KINDS by
                        # verify_stage_graph: anti/left joins must never
                        # publish pushed probe pruning.
                        "join_kind": joins[0].kind,
                    },
                )
            )

        # Per-join exchange + join stages up the left-deep spine.  The
        # fragment each join's tasks run is the chain between this join
        # and the next (residual filters), or — at the top — the
        # split-operator half of the fragment above the whole chain.
        above_physical, segment_physicals = self._fragment_above(plan, joins)
        probe_source = source_ids[branches[0].stage_id]
        probe_schema = branches[0].plan.output_schema()
        retry = getattr(connector, "retry_policy", None) or RetryPolicy()
        for index, join in enumerate(joins):
            build_branch = branches[index + 1]
            build_source_id = source_ids[build_branch.stage_id]
            build_schema = build_branch.plan.output_schema()
            distribution = join.distribution
            if distribution == "auto":
                distribution = choose_join_distribution(
                    build_rows=_subtree_row_count(join.right),
                    probe_rows=_subtree_row_count(join.left),
                    workers=workers,
                )
            join.distribution = distribution

            build_ex = f"exchange:build:{index}"
            graph.add(
                Stage(
                    stage_id=build_ex,
                    kind="exchange",
                    run=self._exchange_stage(
                        source=build_source_id,
                        keys=list(join.right_keys),
                        workers=workers,
                        distribution=distribution,
                        retry=retry,
                        index=index,
                        side="build",
                    ),
                    inputs=(build_source_id,),
                    input_schemas={build_source_id: build_schema},
                    output_schema=build_schema,
                    attributes={"distribution": distribution, "partitions": workers},
                )
            )
            segment = (
                segment_physicals[index]
                if index < len(segment_physicals)
                else above_physical
            )
            join_inputs: List[str] = [build_ex]
            join_input_schemas: Dict[str, Schema] = {build_ex: build_schema}
            if distribution == "broadcast":
                # The probe side stays local: join tasks read their
                # round-robin share of the probe output directly.
                join_inputs.append(probe_source)
                join_input_schemas[probe_source] = probe_schema
            else:
                probe_ex = f"exchange:probe:{index}"
                graph.add(
                    Stage(
                        stage_id=probe_ex,
                        kind="exchange",
                        run=self._exchange_stage(
                            source=probe_source,
                            keys=list(join.left_keys),
                            workers=workers,
                            distribution=distribution,
                            retry=retry,
                            index=index,
                            side="probe",
                        ),
                        inputs=(probe_source,),
                        input_schemas={probe_source: probe_schema},
                        output_schema=probe_schema,
                        attributes={
                            "distribution": distribution,
                            "partitions": workers,
                        },
                    )
                )
                join_inputs.append(probe_ex)
                join_input_schemas[probe_ex] = probe_schema
            join_stage = f"join:{index}"
            graph.add(
                Stage(
                    stage_id=join_stage,
                    kind="join",
                    run=self._join_stage(
                        join=join,
                        index=index,
                        workers=workers,
                        distribution=distribution,
                        build_schema=build_schema,
                        build_source=build_ex,
                        probe_source=(
                            probe_source
                            if distribution == "broadcast"
                            else f"exchange:probe:{index}"
                        ),
                        segment=segment,
                    ),
                    inputs=tuple(join_inputs),
                    input_schemas=join_input_schemas,
                    output_schema=segment.split_schema,
                    attributes={
                        "kind": join.kind,
                        "distribution": distribution,
                        "tasks": workers,
                    },
                )
            )
            probe_source = join_stage
            probe_schema = segment.split_schema

        result_stage = self._add_tail_stages(
            graph, above_physical, source=probe_source,
            output_schema=plan.output_schema(),
        )
        lowered = _Lowered(
            graph=graph,
            plan_after=format_plan(plan),
            branches=branches,
            total_splits=sum(len(b.splits) for b in branches),
            analysis_nodes=analysis_nodes,
            output_schema=plan.output_schema(),
            result_stage=result_stage,
            has_exchange=True,
        )
        self._verify_lowered(lowered)
        return lowered

    @staticmethod
    def _verify_lowered(lowered: _Lowered) -> None:
        if strict_verify_enabled():
            from repro.analysis.verifier import verify_stage_graph

            verify_stage_graph(lowered.graph)

    def _fragment_above(self, plan: PlanNode, joins: List[JoinNode]):
        """Physical fragments for everything above each join level.

        Returns ``(above_physical, segment_physicals)``: the fragment
        above the *top* join (its split half runs in the top join's
        tasks; its final half becomes the aggregate/merge stages) and,
        for each join below the top, the residual chain between it and
        the next join (filters the planner left above that join), each
        hung off a handle-free synthetic scan typed with the join's
        output schema.
        """
        strict = strict_verify_enabled()
        segment_physicals: List[PhysicalPlan] = []
        for index in range(len(joins) - 1):
            lower, upper = joins[index], joins[index + 1]
            synthetic = _synthetic_scan(lower, index)
            if strict:
                from repro.analysis.verifier import verify_exchange_boundary

                verify_exchange_boundary(synthetic)
            node: PlanNode = upper.left
            segment: List[PlanNode] = []
            while node is not lower:
                segment.append(node)
                children = node.children()
                if len(children) != 1:
                    raise PlanError(
                        f"non-linear fragment between join {index} and "
                        f"{index + 1}: {node.name}"
                    )
                node = children[0]
            rebuilt: PlanNode = synthetic
            for seg_node in reversed(segment):
                rebuilt = seg_node.with_source(rebuilt)
            segment_physicals.append(fragment_plan(rebuilt))

        top = joins[-1]
        synthetic = _synthetic_scan(top, len(joins) - 1)
        if strict:
            from repro.analysis.verifier import verify_exchange_boundary

            verify_exchange_boundary(synthetic)
        above_physical = fragment_plan(_replace_join(plan, synthetic))
        return above_physical, segment_physicals

    def _add_tail_stages(
        self,
        graph: StageGraph,
        physical: PhysicalPlan,
        source: str,
        output_schema: Schema,
    ) -> str:
        """Add the aggregate (if any) and merge stages; returns the sink id."""
        merge_input = source
        merge_schema = graph.stage(source).output_schema
        if physical.agg_schema is not None:
            graph.add(
                Stage(
                    stage_id="aggregate",
                    kind="aggregate",
                    run=self._aggregate_stage(physical),
                    inputs=(source,),
                    input_schemas={source: merge_schema},
                    output_schema=physical.agg_schema,
                )
            )
            merge_input = "aggregate"
            merge_schema = physical.agg_schema
        graph.add(
            Stage(
                stage_id="merge",
                kind="merge",
                run=self._merge_stage(physical),
                inputs=(merge_input,),
                input_schemas={merge_input: merge_schema},
                output_schema=output_schema,
            )
        )
        return "merge"

    # -- stage bodies ----------------------------------------------------------

    def _scan_splits(
        self,
        ctx: StageContext,
        connector: Connector,
        branch: _Branch,
        splits: List[ConnectorSplit],
    ):
        """Fan ``splits`` out through scan drivers; returns per-split outs."""
        sim = ctx.sim
        speculative = _has_speculative_source(connector)
        # Stamped by each split when it acquires a scan driver, so
        # the scheduler's straggler clock measures service time, not
        # driver-queue wait.
        service_starts: List[Optional[float]] = [None] * len(splits)

        def launch_primary(i: int):
            split = splits[i]

            def note_start(now: float, index: int = i) -> None:
                service_starts[index] = now

            return sim.process(
                self._run_split(
                    connector, branch.handle, split, branch.physical,
                    ctx.metrics, ctx.span, owner=ctx.query_id,
                    on_service_start=note_start,
                ),
                name=f"split-{split.split_id}",
            )

        def launch_backup(i: int):
            if not speculative:
                return None
            split = splits[i]
            return sim.process(
                self._run_split(
                    connector, branch.handle, split, branch.physical,
                    ctx.metrics, ctx.span, owner=ctx.query_id,
                    source_factory=connector.speculative_page_source,
                    label=f"split-{split.split_id}:speculative",
                    queued=False,
                ),
                name=f"split-{split.split_id}:speculative",
            )

        outs = yield from run_splits(
            ctx, self.scheduler_spec, splits, launch_primary, launch_backup,
            service_starts=service_starts,
        )
        return outs

    def _scan_stage(
        self,
        connector: Connector,
        branch: _Branch,
        finish: bool,
        fill: Optional[_SplitProbe] = None,
        tenant: str = "default",
    ):
        """Build the scan-stage body: split fan-out + branch final ops.

        ``finish`` runs the branch plan's final operators (the
        OutputNode projection of a join branch) inside the stage; the
        single-table scan leaves its final operators to the
        aggregate/merge tail instead.  ``fill`` feeds every split's
        post-operator batches into the coordinator split cache so later
        runs of the same branch can lower hybrid.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            outs = yield from self._scan_splits(ctx, connector, branch, branch.splits)
            if fill is not None:
                self._fill_split_cache(
                    ctx, branch, fill, list(range(len(branch.splits))), outs, tenant
                )
            batches = [b for out in outs for b in out]
            if not finish:
                return batches
            final_ops = self.backend.compile(branch.physical.final_operators())
            if not final_ops:
                return batches
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "scan-final", parent=ctx.span, stage=STAGE_EXECUTION
                )
                try:
                    batches = run_operators(batches, final_ops)
                    cycles = presto_pipeline_cycles(final_ops, cluster.costs)
                    if cycles:
                        yield cluster.compute.execute_spread(cycles, name="scan-final")
                finally:
                    cluster.tracer.end(span)
            return batches

        return run

    def _materialized_stage(self, branch: _Branch, finish: bool):
        """Scan a rewriter-materialized CTE's stored batches.

        The branch plan's operators (split + final when ``finish``) run
        locally over the handle's batches — there is no storage round
        trip, no splits, and nothing to push down.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            handle: MaterializedHandle = branch.handle
            batches = list(handle.batches)
            operators = branch.physical.split_operators()
            if finish:
                operators += branch.physical.final_operators()
            ops = self.backend.compile(operators)
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "materialized-scan", parent=ctx.span, stage=STAGE_EXECUTION,
                    attributes={"table": branch.table},
                )
                try:
                    batches = run_operators(batches, ops)
                    cycles = presto_pipeline_cycles(ops, cluster.costs)
                    if cycles:
                        yield cluster.compute.execute_spread(
                            cycles, name="materialized-scan"
                        )
                finally:
                    cluster.tracer.end(span)
            return batches

        return run

    def _cached_splits_stage(
        self, connector: Connector, branch: _Branch, probe: _SplitProbe, tenant: str
    ):
        """Serve the lowering-time-resident splits from the split cache.

        Each hit is re-checked against the objects' *current* version
        counters; an entry evicted or invalidated between lowering and
        launch falls back to the normal pushdown path for that split.
        Returns ``{original split index: batches}``.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            cache = cluster.cache
            costs = cluster.costs
            out: Dict[int, List[RecordBatch]] = {}
            fallback: List[int] = []
            served = 0
            hits = 0
            with ctx.accountant.window(STAGE_TRANSFER):
                span = cluster.tracer.start(
                    "cache-lookup", parent=ctx.span, stage=STAGE_TRANSFER,
                    attributes={"tier": "split", "splits": len(probe.hits)},
                )
                try:
                    for index in probe.hits:
                        key = probe.keys[index]
                        resident = cache.splits.entry(key) is not None
                        value = cache.splits.get(
                            key, tenant=tenant,
                            versions=self._split_versions(branch, branch.splits[index]),
                        )
                        if value is None:
                            cache.account("stale" if resident else "miss", tenant, 0)
                            fallback.append(index)
                            continue
                        nbytes = sum(b.nbytes for b in value)
                        cache.account("hit", tenant, nbytes)
                        out[index] = list(value)
                        served += nbytes
                        hits += 1
                    cycles = (
                        len(probe.hits) * costs.cache_lookup_cycles
                        + served * costs.cache_serve_cycles_per_byte
                    )
                    if cycles:
                        yield cluster.compute.execute(cycles, name="cache-serve")
                    span.set("hits", hits)
                    span.set("bytes", served)
                finally:
                    cluster.tracer.end(span)
            if hits:
                ctx.metrics.add("split_cache_hits", hits)
                ctx.metrics.add("split_cache_bytes_served", served)
            for index in fallback:
                out[index] = yield from self._run_split(
                    connector, branch.handle, branch.splits[index],
                    branch.physical, ctx.metrics, ctx.span, owner=ctx.query_id,
                )
            return out

        return run

    def _residual_scan_stage(
        self, connector: Connector, branch: _Branch, probe: _SplitProbe, tenant: str
    ):
        """Push the non-resident splits to storage and fill the cache.

        Returns ``{original split index: batches}`` so the cache-union
        stage can restore the branch's original split order.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            splits = [branch.splits[i] for i in probe.misses]
            outs = yield from self._scan_splits(ctx, connector, branch, splits)
            self._fill_split_cache(ctx, branch, probe, probe.misses, outs, tenant)
            return {index: outs[slot] for slot, index in enumerate(probe.misses)}

        return run

    def _cache_union_stage(
        self,
        branch: _Branch,
        cached_id: str,
        residual_id: Optional[str],
        finish: bool,
    ):
        """Reassemble a partially cached scan in original split order.

        Both inputs map original split index -> batches; the union
        concatenates over sorted indices, so the stream is byte-identical
        to the unsplit scan's regardless of which fraction was cached.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            merged: Dict[int, List[RecordBatch]] = dict(inputs[cached_id])
            if residual_id is not None:
                merged.update(inputs[residual_id])
            batches = [b for index in sorted(merged) for b in merged[index]]
            if not finish:
                return batches
            final_ops = self.backend.compile(branch.physical.final_operators())
            if not final_ops:
                return batches
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "cache-union-final", parent=ctx.span, stage=STAGE_EXECUTION
                )
                try:
                    batches = run_operators(batches, final_ops)
                    cycles = presto_pipeline_cycles(final_ops, cluster.costs)
                    if cycles:
                        yield cluster.compute.execute_spread(
                            cycles, name="cache-union-final"
                        )
                finally:
                    cluster.tracer.end(span)
            return batches
            yield  # pragma: no cover - marks this body as a generator

        return run

    # -- cache probes ------------------------------------------------------------

    def _add_branch_stages(
        self,
        graph: StageGraph,
        connector: Connector,
        branch: _Branch,
        finish: bool,
        tenant: str,
    ) -> str:
        """Add the stage(s) realizing one scan branch; returns its source id.

        With no split cache (or no resident splits) this is the classic
        single scan stage — which then *fills* the cache as it runs.
        With resident splits the branch lowers hybrid:
        ``cached + residual -> cache-union``.
        """
        split_schema = branch.physical.split_schema
        out_schema = branch.plan.output_schema() if finish else split_schema
        if isinstance(branch.handle, MaterializedHandle):
            graph.add(
                Stage(
                    stage_id=branch.stage_id,
                    kind="scan",
                    run=self._materialized_stage(branch, finish),
                    output_schema=out_schema,
                    attributes={
                        "table": branch.table,
                        "splits": 0,
                        "source": "materialized",
                    },
                )
            )
            return branch.stage_id
        probe = self._split_probe(branch)
        if probe is None or not probe.hits:
            graph.add(
                Stage(
                    stage_id=branch.stage_id,
                    kind="scan",
                    run=self._scan_stage(
                        connector, branch, finish=finish, fill=probe, tenant=tenant
                    ),
                    output_schema=out_schema,
                    attributes={"table": branch.table, "splits": len(branch.splits)},
                )
            )
            return branch.stage_id
        suffix = branch.stage_id.split(":", 1)[1]  # "{index}:{table}"
        cached_id = f"{branch.stage_id}:cached"
        union_inputs: List[str] = [cached_id]
        union_schemas: Dict[str, Schema] = {cached_id: split_schema}
        graph.add(
            Stage(
                stage_id=cached_id,
                kind="scan",
                run=self._cached_splits_stage(connector, branch, probe, tenant),
                output_schema=split_schema,
                attributes={
                    "table": branch.table,
                    "splits": len(probe.hits),
                    "source": "cache",
                },
            )
        )
        residual_id: Optional[str] = None
        if probe.misses:
            residual_id = f"{branch.stage_id}:residual"
            graph.add(
                Stage(
                    stage_id=residual_id,
                    kind="scan",
                    run=self._residual_scan_stage(connector, branch, probe, tenant),
                    output_schema=split_schema,
                    attributes={
                        "table": branch.table,
                        "splits": len(probe.misses),
                        "source": "pushdown",
                    },
                )
            )
            union_inputs.append(residual_id)
            union_schemas[residual_id] = split_schema
        union_id = f"cache-union:{suffix}"
        graph.add(
            Stage(
                stage_id=union_id,
                kind="cache-union",
                run=self._cache_union_stage(branch, cached_id, residual_id, finish),
                inputs=tuple(union_inputs),
                input_schemas=union_schemas,
                output_schema=out_schema,
                attributes={
                    "table": branch.table,
                    "cached_splits": len(probe.hits),
                    "residual_splits": len(probe.misses),
                },
            )
        )
        return union_id

    def _split_probe(self, branch: _Branch) -> Optional[_SplitProbe]:
        """Split-cache keys + lowering-time hit set for one branch.

        ``None`` (branch not split-cacheable) without a cache, with the
        tier disabled, or when the handle has no catalog descriptor to
        version the splits against.  Uses pure peeks so EXPLAIN stays
        side-effect free.
        """
        cache = self.cluster.cache
        if cache is None or cache.splits.budget_bytes <= 0:
            return None
        descriptor = getattr(branch.handle, "descriptor", None)
        if descriptor is None or not branch.splits:
            return None
        pushed_fp = self._pushed_fingerprint(branch)
        plan_sig = hashlib.sha256(
            format_plan(branch.plan).encode("utf-8")
        ).hexdigest()
        keys = [
            CacheManager.split_key(branch.table, pushed_fp, plan_sig, split.keys)
            for split in branch.splits
        ]
        hits = [i for i, key in enumerate(keys) if cache.splits.entry(key) is not None]
        misses = [i for i, key in enumerate(keys) if cache.splits.entry(key) is None]
        return _SplitProbe(keys=keys, hits=hits, misses=misses)

    @staticmethod
    def _pushed_fingerprint(branch: _Branch) -> str:
        """Canonical fingerprint of the branch's pushed subplan ("-" when
        nothing is pushed — the residual plan signature still keys the
        entry)."""
        pushed = getattr(branch.handle, "pushed", None)
        descriptor = getattr(branch.handle, "descriptor", None)
        if pushed is None or descriptor is None:
            return "-"
        from repro.core.translator import build_pushdown_plan
        from repro.substrait.fingerprint import fingerprint_plan

        return fingerprint_plan(build_pushdown_plan(descriptor, pushed))

    def _split_versions(self, branch: _Branch, split: ConnectorSplit):
        """Version signature of everything one split's value derives from:
        the catalog descriptor (bumped by stats refreshes) plus the write
        counter of every object the split covers."""
        descriptor = branch.handle.descriptor
        meta = (f"meta:{descriptor.qualified_name}", descriptor.version)
        return (meta,) + object_version_signature(
            self.cluster.store, descriptor.bucket, split.keys
        )

    def _result_probe(
        self, lowered: _Lowered
    ) -> Optional[Tuple[Hashable, Tuple[Tuple[str, int], ...]]]:
        """(key, version signature) for the whole-query result cache.

        ``None`` when any branch lacks a catalog descriptor — with no
        way to version what the query read, serving a cached result
        could silently survive a write.
        """
        store = self.cluster.store
        parts: List[str] = []
        versions: List[Tuple[str, int]] = []
        for branch in lowered.branches:
            descriptor = getattr(branch.handle, "descriptor", None)
            if descriptor is None:
                return None
            parts.append(f"{branch.table}={self._pushed_fingerprint(branch)}")
            meta = (f"meta:{descriptor.qualified_name}", descriptor.version)
            versions.append(meta)
            versions.extend(
                object_version_signature(store, descriptor.bucket, descriptor.files)
            )
        body = "\n".join(
            parts + [lowered.plan_after, ",".join(lowered.output_schema.names())]
        )
        key = CacheManager.result_key(
            hashlib.sha256(body.encode("utf-8")).hexdigest()
        )
        seen = set()
        signature: List[Tuple[str, int]] = []
        for item in versions:
            if item not in seen:
                seen.add(item)
                signature.append(item)
        return key, tuple(signature)

    def _fill_split_cache(
        self,
        ctx: StageContext,
        branch: _Branch,
        probe: _SplitProbe,
        indices: List[int],
        outs: List[List[RecordBatch]],
        tenant: str,
    ) -> None:
        """Offer each scanned split's post-operator batches to the cache.

        Fills are best-effort: a refusal (budget or another tenant's
        reservation floor) is accounted, never raised.  Pure bookkeeping
        — no simulated time passes.
        """
        cache = self.cluster.cache
        if cache is None:
            return
        span = self.cluster.tracer.start(
            "cache-fill", parent=ctx.span, attributes={"tier": "split"}
        )
        filled = 0
        filled_bytes = 0
        try:
            for slot, index in enumerate(indices):
                batches = outs[slot]
                nbytes = sum(b.nbytes for b in batches)
                ok = cache.splits.put(
                    probe.keys[index],
                    list(batches),
                    nbytes=nbytes,
                    tenant=tenant,
                    versions=self._split_versions(branch, branch.splits[index]),
                    cost=float(sum(b.num_rows for b in batches)),
                )
                cache.account("fill" if ok else "quota", tenant, nbytes)
                if ok:
                    filled += 1
                    filled_bytes += nbytes
            span.set("splits", filled)
            span.set("bytes", filled_bytes)
        finally:
            self.cluster.tracer.end(span)
        if filled:
            ctx.metrics.add("split_cache_fills", filled)

    def _dynamic_filter_stage(self, join: JoinNode, base: _Branch, build_source: str):
        """Fold the finished build side's key summary into the base scan."""

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            build_batches = inputs[build_source]
            pushed = getattr(base.handle, "pushed", None)
            if pushed is not None and build_batches:
                probe_key = join.left_keys[0]
                dyn = build_dynamic_filter(list(build_batches), join.right_keys[0])
                probe_dtype = base.handle.table_schema.field(probe_key).dtype
                pushed.dynamic_filter = dyn.to_expression(probe_key, probe_dtype)
                ctx.metrics.add("dynamic_filter_build_rows", dyn.build_rows)
                ctx.metrics.add("dynamic_filter_distinct_keys", dyn.distinct_keys)
                if ctx.parent is not None:
                    ctx.parent.set("dynamic_filter_keys", dyn.distinct_keys)
            return build_batches
            yield  # pragma: no cover - marks this body as a generator

        return run

    def _exchange_stage(
        self,
        source: str,
        keys: List[str],
        workers: int,
        distribution: str,
        retry: RetryPolicy,
        index: int,
        side: str,
    ):
        """Shuffle one side of a join through the exchange fabric.

        A fresh exchange id per invocation makes the stage restartable:
        pages from an abandoned attempt sit in a buffer nobody drains.
        Returns the per-partition :class:`DrainResult` list.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            sim = ctx.sim
            costs = cluster.costs
            fabric = cluster.exchange
            client = cluster.exchange_client
            batches = inputs[source]
            exchange_id = fabric.create(workers)
            with ctx.accountant.window(STAGE_EXCHANGE):
                span = cluster.tracer.start(
                    "exchange", parent=ctx.span, stage=STAGE_EXCHANGE,
                    attributes={
                        "side": side, "distribution": distribution,
                        "partitions": workers,
                    },
                )
                try:
                    put_procs = []
                    seq = 0
                    if distribution == "broadcast":
                        # Replicate every page to every join task.
                        for partition in range(workers):
                            for batch in batches:
                                put_procs.append(
                                    sim.process(
                                        fabric.put(client, exchange_id, partition,
                                                   0, seq, [batch], retry,
                                                   parent=span),
                                        name=f"exchange-put-{seq}",
                                    )
                                )
                                seq += 1
                    else:
                        partition_rows = sum(b.num_rows for b in batches)
                        if partition_rows:
                            yield cluster.compute.execute(
                                partition_rows * costs.exchange_partition_cycles_per_row,
                                name="exchange-partition",
                            )
                        for batch in batches:
                            for partition, part in enumerate(
                                hash_partition(batch, list(keys), workers)
                            ):
                                if part.num_rows == 0:
                                    continue
                                put_procs.append(
                                    sim.process(
                                        fabric.put(client, exchange_id, partition,
                                                   0, seq, [part], retry,
                                                   parent=span),
                                        name=f"exchange-put-{seq}",
                                    )
                                )
                                seq += 1
                    page_bytes = 0
                    if put_procs:
                        framed = yield AllOf(sim, put_procs)
                        page_bytes = sum(framed)
                    parts = [fabric.drain(exchange_id, p) for p in range(workers)]
                    span.set("bytes", page_bytes)
                    span.set("pages", len(put_procs))
                    ctx.metrics.add("exchange_bytes", page_bytes)
                    ctx.metrics.add("exchange_pages", len(put_procs))
                finally:
                    cluster.tracer.end(span)
            return parts

        return run

    def _join_stage(
        self,
        join: JoinNode,
        index: int,
        workers: int,
        distribution: str,
        build_schema: Schema,
        build_source: str,
        probe_source: str,
        segment: PhysicalPlan,
    ):
        """Parallel hash-join tasks for one join level."""

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            sim = ctx.sim
            build_parts = inputs[build_source]
            if distribution == "broadcast":
                probe_batches = inputs[probe_source]
                task_inputs = [
                    (list(build_parts[p].batches), probe_batches[p::workers],
                     build_parts[p].nbytes)
                    for p in range(workers)
                ]
            else:
                probe_parts = inputs[probe_source]
                task_inputs = [
                    (list(build_parts[p].batches), list(probe_parts[p].batches),
                     build_parts[p].nbytes + probe_parts[p].nbytes)
                    for p in range(workers)
                ]
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "join-stage", parent=ctx.span, stage=STAGE_EXECUTION,
                    attributes={
                        "kind": join.kind, "tasks": workers, "level": index,
                    },
                )
                try:
                    task_outs = yield AllOf(
                        sim,
                        [
                            sim.process(
                                self._join_task(
                                    p, join, build_schema, build_in, probe_in,
                                    nbytes, segment.split_operators, ctx.metrics,
                                    span,
                                ),
                                name=f"join-task-{p}",
                            )
                            for p, (build_in, probe_in, nbytes) in enumerate(
                                task_inputs
                            )
                        ],
                    )
                finally:
                    cluster.tracer.end(span)
            return [b for out in task_outs for b in out]

        return run

    def _aggregate_stage(self, physical: PhysicalPlan):
        """Merge-side aggregation: final operators up to the last agg."""

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            (batches,) = inputs.values()
            raw = physical.final_operators()
            agg_ops = self.backend.compile(raw[: _aggregation_cut(raw)])
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "aggregate-stage", parent=ctx.span, stage=STAGE_EXECUTION
                )
                try:
                    results = run_operators(batches, agg_ops)
                    cycles = presto_pipeline_cycles(agg_ops, cluster.costs)
                    if cycles:
                        yield cluster.compute.execute_spread(
                            cycles, name="aggregate-stage"
                        )
                finally:
                    cluster.tracer.end(span)
            return results

        return run

    def _merge_stage(self, physical: PhysicalPlan):
        """The final stage: remaining operators over its input batches."""

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            (batches,) = inputs.values()
            raw = physical.final_operators()
            if physical.agg_schema is not None:
                raw = raw[_aggregation_cut(raw):]
            ops = self.backend.compile(raw)
            with ctx.accountant.window(STAGE_EXECUTION):
                span = cluster.tracer.start(
                    "final-stage", parent=ctx.span, stage=STAGE_EXECUTION
                )
                try:
                    results = run_operators(batches, ops)
                    cycles = presto_pipeline_cycles(ops, cluster.costs)
                    yield cluster.compute.execute_spread(cycles, name="final-stage")
                finally:
                    cluster.tracer.end(span)
            return results

        return run

    # -- split + join-task processes --------------------------------------------

    def _run_split(
        self, connector: Connector, handle, split, physical: PhysicalPlan, metrics,
        parent=None, owner: Optional[str] = None,
        source_factory: Optional[Callable] = None, label: Optional[str] = None,
        queued: bool = True,
        on_service_start: Optional[Callable[[float], None]] = None,
    ):
        cluster = self.cluster
        tracer = cluster.tracer
        name = label if label is not None else f"split-{split.split_id}"
        split_span = tracer.start(
            name,
            parent=parent,
            attributes={"split": split.split_id, "node": split.node_index},
        )
        try:
            if queued:
                with cluster.scan_drivers.request(owner=owner) as driver:
                    yield driver
                    if on_service_start is not None:
                        on_service_start(cluster.sim.now)
                    out = yield from self._split_body(
                        connector, handle, split, physical, metrics,
                        split_span, source_factory,
                    )
            else:
                # Speculative backups run on spare driver capacity: the
                # whole point is to route around a stuck primary, so the
                # backup must not queue behind the very driver slot that
                # primary occupies.
                out = yield from self._split_body(
                    connector, handle, split, physical, metrics,
                    split_span, source_factory,
                )
        finally:
            tracer.end(split_span)
        return out

    def _split_body(
        self, connector: Connector, handle, split, physical: PhysicalPlan, metrics,
        split_span, source_factory: Optional[Callable],
    ):
        cluster = self.cluster
        sim = cluster.sim
        stages = StageAccountant(sim, metrics.stages)
        tracer = cluster.tracer
        factory = source_factory if source_factory is not None else connector.page_source
        # Data acquisition: storage round trip + page materialization.
        # Concurrent splits each open a stage *window*; the timer unions
        # overlapping windows so wall-clock is charged once, not once per
        # split (otherwise the per-stage sum could exceed the query's
        # elapsed time).  The OCS page source pauses the transfer window
        # around IR generation so the substrait stage stays separable;
        # its connector-side spans carry the matching stage tags, so only
        # the ingest tail is tagged here.
        with stages.window(STAGE_TRANSFER):
            source: PageSourceResult = yield sim.process(
                factory(handle, split, metrics, trace=split_span),
                name=f"page-source-{split.split_id}",
            )
            ingest_span = tracer.start(
                "ingest",
                parent=split_span,
                stage=STAGE_TRANSFER,
                attributes={"bytes": source.bytes_received},
            )
            try:
                if source.ingest_cycles:
                    yield cluster.compute.execute(
                        source.ingest_cycles, name="ingest"
                    )
            finally:
                tracer.end(ingest_span)
        metrics.add("bytes_received", source.bytes_received)

        # Split-local operators (real work + cost charge).
        stages.begin(STAGE_EXECUTION)
        ops_span = tracer.start(
            "split-operators", parent=split_span, stage=STAGE_EXECUTION
        )
        try:
            split_ops = self.backend.compile(physical.split_operators())
            out = run_operators(source.batches, split_ops)
            cycles = presto_pipeline_cycles(split_ops, cluster.costs)
            if cycles:
                yield cluster.compute.execute(cycles, name="split-ops")
        finally:
            stages.end(STAGE_EXECUTION)
            tracer.end(ops_span)
        for op in split_ops:
            metrics.add(f"rows_into_{op.name}", op.rows_in)
        return out

    def _join_task(
        self,
        index: int,
        join: JoinNode,
        build_schema,
        build_batches,
        probe_batches,
        deserialize_bytes: int,
        above_operators: Callable[[], List[Operator]],
        metrics: MetricsRegistry,
        parent,
    ):
        """One join task: pay exchange deserialization, build, probe."""
        cluster = self.cluster
        costs = cluster.costs
        tracer = cluster.tracer
        span = tracer.start(
            f"join-task-{index}", parent=parent, stage=STAGE_EXECUTION,
            attributes={"partition": index},
        )
        try:
            if deserialize_bytes:
                yield cluster.compute.execute(
                    deserialize_bytes * costs.arrow_deserialize_cycles_per_byte,
                    name="exchange-deserialize",
                )
            op = HashJoinOperator(
                kind=join.kind,
                left_keys=list(join.left_keys),
                right_keys=list(join.right_keys),
                right_schema=build_schema,
                right_renames=dict(join.right_renames),
            )
            for build_batch in build_batches:
                op.add_build(build_batch)
            op.finish_build()
            task_ops: List[Operator] = [op]
            task_ops.extend(self.backend.compile(above_operators()))
            out = run_operators(list(probe_batches), task_ops)
            cycles = presto_pipeline_cycles(task_ops, costs)
            if cycles:
                yield cluster.compute.execute(cycles, name=f"join-task-{index}")
            span.set("build_rows", op.build_rows)
            span.set("probe_rows", op.rows_in)
            for task_op in task_ops:
                metrics.add(f"rows_into_{task_op.name}", task_op.rows_in)
        finally:
            tracer.end(span)
        return out

    # -- handle resolution -------------------------------------------------------

    @staticmethod
    def _attach_handles(plan: PlanNode, handles_by_table: Dict[str, Any]) -> None:
        """Bind each scan to its table's handle (keyed by table name —
        the analyzer rejects duplicate table names, so names are ids)."""
        attached = False

        def visit(node: PlanNode) -> None:
            nonlocal attached
            if isinstance(node, TableScanNode):
                try:
                    node.connector_handle = handles_by_table[node.table.table]
                except KeyError:
                    raise NoSuchCatalogError(
                        f"no handle resolved for scanned table "
                        f"{node.table.table!r}"
                    ) from None
                attached = True
                return
            for child in node.children():
                visit(child)

        visit(plan)
        if not attached:
            raise NoSuchCatalogError("plan has no table scan to attach a handle to")


def _leftmost_scan(plan: PlanNode) -> TableScanNode:
    """The scan at the bottom of a branch's (join-free) operator chain."""
    node: PlanNode = plan
    while not isinstance(node, TableScanNode):
        node = node.children()[0]
    return node


def _count_nodes(plan: PlanNode) -> int:
    count = 1
    for child in plan.children():
        count += _count_nodes(child)
    return count


def _join_chain(plan: PlanNode) -> List[JoinNode]:
    """All joins down the left-deep spine, bottom-up (join 0 first)."""
    joins: List[JoinNode] = []
    node: Optional[PlanNode] = _find_join(plan)
    while node is not None:
        joins.append(node)
        node = _find_join(node.left)
    joins.reverse()
    return joins


def _find_join(plan: PlanNode) -> Optional[JoinNode]:
    """The topmost join below a linear operator chain, if any."""
    node: Optional[PlanNode] = plan
    while node is not None:
        if isinstance(node, JoinNode):
            return node
        children = node.children()
        node = children[0] if children else None
    return None


def _replace_join(plan: PlanNode, new_node: PlanNode) -> PlanNode:
    """Rebuild ``plan`` with its topmost join substituted by ``new_node``."""
    if isinstance(plan, JoinNode):
        return new_node
    children = plan.children()
    if not children:
        raise PlanError("plan contains no join to replace")
    return plan.with_source(_replace_join(children[0], new_node))


def _synthetic_scan(join: JoinNode, index: int) -> TableScanNode:
    """A handle-free scan standing in for ``join``'s exchanged output.

    The fragment above a join hangs off this synthetic scan; it stays
    handle-free because nothing can be pushed to storage through an
    exchange boundary (the exchange carries engine pages, not objects).
    """
    join_schema = join.output_schema()
    return TableScanNode(
        table=TableName(table=f"$join:{index}"),
        table_schema=join_schema,
        columns=join_schema.names(),
    )


def _subtree_row_count(plan: PlanNode) -> int:
    """Metastore row-count estimate for a join input: the sum over every
    scan in the subtree (a joined subtree can only shrink below that —
    a usable upper bound for the broadcast-vs-partitioned choice)."""
    if isinstance(plan, TableScanNode):
        return _handle_row_count(plan.connector_handle)
    return sum(_subtree_row_count(child) for child in plan.children())


def _handle_row_count(handle) -> int:
    """Metastore row count behind a connector handle (0 when unknown)."""
    descriptor = getattr(handle, "descriptor", None)
    return int(getattr(descriptor, "row_count", 0) or 0)


def _aggregation_cut(ops: List[Operator]) -> int:
    """Index just past the last aggregation operator in a compiled
    final pipeline — the aggregate/merge stage boundary.  Operator
    fusion never crosses an aggregation, so the position is stable
    across backends."""
    cut = 0
    for i, op in enumerate(ops):
        if isinstance(op, HashAggregationOperator):
            cut = i + 1
    return cut


def _has_speculative_source(connector: Connector) -> bool:
    """True when the connector overrides the speculative-source hook."""
    return (
        type(connector).speculative_page_source
        is not Connector.speculative_page_source
    )
