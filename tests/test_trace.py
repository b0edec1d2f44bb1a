"""Distributed tracing: span production, propagation, exporters, invariants.

The load-bearing properties:

* tracing off -> ``QueryResult.trace`` is None and simulated timings are
  *bit-identical* to a traced run (the tracer never touches the simulator);
* the span tree is structurally valid (single root, closed, acyclic) and
  the root covers the query wall-clock exactly;
* every RPC **attempt** gets a span — retries and downgrades are visible;
* per-stage totals re-derived from stage-tagged spans equal the
  coordinator's ``stage_seconds`` (the Table 3 cross-check).
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.arrowsim import RecordBatch
from repro.bench import Environment, RunConfig
from repro.bench.table3 import check_trace, run_table3
from repro.config import FaultSpec
from repro.errors import StatusCode, TraceError
from repro.rpc import RetryPolicy
from repro.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Trace,
    Tracer,
    chrome_trace_events,
    export_chrome_trace,
    render_tree,
    stage_totals,
    union_seconds,
)
from repro.workloads import DatasetSpec

QUERY = "SELECT grp, count(*) AS n, avg(v) AS m FROM t GROUP BY grp"


def _file(index: int) -> RecordBatch:
    rng = np.random.default_rng(100 + index)
    return RecordBatch.from_arrays(
        {"grp": rng.integers(0, 4, 2000), "v": rng.random(2000)}
    )


@pytest.fixture()
def env():
    e = Environment()
    e.add_dataset(
        DatasetSpec(
            schema_name="s", table_name="t", bucket="b",
            file_count=2, generator=_file, row_group_rows=512,
        )
    )
    return e


def _run(env, config):
    return env.run(QUERY, config, schema="s")


# -- tracer unit behaviour -----------------------------------------------------


class TestTracer:
    def test_disabled_tracer_hands_out_noop_span(self):
        tracer = Tracer(clock=lambda: 1.0, enabled=False)
        span = tracer.start("x")
        assert span is NOOP_SPAN
        span.set("k", "v")
        assert "k" not in span.attributes
        tracer.end(span)
        assert tracer.spans() == []
        assert not tracer.recording

    def test_parent_by_span_and_by_context(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        tracer = Tracer(clock=lambda: next(clock))
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        grandchild = tracer.start("grand", parent=child.context)
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.trace_id == child.trace_id == grandchild.trace_id
        # A noop parent (received from a disabled layer) means "root".
        orphan = tracer.start("o", parent=NOOP_SPAN.context)
        assert orphan.parent_id is None
        assert orphan.trace_id != root.trace_id

    def test_span_ids_are_sequential_and_end_is_idempotent(self):
        t = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(t)))
        spans = [tracer.start(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]
        tracer.end(spans[0])
        first_end = spans[0].end
        tracer.end(spans[0])
        assert spans[0].end == first_end

    def test_context_manager_records_error_code(self):
        tracer = Tracer(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("x"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.status is StatusCode.INTERNAL
        assert span.end is not None

    def test_trace_filters_by_root_trace_id(self):
        tracer = Tracer(clock=lambda: 0.0)
        a = tracer.start("a")
        tracer.start("a.child", parent=a)
        b = tracer.start("b")
        tracer.end(a)
        tracer.end(b)
        assert len(tracer.trace(root=a)) == 2
        assert len(tracer.trace(root=b)) == 1
        assert len(tracer.trace()) == 3


def _interleaved_tracer(seed: int, steps: int = 300):
    """A tracer fed several concurrent traces, as a shared service cluster
    sees them; returns it with every span in creation order."""
    rng = random.Random(seed)
    now = [0.0]

    def clock():
        now[0] += rng.choice((0.0, 0.5, 1.0))
        return now[0]

    tracer = Tracer(clock=clock)
    created, open_spans = [], []
    for _ in range(steps):
        action = rng.random()
        if action < 0.15 or not created:
            span = tracer.start("root")
        elif action < 0.75:
            span = tracer.start("child", parent=rng.choice(created[-40:]))
        else:
            if open_spans:
                tracer.end(open_spans.pop(rng.randrange(len(open_spans))))
            continue
        created.append(span)
        open_spans.append(span)
    for span in open_spans:
        tracer.end(span)
    return tracer, created


class TestTracerIndex:
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_by_root_matches_a_filter_over_every_span(self, seed):
        tracer, created = _interleaved_tracer(seed)
        roots = [s for s in created if s.parent_id is None]
        assert len(roots) > 5
        for root in roots:
            expected = [s for s in created if s.trace_id == root.trace_id]
            assert tracer.trace(root=root).spans == expected
        # Any span of a trace selects the same trace as its root.
        some = created[-1]
        assert tracer.trace(root=some).spans == [
            s for s in created if s.trace_id == some.trace_id
        ]

    def test_spans_and_full_trace_keep_creation_order(self):
        tracer, created = _interleaved_tracer(seed=11)
        assert tracer.spans() == created
        assert tracer.trace().spans == created
        assert [s.span_id for s in created] == list(range(1, len(created) + 1))

    def test_unknown_noop_or_cleared_root_gives_an_empty_trace(self):
        tracer, created = _interleaved_tracer(seed=3)
        stranger = Span(
            name="x", context=SpanContext(trace_id=10**6, span_id=10**6),
            parent_id=None, start=0.0,
        )
        assert len(tracer.trace(root=stranger)) == 0
        assert len(tracer.trace(root=NOOP_SPAN)) == 0
        tracer.clear()
        assert len(tracer.trace(root=created[0])) == 0
        assert tracer.spans() == []
        assert len(tracer.trace()) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_index_answers_like_an_eager_one(self, seed):
        tracer, created = _interleaved_tracer(seed)
        for root in (s for s in created if s.parent_id is None):
            trace = tracer.trace(root=root)
            assert "_by_id" not in vars(trace)  # nothing built yet
            by_id = {s.span_id: s for s in trace.spans}
            children = {}
            for span in trace.spans:
                children.setdefault(span.parent_id, []).append(span)
            for siblings in children.values():
                siblings.sort(key=lambda s: (s.start, s.span_id))
            trace.validate()
            assert trace.roots() == [
                s for s in trace.spans
                if s.parent_id is None or s.parent_id not in by_id
            ]
            for span in trace.spans:
                assert trace.get(span.span_id) is span
                assert trace.children(span) == children.get(span.span_id, [])
            assert trace.get(-1) is None

    def test_spans_are_slotted(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.start("x")
        for value in (span, span.context, NOOP_SPAN):
            assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            span.rows = 3
        span.set("rows", 3)  # ad-hoc data goes in attributes
        assert span.attributes["rows"] == 3


class TestTraceStructure:
    def _span(self, sid, parent, start, end, **attrs):
        return Span(
            name=f"s{sid}", context=SpanContext(trace_id=1, span_id=sid),
            parent_id=parent, start=start, end=end, attributes=attrs,
        )

    def test_validate_rejects_unclosed_and_unknown_parent(self):
        with pytest.raises(TraceError):
            Trace([self._span(1, None, 0.0, None)]).validate()
        with pytest.raises(TraceError):
            Trace([self._span(1, 99, 0.0, 1.0)]).validate()

    def test_validate_rejects_cycle(self):
        a = self._span(1, 2, 0.0, 1.0)
        b = self._span(2, 1, 0.0, 1.0)
        with pytest.raises(TraceError):
            Trace([a, b]).validate()

    def test_union_seconds_merges_overlap(self):
        assert union_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
        assert union_seconds([]) == 0.0


# -- end-to-end span trees -----------------------------------------------------


class TestQueryTraces:
    def test_trace_off_by_default(self, env):
        result = _run(env, RunConfig.filter_only())
        assert result.trace is None

    def test_tracing_never_changes_simulated_timings(self, env):
        plain = _run(env, RunConfig.filter_only())
        traced = _run(
            env, dataclasses.replace(RunConfig.filter_only(), tracing=True)
        )
        # Bit-identical, not approximately equal.
        assert traced.execution_seconds == plain.execution_seconds
        assert traced.data_moved_bytes == plain.data_moved_bytes
        assert traced.stage_seconds == plain.stage_seconds

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(label="raw", mode="hive-raw", tracing=True),
            RunConfig(label="ocs", mode="ocs", tracing=True),
        ],
        ids=["hive-raw", "ocs"],
    )
    def test_span_tree_structure_and_stage_totals(self, env, config):
        result = _run(env, config)
        trace = result.trace
        trace.validate()
        root = trace.root()
        assert root.name == "query"
        assert root.duration == pytest.approx(result.execution_seconds, abs=1e-15)
        # Every split produced a span parented under the root's trace.
        assert len(trace.find("split-0")) == 1
        # Spans re-derive the Table 3 stage breakdown exactly.
        derived = stage_totals(trace, elapsed=result.execution_seconds)
        for stage, seconds in result.stage_seconds.items():
            assert derived.get(stage, 0.0) == pytest.approx(seconds, abs=1e-9)
        assert set(derived) <= set(result.stage_seconds)

    def test_ocs_trace_crosses_all_layers(self, env):
        result = _run(env, RunConfig(label="ocs", mode="ocs", tracing=True))
        trace = result.trace
        # client -> rpc -> frontend server -> storage scan, all linked.
        pushdown = trace.first("pushdown")
        rpc = trace.first("rpc:ocs.execute")
        server = trace.first("ocs-frontend.server:ocs.execute")
        scan = trace.first("ocs.scan[0]")
        assert rpc.parent_id == pushdown.span_id
        assert server.parent_id == rpc.span_id
        assert scan.attributes["rows_scanned"] > 0
        # The server span nests inside the client attempt in time too.
        assert rpc.start <= server.start <= server.end <= rpc.end
        assert trace.first("substrait.generate").attributes["plan_bytes"] > 0

    def test_retries_are_one_span_per_attempt(self, env):
        config = RunConfig(
            label="ocs", mode="ocs", tracing=True,
            faults=FaultSpec(transient_storage_failures={0: 2}),
            retry=RetryPolicy(max_attempts=5, initial_backoff_s=0.01),
        )
        result = _run(env, config)
        attempts = result.trace.find("rpc:ocs.execute")
        assert len(attempts) == 3
        assert [s.attributes["attempt"] for s in attempts] == [1, 2, 3]
        assert [s.status for s in attempts] == [
            StatusCode.UNAVAILABLE, StatusCode.UNAVAILABLE, StatusCode.OK,
        ]
        assert attempts[0].attributes["code"] == "UNAVAILABLE"

    def test_downgrade_gets_fallback_span(self, env):
        config = RunConfig(
            label="ocs", mode="ocs", tracing=True,
            faults=FaultSpec(permanent_storage_failures=frozenset({0})),
            retry=RetryPolicy(max_attempts=2, initial_backoff_s=0.01),
        )
        result = _run(env, config)
        trace = result.trace
        trace.validate()
        fallback = trace.first("fallback.raw_get")
        assert fallback.attributes["downgraded"] is True
        assert fallback.attributes["bytes"] > 0
        # The failed attempts still show, parented under the pushdown span.
        attempts = trace.find("rpc:ocs.execute")
        assert len(attempts) == 2
        assert all(s.status is StatusCode.UNAVAILABLE for s in attempts)

    def test_traces_are_deterministic(self, env):
        config = RunConfig(label="ocs", mode="ocs", tracing=True)
        a, b = _run(env, config).trace, _run(env, config).trace
        assert [(s.name, s.span_id, s.parent_id, s.start, s.end) for s in a] == [
            (s.name, s.span_id, s.parent_id, s.start, s.end) for s in b
        ]


# -- exporters -----------------------------------------------------------------


class TestExporters:
    @pytest.fixture()
    def trace(self, env):
        return _run(env, RunConfig(label="ocs", mode="ocs", tracing=True)).trace

    def test_chrome_export_is_wellformed(self, trace):
        doc = json.loads(export_chrome_trace(trace))
        events = doc["traceEvents"]
        assert len(events) == len(trace.spans)
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"], dict)
        names = {e["name"] for e in events}
        assert {"query", "pushdown", "ocs.scan[0]"} <= names

    def test_chrome_events_preserve_stage(self, trace):
        by_name = {e["name"]: e for e in chrome_trace_events(trace)}
        assert by_name["pushdown"]["args"]["stage"] == "pushdown_and_transfer"
        assert by_name["pushdown"]["cat"] == "pushdown_and_transfer"

    def test_render_tree_shows_hierarchy_and_durations(self, trace):
        text = render_tree(trace)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any("└─" in line or "├─" in line for line in lines)
        assert any("ocs.scan[0]" in line for line in lines)
        assert any("stage=substrait_generation" in line for line in lines)

    def test_explain_analyze_renders_tree_and_stages(self, env):
        text = env.explain(
            QUERY, RunConfig(label="ocs", mode="ocs"), schema="s", analyze=True
        )
        assert "EXPLAIN ANALYZE" in text
        assert "query" in text and "pushdown" in text
        assert "Stage breakdown (derived from spans):" in text
        for stage in (
            "logical_plan_analysis", "substrait_generation",
            "pushdown_and_transfer", "presto_execution", "others",
        ):
            assert stage in text

    def test_plain_explain_does_not_execute(self, env):
        text = env.explain(
            QUERY, RunConfig(label="ocs", mode="ocs"), schema="s", analyze=False
        )
        assert "Stage breakdown" not in text


# -- the Table 3 cross-check ---------------------------------------------------


class TestTable3Trace:
    def test_table3_trace_rederives_stage_totals(self):
        result = run_table3(rows=4096, trace=True)
        derived = check_trace(result)
        assert set(derived) <= set(result.stage_seconds)

    def test_table3_without_trace_flag_has_no_trace(self):
        result = run_table3(rows=4096)
        assert result.trace is None
        with pytest.raises(TraceError):
            check_trace(result)
