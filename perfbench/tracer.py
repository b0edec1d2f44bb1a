"""Outside-in layer tracer: host self time and counts per ``repro`` layer.

The tracer wraps each layer's synchronous public entry points from the
outside, without editing the program.  Every wrapped call pushes a frame
on one nesting stack; when it returns, its duration minus the time its
wrapped children took is charged to its layer as *self time*.  Time
spent in code that no wrapper covers is charged to the nearest wrapped
caller, so every layer's self time includes its unwrapped helpers.

Rebinding is by identity: many modules import functions by name (for
example ``formats.reader``, ``connectors.hive.connector``,
``core.connector`` and ``exchange.shuffle`` each hold their own binding
of a codec or IPC function), so installing a function hook replaces
every module global that *is* the original, in every ``repro`` module.
The benchmark's own code calls these functions through their modules
(``writer.write_table``), so it sees the wrappers too.  Method hooks
replace the attribute on the defining class, so subclasses that inherit
it are covered too.

Generator-bodied steps cannot be timed by wrapping: calling them only
creates the generator, and their bodies run later inside the simulator's
event loop.  These are ``RpcClient.call``, ``OcsConnector.page_source``,
``ExchangeFabric.put``, ``DagScheduler.run`` and the service's
``Coordinator.query_process``.  Their self time falls under
``sim.self_ms`` (the enclosing ``Simulator.run``) until the program
records spans of its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["HOOKS", "LAYERS", "Hook", "LayerTracer"]

#: The ``repro.*`` packages the trace attributes host time to.
LAYERS: Tuple[str, ...] = (
    "sql", "rewrite", "plan", "core", "substrait", "engine", "sim", "ocs",
    "formats", "compress", "arrowsim", "exec", "exchange", "cache",
    "objectstore", "metastore", "workloads",
)

#: A byte or event counter: (args, kwargs, result, pre) -> amount.
CountFn = Callable[[tuple, dict, Any, Any], int]


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point."""

    layer: str
    #: Module that defines the function or class.
    module: str
    #: ``"function"`` or ``"Class.method"``.
    name: str
    #: Workload on which this hook must fire at least once.
    exercised_by: str
    #: Optional counter this hook feeds, and how much one call adds.
    counter: Optional[str] = None
    count: Optional[CountFn] = None
    #: Optional snapshot taken before the call, passed to ``count``.
    pre: Optional[Callable[[tuple, dict], Any]] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


def _result_len(args, kwargs, result, pre) -> int:
    return len(result)


def _arg_len(index: int) -> CountFn:
    def count(args, kwargs, result, pre) -> int:
        return len(args[index])

    return count


def _events_pre(args, kwargs):
    return args[0].events_dispatched


def _events_delta(args, kwargs, result, pre) -> int:
    return args[0].events_dispatched - pre


def _firings(args, kwargs, result, pre) -> int:
    return len(result.firings)


TPCH, FIG6, CACHE, SERVICE = (
    "tpch-pushdown", "fig6-compressed", "cache-reuse-rewrite", "service-contention",
)

HOOKS: Tuple[Hook, ...] = (
    Hook("sql", "repro.sql.parser", "parse", TPCH),
    Hook("sql", "repro.sql.analyzer", "analyze", TPCH),
    Hook("rewrite", "repro.rewrite.engine", "rewrite_statement", TPCH,
         "rewrite.firings", _firings),
    Hook("plan", "repro.plan.planner", "plan_query", TPCH),
    Hook("plan", "repro.plan.optimizer", "GlobalOptimizer.optimize", TPCH),
    Hook("core", "repro.core.optimizer", "OcsPlanOptimizer.optimize", TPCH),
    Hook("core", "repro.core.translator", "build_pushdown_plan", TPCH),
    Hook("substrait", "repro.substrait.serde", "serialize_plan", TPCH),
    Hook("substrait", "repro.substrait.serde", "deserialize_plan", TPCH),
    Hook("engine", "repro.engine.coordinator", "Coordinator.execute", TPCH),
    Hook("engine", "repro.engine.cluster", "Cluster.__init__", SERVICE),
    Hook("sim", "repro.sim.kernel", "Simulator.run", SERVICE,
         "sim.events", _events_delta, _events_pre),
    Hook("ocs", "repro.ocs.embedded_engine", "EmbeddedEngine.execute", TPCH),
    Hook("formats", "repro.formats.encoding", "decode_chunk", TPCH,
         "formats.bytes_decoded", _arg_len(1)),
    Hook("formats", "repro.formats.encoding", "encode_chunk", TPCH,
         "formats.bytes_encoded", _result_len),
    Hook("formats", "repro.formats.writer", "write_table", CACHE),
    Hook("compress", "repro.compress.codec", "Codec.compress", FIG6,
         "compress.bytes_compressed", _arg_len(1)),
    Hook("compress", "repro.compress.codec", "Codec.decompress", FIG6,
         "compress.bytes_decompressed", _result_len),
    Hook("arrowsim", "repro.arrowsim.ipc", "serialize_batch", TPCH,
         "arrowsim.bytes", _result_len),
    Hook("arrowsim", "repro.arrowsim.ipc", "serialize_batches", TPCH,
         "arrowsim.bytes", _result_len),
    Hook("arrowsim", "repro.arrowsim.ipc", "deserialize_batches", TPCH,
         "arrowsim.bytes", _arg_len(0)),
    Hook("exec", "repro.exec.operators", "run_operators", TPCH),
    Hook("exchange", "repro.exchange.shuffle", "encode_page", TPCH,
         "exchange.bytes", _result_len),
    Hook("exchange", "repro.exchange.shuffle", "decode_page", TPCH,
         "exchange.bytes", _arg_len(0)),
    Hook("cache", "repro.cache.budget", "ByteBudgetCache.get", CACHE),
    Hook("cache", "repro.cache.budget", "ByteBudgetCache.put", CACHE),
    Hook("objectstore", "repro.objectstore.store", "ObjectStore.get_object", TPCH,
         "objectstore.bytes_read", _result_len),
    Hook("objectstore", "repro.objectstore.store", "ObjectStore.get_object_range",
         TPCH, "objectstore.bytes_read", _result_len),
    Hook("objectstore", "repro.objectstore.store", "ObjectStore.put_object", CACHE,
         "objectstore.bytes_written", _arg_len(3)),
    Hook("metastore", "repro.metastore.catalog", "HiveMetastore.get_table", TPCH),
    Hook("metastore", "repro.metastore.collector", "collect_table_statistics", TPCH),
    Hook("workloads", "repro.workloads.datasets", "build_dataset", TPCH),
    Hook("workloads", "repro.workloads.tpch", "generate_lineitem", TPCH),
    Hook("workloads", "repro.workloads.tpch", "generate_customer", TPCH),
    Hook("workloads", "repro.workloads.deepwater", "generate_deepwater_file", FIG6),
    Hook("workloads", "repro.workloads.laghos", "generate_laghos_file", SERVICE),
)

#: Counters every trace reports, zero when no hook fed them.
COUNTERS: Tuple[str, ...] = tuple(
    sorted({hook.counter for hook in HOOKS if hook.counter is not None})
)


class LayerTracer:
    """Installs :data:`HOOKS`, accumulates per-layer self time and counts."""

    def __init__(self) -> None:
        self.hooks = HOOKS
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.hook_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = True
        #: Open frames: [layer, seconds spent in wrapped children].
        self._stack: List[list] = []
        #: Counter -> calls feeding it that are still running.
        self._open_counters: Counter = Counter()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> "LayerTracer":
        scanned = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            owner_name, _, method = hook.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._rebind(owner, method, self._wrap(hook, original))
                continue
            original = getattr(module, hook.name)
            wrapper = self._wrap(hook, original)
            for scanned_module in scanned:
                for attr, value in list(vars(scanned_module).items()):
                    if value is original:
                        self._rebind(scanned_module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced (benchmark-side checks, not program work)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        layer = hook.layer
        stack = self._stack
        open_counters = self._open_counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # A counter counts only the outermost of nested calls feeding
            # it (serialize_batches -> serialize_batch): the inner bytes
            # are already inside the outer call's count.
            counter = hook.counter
            outermost = counter is not None and not open_counters[counter]
            pre = hook.pre(args, kwargs) if hook.pre is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            open_counters[counter] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_counters[counter] -= 1
                stack.pop()
                tracer.self_seconds[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                tracer.calls[layer] += 1
                tracer.hook_calls[hook.key] += 1
            if outermost:
                tracer.counts[counter] += hook.count(args, kwargs, result, pre)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def unfired(self, workload: str) -> List[str]:
        """Hooks meant to be exercised by ``workload`` that never fired."""
        return [
            hook.key for hook in self.hooks
            if hook.exercised_by == workload and not self.hook_calls[hook.key]
        ]

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self.self_seconds[layer] * 1e3, "ms")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for counter in COUNTERS:
            unit = "count" if counter in ("sim.events", "rewrite.firings") else "bytes"
            out[counter] = (self.counts[counter], unit)
        return out
