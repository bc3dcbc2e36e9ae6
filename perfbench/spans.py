"""Outside-in span tracer: charges host time to the simulator's layers.

Nothing here edits the program. While a :class:`SpanTracer` is installed
it patches two kinds of entry points from the outside, and puts every
one back on :meth:`SpanTracer.uninstall`:

* ``Engine.call_at`` — every scheduled callback is wrapped, at schedule
  time, so that firing it opens an *event* span charged to the module
  that owns the callback (see :func:`resolve_owner`);
* the public functions one layer calls synchronously in another
  (:data:`CALL_SITES`) — each call opens a *call* span charged to the
  callee's layer, so nested work is not billed to the caller,

and :class:`FirstEventClock` patches ``Engine.run``, whose first call
marks the run's first simulated event: setup before it is not traced.

A layer's self time is the time its spans cover minus the time their
child spans cover. Everything the spans do not cover — the engine's own
heap work, the runner's drive loop, result collection — is the ``sim``
layer's self time, so the layers' self times sum exactly to the traced
window. Spans are kept in memory as (name, start, end, parent) with the
run id carried by the dump, and written out once the run is over.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.api import KubeApiServer
from repro.cluster.scheduler import KubeScheduler
from repro.hta.estimator import ResourceEstimator
from repro.hta.operator import HtaOperator
from repro.hta.provisioner import WorkerProvisioner
from repro.makeflow.manager import WorkflowManager
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.dispatch import DispatchCore
from repro.wq.sharding import Foreman

#: Module → layer. A callback or function whose owning module is not
#: listed is charged to ``other``; ``trace.coverage_frac`` reports the
#: share of traced time that avoided that bucket.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.sim.engine": "sim",
    "repro.sim.process": "sim",
    "repro.cluster.scheduler": "cluster.scheduler",
    "repro.cluster.api": "cluster.api",
    "repro.cluster.cloud": "cluster.cloud",
    "repro.cluster.kubelet": "cluster.kubelet",
    "repro.cluster.informer": "cluster.informer",
    "repro.cluster.metrics_server": "cluster.metrics_server",
    "repro.wq.dispatch": "wq.dispatch",
    "repro.wq.master": "wq.dispatch",
    "repro.wq.worker": "wq.worker",
    "repro.wq.link": "wq.link",
    "repro.wq.runtime": "wq.runtime",
    "repro.wq.sharding": "wq.sharding",
    "repro.hta.operator": "hta.operator",
    "repro.hta.estimator": "hta.estimator",
    "repro.hta.provisioner": "hta.provisioner",
    "repro.makeflow.manager": "makeflow",
    "repro.metrics.accounting": "metrics.sampler",
    "repro.sim.tracing": "metrics.sampler",
}

#: Every layer the trace reports, in report order.
LAYERS: Tuple[str, ...] = (
    "sim",
    "cluster.scheduler",
    "cluster.api",
    "cluster.cloud",
    "cluster.kubelet",
    "cluster.informer",
    "cluster.metrics_server",
    "wq.dispatch",
    "wq.worker",
    "wq.link",
    "wq.runtime",
    "wq.sharding",
    "hta.operator",
    "hta.estimator",
    "hta.provisioner",
    "makeflow",
    "metrics.sampler",
    "other",
)

#: The public functions called synchronously across layers, by class;
#: a call is charged to the layer of its class's module. Properties are
#: wrapped on their getter.
CALL_SITES: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (KubeScheduler, ("sync",)),
    (
        KubeApiServer,
        (
            "create", "get", "try_get", "list", "mark_modified", "delete",
            "try_delete", "pods", "nodes", "ready_nodes", "pending_pods",
        ),
    ),
    (DispatchCore, ("submit", "submit_many", "task_finished")),
    (
        Foreman,
        (
            "submit", "submit_many", "stats", "cores_in_use", "cores_waiting",
            "supplied_cores", "goodput_core_s", "waiting_tasks",
            "running_tasks", "connected_workers", "idle_workers", "all_done",
            "queue", "running", "workers",
        ),
    ),
    (WorkflowManager, ("_task_completed", "_task_abandoned")),
    (HtaOperator, ("submit", "_master_completed")),
    (ResourceEstimator, ("estimate",)),
    (
        WorkerProvisioner,
        (
            "create_workers", "drain_workers", "drain_all", "cancel_pending",
            "my_pods", "live_pods", "pending_pods", "running_pods",
        ),
    ),
)

EVENT, CALL = "event", "call"


class FirstEventClock:
    """Reads the host clock at the first ``Engine.run`` call, i.e. right
    before the run's first simulated event fires; ``on_first`` runs then.

    The drive loop calls ``run`` once per simulated minute, so the patch
    costs the untimed run a handful of calls.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        on_first: Optional[Callable[[], None]] = None,
    ) -> None:
        self.clock = clock
        self.on_first = on_first
        #: Clock reading at the first simulated event (None until then).
        self.first_event_at: Optional[float] = None
        self._run = Engine.__dict__["run"]

    def __enter__(self) -> "FirstEventClock":
        run = self._run

        def marking_run(engine: Engine, *args: Any, **kwargs: Any) -> float:
            if self.first_event_at is None:
                self.first_event_at = self.clock()
                if self.on_first is not None:
                    self.on_first()
            return run(engine, *args, **kwargs)

        Engine.run = marking_run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        Engine.run = self._run  # type: ignore[method-assign]


def _unwrap(fn: Any) -> Any:
    """The plain function behind a bound method, partial or wrapper."""
    while True:
        if isinstance(fn, functools.partial):
            fn = fn.func
        elif hasattr(fn, "__func__"):
            fn = fn.__func__
        elif hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        else:
            return fn


def resolve_owner(fn: Callable[..., Any]) -> Tuple[str, str]:
    """``(module, qualname)`` of the code a scheduled callback runs.

    A :class:`PeriodicTask` tick is charged to the owner of the task's
    ``fn``; a bound method to the module of the class that defines it;
    a closure or plain function to the module it was defined in.
    """
    func = _unwrap(fn)
    if func is PeriodicTask._fire:
        return resolve_owner(fn.__self__.fn)
    module = getattr(func, "__module__", None)
    if module is None and hasattr(fn, "__self__"):
        module = type(fn.__self__).__module__
    return module or "?", getattr(func, "__qualname__", repr(func))


def layer_of(module: str) -> str:
    return LAYER_OF_MODULE.get(module, "other")


class SpanTracer:
    """Records nested spans and accumulates per-layer self time.

    ``clock`` is injectable so tests can drive nesting with exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer -> [self_s]; a one-item list so the hot path mutates in place.
        self.self_s: Dict[str, List[float]] = {layer: [0.0] for layer in LAYERS}
        #: Name table: index -> (kind, layer, qualname).
        self.names: List[Tuple[str, str, str]] = []
        self._name_index: Dict[Tuple[str, str, str], int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: List[List[float]] = []
        self._event_cache: Dict[Any, tuple] = {}
        self._patches: List[Tuple[type, str, Any]] = []
        #: Spans are recorded only while True: from the first simulated
        #: event (see :class:`FirstEventClock`) until :meth:`uninstall`.
        self.active = False

    # --------------------------------------------------------------- spans
    def entry(self, kind: str, layer: str, qualname: str) -> tuple:
        """The (name index, self-time cell) pair a span is recorded under."""
        key = (kind, layer, qualname)
        idx = self._name_index.get(key)
        if idx is None:
            idx = len(self.names)
            self.names.append(key)
            self._name_index[key] = idx
        return idx, self.self_s[layer]

    def run_span(self, entry: tuple, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Call ``fn`` inside a span: its self time goes to the entry's
        layer and its whole duration is subtracted from its parent's."""
        name_idx, cell = entry
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(name_idx)
        self.span_parent.append(int(stack[-1][0]) if stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        clock = self.clock
        start = clock()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            cell[0] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.span_end[idx] = end

    def _fire(self, entry: tuple, fn: Callable[..., Any], *args: Any) -> Any:
        return self.run_span(entry, fn, args, {})

    def event_entry(self, fn: Callable[..., Any]) -> tuple:
        # Keyed on code objects: closures made per event share one.
        func = _unwrap(fn)
        key = getattr(func, "__code__", func)
        if func is PeriodicTask._fire:
            inner = _unwrap(fn.__self__.fn)
            key = (key, getattr(inner, "__code__", inner))
        entry = self._event_cache.get(key)
        if entry is None:
            module, qualname = resolve_owner(fn)
            entry = self.entry(EVENT, layer_of(module), qualname)
            self._event_cache[key] = entry
        return entry

    def wrap_call(self, func: Callable[..., Any], layer: str, qualname: str) -> Callable[..., Any]:
        entry = self.entry(CALL, layer, qualname)
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return func(*args, **kwargs)
            return tracer.run_span(entry, func, args, kwargs)

        return traced

    # ------------------------------------------------------------- patching
    def _patch(self, owner: type, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "SpanTracer":
        tracer = self
        call_at = Engine.call_at

        def traced_call_at(engine: Engine, when: float, fn: Callable[..., Any], *args: Any):
            return call_at(engine, when, tracer._fire, tracer.event_entry(fn), fn, *args)

        self._patch(Engine, "call_at", traced_call_at)
        for cls, attrs in CALL_SITES:
            layer = layer_of(cls.__module__)
            for attr in attrs:
                current = cls.__dict__[attr]
                qualname = f"{cls.__name__}.{attr}"
                if isinstance(current, property):
                    wrapped = property(self.wrap_call(current.fget, layer, qualname))
                else:
                    wrapped = self.wrap_call(current, layer, qualname)
                self._patch(cls, attr, wrapped)
        return self

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -------------------------------------------------------------- reports
    def layer_self_s(self, window_s: float) -> Dict[str, float]:
        """Self time per layer over a window of ``window_s`` host seconds:
        ``sim`` also takes everything no span covered, so the values sum
        to ``window_s``."""
        out = {layer: cell[0] for layer, cell in self.self_s.items()}
        out["sim"] += window_s - sum(out.values())
        return out

    def counts(self) -> Dict[Tuple[str, str], int]:
        """(kind, layer) -> spans recorded."""
        out: Dict[Tuple[str, str], int] = {}
        per_name = [0] * len(self.names)
        for idx in self.span_name:
            per_name[idx] += 1
        for (kind, layer, _), n in zip(self.names, per_name):
            out[(kind, layer)] = out.get((kind, layer), 0) + n
        return out

    def durations(self, kind: str, qualname: str) -> List[float]:
        """Inclusive durations of every span with this kind and name."""
        wanted = {i for i, (k, _, q) in enumerate(self.names) if k == kind and q == qualname}
        return [
            self.span_end[i] - self.span_start[i]
            for i, name in enumerate(self.span_name)
            if name in wanted
        ]

    def dump(self, path: str, run_id: str, origin: float) -> None:
        """Write every span as one tab-separated line, times in seconds
        from ``origin`` (the first simulated event)."""
        with open(path, "w") as out:
            out.write("run\tspan\tkind\tlayer\tname\tstart_s\tend_s\tparent\n")
            for i, name_idx in enumerate(self.span_name):
                kind, layer, qualname = self.names[name_idx]
                out.write(
                    f"{run_id}\t{i}\t{kind}\t{layer}\t{qualname}\t"
                    f"{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\t{self.span_parent[i]}\n"
                )
