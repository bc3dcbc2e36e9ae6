"""The indexed dispatch pass places exactly what the full scan placed.

A dispatch pass keeps two indexes instead of scanning: the multiset of
queued placement signatures (the walk stops once every live signature
is proven unplaceable) and the accepting workers sorted by
``(available cores, name)`` (a placement bisects to the smallest core
count the task fits and walks upward). These tests pin the contract:

* a hypothesis property over random heterogeneous fleets compares the
  ``(task, worker, allocation)`` sequence of a real pass with the
  reference below — the full-queue walk with a full-scan argmax that
  the indexes replaced;
* a counter test shows a saturated pass stops after one failure;
* a chaos-soak check audits both indexes after every simulated event,
  under quarantine, partitions, drains, kills and master crashes.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.soak import SoakConfig, run_soak
from repro.wq import dispatch as dispatch_mod
from repro.wq.dispatch import DispatchConfig, DispatchCore
from repro.wq.estimator import ConservativeEstimator, DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import FileSpec, Task
from repro.wq.worker import Worker, WorkerState

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)


# ------------------------------------------------------------ reference pass
def _sized(master: DispatchCore, task: Task, capacity: ResourceVector):
    alloc = master.estimator.allocation_for(task, capacity)
    if alloc is None:
        return capacity
    alloc = alloc.max_with(task.footprint)
    if task.min_allocation is not None:
        alloc = (
            alloc.max_with(task.min_allocation)
            .min_with(capacity)
            .max_with(task.footprint)
        )
    return alloc if alloc.fits_in(capacity) else None


def reference_choice(
    master: DispatchCore, task: Task, exclude: Optional[Worker] = None
) -> Tuple[Optional[Worker], Optional[ResourceVector]]:
    """Scan every registered worker; argmax of (cached, -cores, name)."""
    best = best_alloc = best_key = None
    for worker in master.workers.values():
        if worker is exclude or not worker.accepting:
            continue
        alloc = _sized(master, task, worker.capacity)
        if alloc is None:
            continue
        available = worker.available()
        if not alloc.fits_in(available):
            continue
        key = (worker.has_cached(task), -available.cores, worker.name)
        if best_key is None or key > best_key:
            best, best_alloc, best_key = worker, alloc, key
    return best, best_alloc


def reference_pass(master: DispatchCore) -> None:
    """Walk the whole queue (priority order, FIFO within a level),
    skipping signatures that already failed this pass."""
    ordered = sorted(master.queue, key=lambda t: -t.priority)
    unplaceable = set()
    for task in ordered:
        sig = (task.category, task.footprint, task.min_allocation, task.declared)
        if sig in unplaceable:
            continue
        worker, alloc = reference_choice(master, task)
        if worker is None:
            unplaceable.add(sig)
            continue
        worker.assign(task, alloc)


# ------------------------------------------------------------------ fixtures
@dataclass(frozen=True)
class WorkerSpec:
    name: str
    capacity: ResourceVector
    busy: Optional[ResourceVector]  # an allocation already running there
    cached: Tuple[str, ...]
    status: str  # "ready" | "draining" | "quarantined"


@dataclass(frozen=True)
class TaskSpec:
    category: str
    footprint: ResourceVector
    declared: Optional[ResourceVector]
    min_allocation: Optional[ResourceVector]
    inputs: Tuple[str, ...]
    priority: int
    front: bool  # requeued at the front, like a retry


#: None keeps the master's default (monitor-backed) estimator.
_ESTIMATORS = {
    "monitor": None,
    "declared": DeclaredResourceEstimator,
    "conservative": ConservativeEstimator,
}


def build(estimator: str, workers: List[WorkerSpec], tasks: List[TaskSpec]):
    """A master with the fleet connected and the tasks queued; each
    worker's ``assign`` is wrapped to log placements in order."""
    engine = Engine()
    factory = _ESTIMATORS[estimator]
    master = Master(
        engine,
        Link(engine, 1000.0),
        config=DispatchConfig(),
        estimator=factory() if factory is not None else None,
    )
    fleet = [Worker(engine, master, w.name, w.capacity) for w in workers]
    engine.run()
    log: List[Tuple[int, str, ResourceVector]] = []
    queued: List[Task] = []
    for spec, worker in zip(workers, fleet):
        for name in spec.cached:
            worker.cache.add(name, 10.0, engine.now)
        if spec.busy is not None:
            filler = Task("filler", execute_s=1e6, footprint=spec.busy)
            worker.assign(filler, spec.busy)
        if spec.status == "draining":
            worker.drain()
        elif spec.status == "quarantined":
            worker.quarantined = True
            master._refresh_worker_cache(worker)
    for spec in tasks:
        task = Task(
            spec.category,
            execute_s=10.0,
            footprint=spec.footprint,
            declared=spec.declared,
            inputs=tuple(FileSpec(n, 10.0, cacheable=True) for n in spec.inputs),
            priority=spec.priority,
        )
        task.min_allocation = spec.min_allocation
        queued.append(task)
        if spec.front:
            master._enqueue_front(task)
        else:
            master._enqueue_back(task)
    index = {t.id: i for i, t in enumerate(queued)}
    for worker in fleet:
        def logged(task, alloc, _w=worker, _assign=worker.assign):
            log.append((index.get(task.id, -1), _w.name, alloc))
            _assign(task, alloc)

        worker.assign = logged
    return master, fleet, queued, log


_cores = st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0])
_memory = st.sampled_from([1024.0, 2048.0, 4096.0, 8192.0])
_capacity = st.builds(ResourceVector, _cores, _memory, st.just(4096.0))
_small = st.builds(
    ResourceVector,
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([256.0, 512.0, 1024.0, 3000.0]),
    st.just(128.0),
)
_files = st.lists(st.sampled_from(["db", "ref", "lib"]), max_size=2, unique=True)


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"w{i:02d}" for i in range(n)]))
    specs = []
    for name in names:
        capacity = draw(_capacity)
        busy = draw(st.none() | _small)
        if busy is not None and not busy.fits_in(capacity):
            busy = None
        specs.append(
            WorkerSpec(
                name=name,
                capacity=capacity,
                busy=busy,
                cached=tuple(draw(_files)),
                status=draw(
                    st.sampled_from(["ready"] * 6 + ["draining", "quarantined"])
                ),
            )
        )
    return specs


@st.composite
def task_specs(draw):
    footprint = draw(_small)
    declared = draw(st.none() | st.just(footprint) | st.just(footprint.scale(2.0)))
    return TaskSpec(
        category=draw(st.sampled_from(["a", "b"])),
        footprint=footprint,
        declared=declared,
        min_allocation=draw(st.none() | _small | _capacity),
        inputs=tuple(draw(_files)),
        priority=draw(st.sampled_from([0, 0, 0, 1, 2])),
        front=draw(st.booleans()),
    )


_estimator = st.sampled_from(sorted(_ESTIMATORS))


# ----------------------------------------------------------------- properties
@settings(max_examples=150, deadline=None)
@given(
    estimator=_estimator,
    workers=fleets(),
    tasks=st.lists(task_specs(), min_size=1, max_size=40),
)
def test_indexed_pass_matches_the_full_scan(estimator, workers, tasks):
    indexed, _, queued_a, log_a = build(estimator, workers, tasks)
    reference, _, queued_b, log_b = build(estimator, workers, tasks)
    indexed._dispatch()
    reference_pass(reference)
    assert log_a == log_b
    placed = {i for i, _, _ in log_a}
    assert [queued_a.index(t) for t in indexed.queue] == [
        queued_b.index(t)
        for t in reference.queue
        if queued_b.index(t) not in placed
    ]


@settings(max_examples=150, deadline=None)
@given(
    estimator=_estimator,
    workers=fleets(),
    task=task_specs(),
    exclude=st.integers(0, 12),
)
def test_try_place_matches_the_full_scan_with_exclude(
    estimator, workers, task, exclude
):
    indexed, fleet_a, (task_a,), log_a = build(estimator, workers, [task])
    reference, fleet_b, (task_b,), _ = build(estimator, workers, [task])
    excluded_a = fleet_a[exclude] if exclude < len(fleet_a) else None
    excluded_b = fleet_b[exclude] if exclude < len(fleet_b) else None
    want, want_alloc = reference_choice(reference, task_b, excluded_b)
    assert indexed._try_place(task_a, exclude=excluded_a) is (want is not None)
    if want is None:
        assert log_a == []
    else:
        assert log_a == [(0, want.name, want_alloc)]


# --------------------------------------------------------------- counter test
def test_saturated_single_signature_pass_stops_after_one_failure(monkeypatch):
    engine = Engine()
    master = Master(
        engine,
        Link(engine, 1000.0),
        config=DispatchConfig(),
        estimator=DeclaredResourceEstimator(),
    )
    for i in range(10):
        Worker(engine, master, f"w{i}", CAP)
    engine.run()
    tasks = [
        Task("c", execute_s=10.0, footprint=FOOT, declared=FOOT)
        for _ in range(3000)
    ]
    for task in tasks:
        master._enqueue_back(task)
    visits = []
    sig = dispatch_mod._placement_sig
    monkeypatch.setattr(
        dispatch_mod, "_placement_sig", lambda t: visits.append(t) or sig(t)
    )
    outcomes: List[bool] = []
    try_place = master._try_place

    def counting(task, exclude=None):
        outcomes.append(try_place(task, exclude))
        return outcomes[-1]

    master._try_place = counting
    master._dispatch()
    placed = outcomes.count(True)
    assert placed == 40  # 10 workers x 4 one-core slots
    assert len(visits) <= placed + 1
    assert outcomes.count(False) == 1
    assert master.queue == tasks[placed:]
    assert master._queued_sigs == {sig(tasks[0]): 3000 - placed}


# ------------------------------------------------------- soak index auditing
class IndexAudit:
    """Checks every dispatch core's indexes after each fired event."""

    def __init__(self) -> None:
        self.cores: List[DispatchCore] = []
        self.events = 0
        #: States the audited events passed through (see :meth:`check`).
        self.seen: set = set()

    @contextmanager
    def installed(self):
        init = DispatchCore.__init__
        call_at = Engine.call_at
        audit = self

        def recording_init(core, *args, **kwargs):
            init(core, *args, **kwargs)
            audit.cores.append(core)

        def audited_call_at(engine, time, fn, *args):
            def fire(*a):
                fn(*a)
                audit.check()

            return call_at(engine, time, fire, *args)

        kill = Worker.kill

        def observed_kill(worker):
            if worker.state in (WorkerState.READY, WorkerState.DRAINING):
                audit.seen.add("kill")
            kill(worker)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DispatchCore, "__init__", recording_init)
            mp.setattr(Engine, "call_at", audited_call_at)
            mp.setattr(Worker, "kill", observed_kill)
            yield self

    def check(self) -> None:
        self.events += 1
        for core in self.cores:
            accepting = {n: w for n, w in core.workers.items() if w.accepting}
            assert core._accepting == accepting
            assert core._accept_index == sorted(
                (w.available().cores, n) for n, w in core._accepting.items()
            )
            assert core._accept_shapes == dict(
                Counter(w.capacity for w in accepting.values())
            )
            assert core._queued_sigs == dict(
                Counter(dispatch_mod._placement_sig(t) for t in core.queue)
            )
            if core.crashed:
                self.seen.add("crash")
            for w in core.workers.values():
                if w.quarantined:
                    self.seen.add("quarantine")
                if w.partitioned:
                    self.seen.add("partition")
                if w.state is WorkerState.DRAINING:
                    self.seen.add("drain")


def _audit_soak(seed: int, config: SoakConfig) -> IndexAudit:
    audit = IndexAudit()
    with audit.installed():
        report = run_soak(seed, config)
    assert report.ok, report.describe()
    assert audit.events > 1000
    return audit


@pytest.mark.parametrize("seed", [2016, 2121])
def test_indexes_track_every_event_of_an_integrity_chaos_soak(seed):
    # Seeds whose runs pass through all five states that flip
    # ``accepting``: a quarantined (black-hole) worker, a partitioned
    # one, a draining one, a worker killed while registered, and a
    # crashed master that later recovers.
    audit = _audit_soak(seed, SoakConfig.from_flags(smoke=True, integrity=True))
    assert audit.seen == {"crash", "quarantine", "partition", "drain", "kill"}


@pytest.mark.parametrize("seed", [1, 2, 5060])
def test_indexes_track_every_event_of_a_shard_crash_soak(seed):
    _audit_soak(seed, SoakConfig.from_flags(smoke=True, shard_crash=True))
