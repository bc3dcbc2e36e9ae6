"""The indexed scheduling pass binds exactly what the full scan bound.

A scheduling pass reads two indexes the API server keeps on every write
instead of scanning: the pending pods in creation order (with the
multiset of their placement signatures, so the walk stops once every
live signature has failed, and the subset still lacking a
``FailedScheduling`` event) and the stored nodes ordered by
``(free cores, name)`` (so the best-scoring node is a bisect and a short
walk away). These tests pin the contract:

* a hypothesis property drives two identical clusters with the same
  random script — node churn on both pools (cordon, preemption notice,
  chaos kill, scale-down delete), pods with and without node selectors,
  pod deletes and finishes, API outages, watch drops and direct
  mutations that skip the API write — one scheduled by the real pass,
  one by the full-scan reference below, and compares every bind, its
  order, every ``FailedScheduling`` event and the kind versions after
  every step, for both strategies; it also audits both indexes against
  a rebuild from the store;
* a counter test shows a saturated pass stops at its first failure,
  and edge cases pin where the free-cores walk may stop.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import scheduler as scheduler_mod
from repro.cluster.api import KubeApiServer, is_pending
from repro.cluster.chaos import ChaosInjector
from repro.cluster.cloud import (
    CloudController,
    CloudControllerConfig,
    PreemptiblePoolConfig,
)
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, MachineType, Node
from repro.cluster.pod import Pod, PodPhase, PodSpec, REASON_FAILED_SCHEDULING
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import KubeScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.telemetry.events import Tracer

IMAGE = ContainerImage("img", 10)
SPOT_TYPE = MachineType(
    "spot-8", capacity=ResourceVector(cores=8, memory_mb=8192, disk_mb=8192)
)
SELECTORS = (None, {"preemptible": "true"}, {"preemptible": "false"})
CORES = (0.2, 0.4, 1 / 3, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0)


# ------------------------------------------------------------ reference pass
class FullScanScheduler(KubeScheduler):
    """The pass the indexes replaced: every pending pod against every
    stored node, scored with a max/min over the fitting candidates."""

    def sync(self) -> int:
        state = (self.api.kind_version("Pod"), self.api.kind_version("Node"))
        if state == self._synced_state:
            return 0
        bound = 0
        pending = [
            p
            for p in self.api.pods()
            if p.phase is PodPhase.PENDING and p.node is None
        ]
        nodes = self.api.nodes()
        unplaceable: set = set()
        for pod in pending:
            selector = pod.spec.node_selector
            sig = (
                pod.spec.request,
                tuple(sorted(selector.items())) if selector else None,
            )
            if sig in unplaceable:
                self._record_unschedulable(pod)
                continue
            node = self._full_scan(pod, nodes)
            if node is None:
                unplaceable.add(sig)
                self._record_unschedulable(pod)
                continue
            pod.mark_scheduled(self.engine.now, node)
            node.bind(pod)
            self.api.mark_modified(pod)
            self.binds += 1
            bound += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cluster", "scheduler.bind", pod=pod.name, node=node.name
                )
        self._synced_state = (
            self.api.kind_version("Pod"),
            self.api.kind_version("Node"),
        )
        return bound

    def _full_scan(self, pod: Pod, nodes: List[Node]) -> Optional[Node]:
        candidates = [
            n
            for n in nodes
            if self._selector_matches(pod, n) and n.can_fit(pod.spec.request)
        ]
        if not candidates:
            return None
        key = lambda n: (n.free().cores, n.name)  # noqa: E731
        if self.strategy == "least-requested":
            return max(candidates, key=key)
        return min(candidates, key=key)


# ------------------------------------------------------------------- world
class World:
    """A cluster without autoscaling loops: nodes come and go only as the
    script says, through the real cloud/chaos code paths."""

    def __init__(self, scheduler_cls: type, strategy: str) -> None:
        self.engine = Engine()
        self.tracer = Tracer(lambda: self.engine.now)
        self.api = KubeApiServer(self.engine, tracer=self.tracer)
        rng = RngRegistry(7)
        self.cloud = CloudController(
            self.engine,
            self.api,
            rng,
            CloudControllerConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=0,
                max_nodes=50,
                preemptible=PreemptiblePoolConfig(
                    machine_type=SPOT_TYPE, max_nodes=50, grace_period_s=2.0
                ),
            ),
            tracer=self.tracer,
        )
        self.cloud.stop()
        self.chaos = ChaosInjector(self.engine, self.api, rng, tracer=self.tracer)
        self.scheduler = scheduler_cls(
            self.engine, self.api, strategy=strategy, tracer=self.tracer
        )
        self.n_pods = 0
        #: Set by the first mutation that skips the API write; until then
        #: the pending index must match the store exactly.
        self.raw = False

    def _pick(self, items: list, i: int):
        return items[i % len(items)] if items else None

    def apply(self, op: tuple) -> None:
        kind, a, b, c = op
        api, engine = self.api, self.engine
        node = self._pick(api.nodes(), a)
        pod = self._pick(api.pods(), a)
        if kind == "node":
            self.cloud._register_node(preemptible=b % 2 == 1)
        elif kind == "pod":
            self.n_pods += 1
            request = ResourceVector(
                CORES[a % len(CORES)], 4096.0 if b % 3 else 12000.0, 1024.0
            )
            spec = PodSpec(IMAGE, request, node_selector=dict(SELECTORS[c % 3] or {}))
            api.create(Pod(f"pod-{self.n_pods:03d}", spec))
        elif kind == "advance":
            engine.run(until=engine.now + (0.0, 0.5, 1.0, 3.0)[b % 4])
        elif kind == "sync":
            self.scheduler.sync()
        elif kind == "cordon" and node is not None:
            node.unschedulable = True
            api.mark_modified(node)
        elif kind == "preempt" and node is not None:
            self.cloud.begin_preemption(node)
        elif kind == "kill" and node is not None:
            self.chaos.kill_node(node)
        elif kind == "scale_down" and node is not None:
            self.cloud._remove_node(node)
        elif kind == "delete_pod" and pod is not None:
            api.try_delete("Pod", pod.name)
        elif kind == "finish_pod" and pod is not None and pod.node is not None:
            if pod.phase is PodPhase.PENDING:
                pod.mark_running(engine.now)
            pod.mark_finished(engine.now, succeeded=b % 2 == 0)
            api.mark_modified(pod)
        elif kind == "outage":
            api.begin_outage() if b % 2 else api.end_outage()
        elif kind == "drop":
            which = ("Pod", "Node")[c % 2]
            api.begin_watch_drop(which) if b % 2 else api.end_watch_drop(which)
        # Direct mutations: state changes no API write announces.
        elif kind == "raw_finish" and pod is not None:
            self.raw = True
            pod.mark_finished(engine.now, succeeded=False)
        elif kind == "raw_flag" and node is not None:
            self.raw = True
            if b % 2:
                node.unschedulable = not node.unschedulable
            else:
                node.ready = not node.ready

    def snapshot(self) -> tuple:
        pods = tuple(
            (
                p.name,
                p.node.name if p.node is not None else None,
                p.phase,
                tuple((e.time, e.reason) for e in p.events),
            )
            for p in self.api.pods()
        )
        trace = tuple(
            (e.time, e.name, tuple(sorted(e.attrs.items())))
            for e in self.tracer.events
        )
        return (
            trace,
            pods,
            self.api.kind_version("Pod"),
            self.api.kind_version("Node"),
            self.api.writes,
            self.scheduler.binds,
        )

    def audit_indexes(self) -> None:
        """Both indexes equal a rebuild from the store; after a mutation
        without a write, the pending one may also hold pods that left."""
        api = self.api
        assert api.node_index.entries == sorted(
            (n.free().cores, n.name, n) for n in api.nodes()
        )
        pending = api.pending_index
        live = [p for p in api.pods() if p.phase is PodPhase.PENDING and p.node is None]
        unrecorded = [
            p
            for p in live
            if not (p.events and p.events[-1].reason == REASON_FAILED_SCHEDULING)
        ]
        assert api.pending_pods() == live
        if self.raw:
            assert set(map(id, live)) <= set(map(id, pending.order))
            assert set(map(id, unrecorded)) <= set(map(id, pending.unrecorded))
        else:
            assert pending.order == live
            assert pending.unrecorded == unrecorded
            assert pending.sigs == Counter(p.spec.placement_sig for p in live)


OPS = st.tuples(
    st.sampled_from(
        ["node"] * 3 + ["pod"] * 6 + ["advance"] * 4 + ["finish_pod"] * 2 + [
            "sync", "cordon", "preempt", "kill", "scale_down", "delete_pod",
            "outage", "drop", "raw_finish", "raw_flag",
        ]
    ),
    st.integers(0, 63),
    st.integers(0, 7),
    st.integers(0, 5),
)


class TestIndexedPassMatchesFullScan:
    @settings(deadline=None, max_examples=150)
    @given(
        strategy=st.sampled_from(["least-requested", "binpack"]),
        script=st.lists(OPS, min_size=25, max_size=80),
    )
    def test_same_binds_events_and_versions_every_step(self, strategy, script):
        indexed = World(KubeScheduler, strategy)
        reference = World(FullScanScheduler, strategy)
        for op in script + [("advance", 0, 3, 0), ("sync", 0, 0, 0)]:
            indexed.apply(op)
            reference.apply(op)
            assert indexed.snapshot() == reference.snapshot(), op
            indexed.audit_indexes()


class TestWalkBounds:
    def test_saturated_pass_stops_after_first_failure(self, engine, monkeypatch):
        api = KubeApiServer(engine)
        scheduler = KubeScheduler(engine, api)
        for i in range(50):
            api.create(Pod(f"p{i:02d}", PodSpec(IMAGE, ResourceVector(1, 512, 512))))
        engine.run(until=1.0)
        assert all(p.had_event(REASON_FAILED_SCHEDULING) for p in api.pods())
        visited = []
        monkeypatch.setattr(
            scheduler_mod, "is_pending", lambda pod: visited.append(pod) or is_pending(pod)
        )
        node = Node("n1", N1_STANDARD_4)
        node.ready = True
        api.create(node)
        scheduler.sync()
        # Four binds fill the 4-core node; the fifth pod fails, the only
        # live signature is then unplaceable and every pod after it is
        # already recorded, so the pass visits 5 of the 50 pods.
        assert scheduler.binds == 4
        assert [p.name for p in visited] == ["p00", "p01", "p02", "p03", "p04"]

    @pytest.mark.parametrize("strategy", ["least-requested", "binpack"])
    def test_memory_bound_node_is_skipped_not_a_stop(self, engine, strategy):
        # The index is keyed on cores only; a node with the most cores but
        # too little memory must be walked past, not end the search.
        api = KubeApiServer(engine)
        scheduler = KubeScheduler(engine, api, strategy=strategy)
        small = MachineType("small", ResourceVector(2, 8192, 8192))
        wide = MachineType("wide", ResourceVector(8, 1024, 8192))
        for name, mt in (("a-small", small), ("b-wide", wide)):
            node = Node(name, mt)
            node.ready = True
            api.create(node)
        pod = Pod("p", PodSpec(IMAGE, ResourceVector(1, 4096, 512)))
        api.create(pod)
        scheduler.sync()
        assert pod.node is not None and pod.node.name == "a-small"

    @pytest.mark.parametrize("strategy", ["least-requested", "binpack"])
    def test_float_drift_within_epsilon_still_fits(self, engine, strategy):
        # Three 0.2-core pods leave 0.3999999999999999 free cores; a
        # 0.4-core pod still fits within fits_in's epsilon, so the walk
        # must not stop at a key just below the request.
        api = KubeApiServer(engine)
        scheduler = KubeScheduler(engine, api, strategy=strategy)
        node = Node("n1", MachineType("one", ResourceVector(1, 8192, 8192)))
        node.ready = True
        api.create(node)
        for i in range(3):
            api.create(Pod(f"a{i}", PodSpec(IMAGE, ResourceVector(0.2, 1, 1))))
        scheduler.sync()
        assert node.free().cores < 0.4
        pod = Pod("b", PodSpec(IMAGE, ResourceVector(0.4, 1, 1)))
        api.create(pod)
        scheduler.sync()
        assert pod.node is node
