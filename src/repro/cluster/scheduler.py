"""The kube-scheduler: binds pending pods to nodes.

Runs as a periodic control loop (plus an immediate kick whenever a pod is
added or a node becomes ready, so small experiments aren't dominated by
sync latency). Pods that fit nowhere get a ``FailedScheduling`` event with
an *Insufficient Resource* message — the fig-9 "No Available Node" state
that both the cloud controller and HTA's init-time tracker key off.

A pass reads two indexes the API server keeps exact on every write
(:class:`~repro.cluster.api.PendingPodIndex` and
:class:`~repro.cluster.api.NodeFreeIndex`), so it costs O(binds + new
pods + log nodes) rather than O(pending pods x nodes), with the same
choices, bindings and events as a full scan.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType, is_pending
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, REASON_FAILED_SCHEDULING
from repro.sim.engine import Engine, PeriodicTask
from repro.telemetry.events import NULL_TRACER, Tracer

#: Slack below a request's cores at which the free-cores walk stops;
#: wider than ``fits_in``'s 1e-9 epsilon so rounding never cuts off a
#: node that fits.
_CORES_MARGIN = 1e-6


class KubeScheduler:
    """Indexed scheduler: walks pending pods in creation order and scores
    only the nodes near the front of the free-capacity index.

    ``strategy`` selects the node-scoring policy among candidates that fit:

    * ``"least-requested"`` (default, mirrors kube-scheduler's spreading):
      pick the node with the most free CPU (ties: the largest name);
    * ``"binpack"``: pick the node with the least free CPU (ties: the
      smallest name; used by the ablation benchmarks to show HTA is
      policy-agnostic).
    """

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        *,
        sync_period: float = 1.0,
        strategy: str = "least-requested",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if strategy not in ("least-requested", "binpack"):
            raise ValueError(f"unknown scheduling strategy {strategy!r}")
        self.engine = engine
        self.api = api
        self.strategy = strategy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.binds = 0
        #: (Pod, Node) kind versions as of the end of the last pass. Every
        #: cluster mutation a pass can observe (pod added/bound/phased,
        #: node ready/cordoned/deleted) flows through the API server's
        #: notify and bumps one of the two, so matching versions mean the
        #: pass would repeat the previous one exactly: bind nothing and
        #: re-record nothing (FailedScheduling events are once-per-episode).
        self._synced_state: Optional[tuple] = None
        self._loop = PeriodicTask(engine, sync_period, self.sync, start_after=0.0)
        api.watch("Pod", self._on_pod_event, replay_existing=False)
        api.watch("Node", self._on_node_event, replay_existing=False)

    def stop(self) -> None:
        self._loop.stop()

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        if event.type is WatchEventType.ADDED:
            self.sync()

    def _on_node_event(self, event: WatchEvent) -> None:
        if event.type in (WatchEventType.ADDED, WatchEventType.MODIFIED):
            node = event.obj
            if isinstance(node, Node) and node.ready:
                self.sync()

    # ----------------------------------------------------------------- sync
    def sync(self) -> int:
        """One scheduling pass; returns the number of pods bound."""
        state = (self.api.kind_version("Pod"), self.api.kind_version("Node"))
        if state == self._synced_state:
            return 0  # nothing changed since the last pass; see __init__
        bound = 0
        pending = self.api.pending_index
        order = pending.order
        # Within a pass capacity only shrinks, so once a placement
        # signature finds no seat every later pod carrying it fails too.
        # Once every signature still pending has failed, the rest of the
        # pass can only record FailedScheduling for pods that lack it —
        # the index's ``unrecorded`` subset — so the walk stops there.
        unplaceable: set = set()
        stopped_at: Optional[Pod] = None
        i = 0
        while i < len(order):
            pod = order[i]
            if not is_pending(pod):
                i += 1  # left pending without a write; see PendingPodIndex
                continue
            sig = pod.spec.placement_sig
            if sig in unplaceable:
                # Inline _record_unschedulable's common early-exit (the
                # episode is already recorded).
                if not (
                    pod.events
                    and pod.events[-1].reason == REASON_FAILED_SCHEDULING
                ):
                    self._record_unschedulable(pod)
                i += 1
                continue
            node = self._select_node(pod)
            if node is None:
                unplaceable.add(sig)
                self._record_unschedulable(pod)
                if len(unplaceable) == len(pending.sigs):
                    stopped_at = pod
                    break
                i += 1
                continue
            pod.mark_scheduled(self.engine.now, node)
            node.bind(pod)
            self.api.mark_modified(pod)  # drops the pod from ``order``
            self.binds += 1
            bound += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cluster", "scheduler.bind", pod=pod.name, node=node.name
                )
        if stopped_at is not None:
            for pod in pending.unrecorded_after(stopped_at):
                if is_pending(pod):
                    self._record_unschedulable(pod)
        # Recompute: the pass itself bumps versions (binds, events).
        self._synced_state = (
            self.api.kind_version("Pod"),
            self.api.kind_version("Node"),
        )
        return bound

    @staticmethod
    def _selector_matches(pod: Pod, node: Node) -> bool:
        selector = pod.spec.node_selector
        if not selector:
            return True
        labels = node.meta.labels
        return all(labels.get(k) == v for k, v in selector.items())

    def _select_node(self, pod: Pod) -> Optional[Node]:
        """The best-scoring node that fits ``pod``: the first fit walking
        the ``(free cores, name)`` index from the top (least-requested) or
        upward from the request (binpack) — the max/min a full scan of
        the fitting nodes would pick."""
        request = pod.spec.request
        floor = request.cores - _CORES_MARGIN
        entries = self.api.node_index.entries
        if self.strategy == "least-requested":
            for cores, _, node in reversed(entries):
                if cores < floor:
                    return None
                if self._selector_matches(pod, node) and node.can_fit(request):
                    return node
            return None
        for i in range(bisect_left(entries, (floor,)), len(entries)):
            node = entries[i][2]
            if self._selector_matches(pod, node) and node.can_fit(request):
                return node
        return None

    def _record_unschedulable(self, pod: Pod) -> None:
        if pod.phase is not PodPhase.PENDING:
            return
        # Emit once per pod per unschedulable episode (a fresh event is
        # appended again only after the pod has been scheduled and somehow
        # returned; for our lifecycle, once is exactly right).
        if pod.events and pod.events[-1].reason == REASON_FAILED_SCHEDULING:
            return
        pod.add_event(self.engine.now, REASON_FAILED_SCHEDULING, "Insufficient Resource")
        if self.tracer.enabled:
            self.tracer.emit("cluster", "scheduler.unschedulable", pod=pod.name)
        self.api.mark_modified(pod)
