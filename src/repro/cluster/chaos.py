"""Failure injection: node crashes, pod evictions, provisioning faults.

Pods are "disposable object[s] which might fail or restart" (§II-C);
this module makes that concrete for tests and robustness experiments.
A node crash takes every pod on it down with it — worker pods lose their
tasks back to the master's queue, a StatefulSet-wrapped master pod gets
a sticky replacement — and the cloud controller heals the pool. Beyond
pod/node chaos, the injector can open bounded *provisioning fault*
windows: node boot failures (reserved VMs that never join) and image-pull
stalls (a degraded registry multiplying pull times).

All scheduling of failures draws from a named RNG stream, so chaos runs
replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.cluster.api import KubeApiServer
from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.sim.engine import Engine, PeriodicTask
from repro.sim.rng import RngRegistry
from repro.telemetry.events import NULL_TRACER, Tracer
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cloud import CloudController
    from repro.cluster.images import ImageRegistry
    from repro.wq.master import Master


@dataclass(slots=True)
class ChaosCounts:
    """Fault injections fired by one :class:`ChaosInjector`, one field
    per primitive; a registry passed to the injector exports each as
    ``chaos_<field>_total``."""

    nodes_killed: int = 0
    #: Pods lost to evictions and to node kills (every co-located pod).
    pods_killed: int = 0
    boot_failure_windows: int = 0
    pull_stall_windows: int = 0
    master_crashes: int = 0
    api_outage_windows: int = 0
    watch_drop_windows: int = 0
    #: Spot-node reclamations fired (distinct from ``pods_killed`` — a
    #: preemption is a provider reclaim with a grace notice).
    preemptions: int = 0
    partition_windows: int = 0
    #: Checkpoint/restore drains fired against live workers.
    migrations_injected: int = 0
    #: Silent result corruptions planted on running attempts.
    corruptions_injected: int = 0
    #: Workers turned into black holes (fast-fail / fast-fake).
    black_holes_injected: int = 0
    #: Single dispatch shards killed behind a foreman.
    shard_crashes: int = 0


class ChaosInjector:
    """Kills nodes/pods on demand or on a seeded random schedule."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        rng: RngRegistry,
        *,
        cloud: Optional["CloudController"] = None,
        registry: Optional["ImageRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional handles for provisioning-fault injection; chaos that
        #: needs them raises if they were not provided.
        self.cloud = cloud
        self.registry = registry
        self.counts = ChaosCounts()
        if metrics is not None:
            metrics.register_block("chaos", self.counts)
        self._schedules: List[PeriodicTask] = []

    # ------------------------------------------------------------- directed
    def kill_node(self, node: Node) -> List[Pod]:
        """Crash a node: every pod on it fails, then the node vanishes."""
        victims = list(node.active_pods())
        node.ready = False
        node.deleted = True
        for pod in victims:
            self.api.try_delete("Pod", pod.name)
        self.api.try_delete("Node", node.name)
        self.counts.nodes_killed += 1
        self.counts.pods_killed += len(victims)
        self.tracer.emit(
            "cluster", "chaos.node_kill", "chaos",
            node=node.name, pods_lost=len(victims),
        )
        return victims

    def kill_node_named(self, name: str) -> List[Pod]:
        node = self.api.try_get("Node", name)
        if not isinstance(node, Node):
            raise KeyError(f"no such node {name!r}")
        return self.kill_node(node)

    def kill_random_node(self) -> Optional[Node]:
        nodes = self.api.ready_nodes()
        if not nodes:
            return None
        idx = int(self.rng.stream("chaos.node").integers(0, len(nodes)))
        node = nodes[idx]
        self.kill_node(node)
        return node

    def evict_pod(self, pod: Pod) -> None:
        """Delete one pod (voluntary disruption / preemption)."""
        self.api.try_delete("Pod", pod.name)
        self.counts.pods_killed += 1
        self.tracer.emit("cluster", "chaos.pod_evict", "chaos", pod=pod.name)

    def evict_random_pod(self, selector: Optional[dict] = None) -> Optional[Pod]:
        pods = [p for p in self.api.pods(selector) if not p.phase.terminal]
        if not pods:
            return None
        idx = int(self.rng.stream("chaos.pod").integers(0, len(pods)))
        pod = pods[idx]
        self.evict_pod(pod)
        return pod

    # ------------------------------------------------------- spot preemption
    def preempt_node(self, node: Node) -> bool:
        """Fire a provider reclamation notice for one spot node (the
        cloud controller owns the grace window and the eventual kill)."""
        if self.cloud is None:
            raise RuntimeError("ChaosInjector needs a cloud= handle for preemptions")
        if not self.cloud.begin_preemption(node):
            return False
        self.counts.preemptions += 1
        self.tracer.emit("cluster", "chaos.preemption", "chaos", node=node.name)
        return True

    def preempt_random_spot_nodes(self, count: int = 1) -> int:
        """Reclaim up to ``count`` random live spot nodes (seeded draw)."""
        if self.cloud is None:
            raise RuntimeError("ChaosInjector needs a cloud= handle for preemptions")
        preempted = 0
        for _ in range(count):
            candidates = self.cloud.preemptable_spot_nodes()
            if not candidates:
                break
            idx = int(
                self.rng.stream("chaos.preempt").integers(0, len(candidates))
            )
            if self.preempt_node(candidates[idx]):
                preempted += 1
        return preempted

    def schedule_preemption_wave(self, *, at_s: float, count: int = 1) -> None:
        """At ``at_s``, reclaim up to ``count`` spot nodes at once — the
        correlated capacity loss real spot pools exhibit when the
        provider needs machines back."""
        self.engine.call_at(at_s, self.preempt_random_spot_nodes, count)

    # --------------------------------------------------- live-drain migration
    def migrate_random_worker(self, master: "Master", coordinator):
        """Drain a random busy, reachable worker through the
        checkpoint/restore migration protocol (its runs snapshot, ship,
        and resume elsewhere with banked progress). Returns the worker
        struck, or ``None`` if nothing was eligible."""
        candidates = [
            w
            for w in master.connected_workers()
            if w.runs
            and not w.partitioned
            and w.state.value in ("ready", "draining")
        ]
        if not candidates:
            return None
        idx = int(self.rng.stream("chaos.migrate").integers(0, len(candidates)))
        worker = candidates[idx]
        started = coordinator.drain_worker(worker, reason="chaos")
        self.counts.migrations_injected += 1
        self.tracer.emit(
            "cluster", "chaos.migrate", "chaos",
            worker=worker.name, migrations=started,
        )
        return worker

    # ------------------------------------------------------- value faults
    def corrupt_random_result(self, master: "Master"):
        """Silently corrupt the in-flight result of one random running
        attempt: the task keeps executing, but the payload it will
        deliver is damaged — only the master's content-digest check (if
        verification is on) stands between it and COMPLETE. Returns the
        task struck, or ``None`` if nothing was running."""
        candidates = [
            t for t in master.running_tasks() if not t.payload_corrupt
        ]
        if not candidates:
            return None
        idx = int(self.rng.stream("chaos.corrupt").integers(0, len(candidates)))
        task = candidates[idx]
        task.payload_corrupt = True
        self.counts.corruptions_injected += 1
        self.tracer.emit(
            "cluster", "chaos.corrupt", "chaos",
            task_id=task.id, task_category=task.category,
        )
        return task

    def black_hole_random_worker(self, master: "Master", profile=None):
        """Turn one random healthy connected worker into a black hole:
        every task it starts from now on resolves in seconds, as a
        failure or a fake completion per ``profile`` (default
        fast-fail). Returns the worker struck, or ``None``."""
        if profile is None:
            from repro.wq.faults import BlackHoleProfile

            profile = BlackHoleProfile()
        candidates = [
            w
            for w in master.connected_workers()
            if w.black_hole is None
            and not w.quarantined
            and w.state.value in ("ready", "draining")
        ]
        if not candidates:
            return None
        idx = int(self.rng.stream("chaos.blackhole").integers(0, len(candidates)))
        worker = candidates[idx]
        worker.black_hole = profile
        self.counts.black_holes_injected += 1
        self.tracer.emit(
            "cluster", "chaos.black_hole", "chaos",
            worker=worker.name, mode=profile.mode,
        )
        return worker

    def schedule_black_holes(
        self, master: "Master", *, at_s: float, count: int = 1, profile=None
    ) -> None:
        """At ``at_s``, turn up to ``count`` workers into black holes at
        once — the correlated sick-rack storm the health ledger exists
        to survive."""

        def strike() -> None:
            for _ in range(count):
                if self.black_hole_random_worker(master, profile) is None:
                    break

        self.engine.call_at(at_s, strike)

    # ---------------------------------------------------- network partitions
    def begin_partition(
        self,
        master: "Master",
        worker,
        *,
        duration_s: Optional[float] = None,
    ) -> None:
        """Cut the network path between one worker and the master. The
        worker keeps executing (holding finished results); the master
        starts its liveness clock. With ``duration_s`` the link heals
        itself — the worker then rejoins at its next reconnect poll."""
        self.counts.partition_windows += 1
        self.tracer.emit(
            "cluster", "chaos.partition", "chaos",
            worker=worker.name, duration_s=duration_s,
        )
        worker.partition()
        master.worker_unreachable(worker)
        if duration_s is not None:
            self.engine.call_in(duration_s, self.end_partition, worker)

    def end_partition(self, worker) -> None:
        worker.heal()

    def partition_random_worker(
        self, master: "Master", *, duration_s: Optional[float] = None
    ):
        """Partition a random connected worker; returns it (or None)."""
        candidates = [
            w
            for w in master.connected_workers()
            if not w.partitioned
            and w.state.value in ("ready", "draining")
        ]
        if not candidates:
            return None
        idx = int(self.rng.stream("chaos.partition").integers(0, len(candidates)))
        worker = candidates[idx]
        self.begin_partition(master, worker, duration_s=duration_s)
        return worker

    def schedule_partition(
        self,
        master: "Master",
        *,
        at_s: float,
        duration_s: float,
        worker_name: Optional[str] = None,
    ) -> None:
        """At ``at_s``, partition one worker (``worker_name`` or a seeded
        random pick among those connected) for ``duration_s``."""

        def strike() -> None:
            if worker_name is not None:
                worker = master.workers.get(worker_name)
                if worker is not None and not worker.partitioned:
                    self.begin_partition(master, worker, duration_s=duration_s)
                return
            self.partition_random_worker(master, duration_s=duration_s)

        self.engine.call_at(at_s, strike)

    def schedule_partitions(
        self,
        master: "Master",
        mean_interval_s: float,
        *,
        duration_s: float = 45.0,
        start_after: Optional[float] = None,
    ) -> PeriodicTask:
        """Partition a random worker roughly every ``mean_interval_s``
        seconds (exponential gaps, seeded), healing each after
        ``duration_s``."""
        if mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")

        def strike() -> float:
            self.partition_random_worker(master, duration_s=duration_s)
            gap = float(
                self.rng.stream("chaos.partition.schedule").exponential(
                    mean_interval_s
                )
            )
            return max(1.0, gap)

        first = (
            start_after
            if start_after is not None
            else max(
                1.0,
                float(
                    self.rng.stream("chaos.partition.schedule").exponential(
                        mean_interval_s
                    )
                ),
            )
        )
        task = PeriodicTask(
            self.engine, mean_interval_s, strike, start_after=first, use_return_delay=True
        )
        self._schedules.append(task)
        return task

    # ------------------------------------------------ control-plane faults
    def crash_master(
        self, master: "Master", *, restart_delay_s: Optional[float] = 60.0
    ) -> None:
        """Kill the Work Queue master process mid-run; its replacement
        pod comes up ``restart_delay_s`` later and recovers (from the
        journal, or cold — the master's ``replay_journal`` decides)."""
        self.counts.master_crashes += 1
        self.tracer.emit(
            "cluster", "chaos.master_crash", "chaos",
            restart_delay_s=restart_delay_s,
        )
        master.crash(restart_delay_s=restart_delay_s)

    def schedule_master_crash(
        self, master: "Master", *, at_s: float, restart_delay_s: Optional[float] = 60.0
    ) -> None:
        self.engine.call_at(
            at_s, lambda: self.crash_master(master, restart_delay_s=restart_delay_s)
        )

    def crash_shard(
        self, foreman, i: int, *, restart_delay_s: Optional[float] = None
    ) -> None:
        """Kill one dispatch shard behind the foreman. With
        ``restart_delay_s`` the shard's replacement pod comes back (the
        transient case the failover grace must tolerate); without it
        the shard is permanently lost and only the failover coordinator
        can un-strand its work."""
        self.counts.shard_crashes += 1
        self.tracer.emit(
            "cluster", "chaos.shard_crash", "chaos",
            shard=i, restart_delay_s=restart_delay_s,
        )
        foreman.crash_shard(i, restart_delay_s=restart_delay_s)

    def crash_random_shard(
        self, foreman, *, restart_delay_s: Optional[float] = None
    ) -> Optional[int]:
        """Crash a seeded-random live shard; returns its index, or None
        when every shard is already down (nothing left to kill)."""
        candidates = [
            i for i, s in enumerate(foreman.shards) if not s.crashed
        ]
        if not candidates:
            return None
        idx = candidates[
            int(self.rng.stream("chaos.shard").integers(0, len(candidates)))
        ]
        self.crash_shard(foreman, idx, restart_delay_s=restart_delay_s)
        return idx

    def begin_api_outage(self, *, duration_s: Optional[float] = None) -> None:
        """Take the API server's notification plane down; with
        ``duration_s`` the outage ends itself."""
        self.api.begin_outage()
        self.counts.api_outage_windows += 1
        if duration_s is not None:
            self.engine.call_in(duration_s, self.end_api_outage)

    def end_api_outage(self) -> None:
        self.api.end_outage()

    def schedule_api_outage(self, *, at_s: float, duration_s: float) -> None:
        self.engine.call_at(
            at_s, lambda: self.begin_api_outage(duration_s=duration_s)
        )

    def begin_watch_drop(
        self, kind: str = "Pod", *, duration_s: Optional[float] = None
    ) -> None:
        """Silently break one kind's watch streams (events vanish, no
        error — the informer only notices via staleness/resync)."""
        self.api.begin_watch_drop(kind)
        self.counts.watch_drop_windows += 1
        if duration_s is not None:
            self.engine.call_in(duration_s, self.end_watch_drop, kind)

    def end_watch_drop(self, kind: Optional[str] = None) -> None:
        self.api.end_watch_drop(kind)

    def schedule_watch_drop(
        self, *, at_s: float, duration_s: float, kind: str = "Pod"
    ) -> None:
        self.engine.call_at(
            at_s, lambda: self.begin_watch_drop(kind, duration_s=duration_s)
        )

    # ------------------------------------------------- provisioning faults
    def begin_boot_failures(
        self, prob: float, *, duration_s: Optional[float] = None
    ) -> None:
        """Make a fraction of node reservations fail to boot; with
        ``duration_s`` the window closes itself."""
        if self.cloud is None:
            raise RuntimeError("ChaosInjector needs a cloud= handle for boot faults")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0,1], got {prob}")
        self.cloud.boot_failure_prob = prob
        self.counts.boot_failure_windows += 1
        self.tracer.emit(
            "cluster", "chaos.boot_failures.begin", "chaos", prob=prob
        )
        if duration_s is not None:
            self.engine.call_in(duration_s, self.end_boot_failures)

    def end_boot_failures(self) -> None:
        if self.cloud is not None:
            self.cloud.boot_failure_prob = self.cloud.config.boot_failure_prob

    def begin_image_pull_stall(
        self, factor: float, *, duration_s: Optional[float] = None
    ) -> None:
        """Multiply image-pull durations by ``factor`` (degraded
        registry); with ``duration_s`` the stall clears itself."""
        if self.registry is None:
            raise RuntimeError(
                "ChaosInjector needs a registry= handle for pull stalls"
            )
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.registry.stall_factor = factor
        self.counts.pull_stall_windows += 1
        self.tracer.emit(
            "cluster", "chaos.pull_stall.begin", "chaos", factor=factor
        )
        if duration_s is not None:
            self.engine.call_in(duration_s, self.end_image_pull_stall)

    def end_image_pull_stall(self) -> None:
        if self.registry is not None:
            self.registry.stall_factor = 1.0

    # ------------------------------------------------------------ scheduled
    def schedule_node_failures(
        self,
        mean_interval_s: float,
        *,
        start_after: Optional[float] = None,
        predicate: Optional[Callable[[Node], bool]] = None,
    ) -> PeriodicTask:
        """Crash a random (predicate-matching) node roughly every
        ``mean_interval_s`` seconds (exponential gaps, seeded)."""
        if mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")

        def strike() -> float:
            nodes = [
                n
                for n in self.api.ready_nodes()
                if predicate is None or predicate(n)
            ]
            if nodes:
                idx = int(self.rng.stream("chaos.node").integers(0, len(nodes)))
                self.kill_node(nodes[idx])
            gap = float(
                self.rng.stream("chaos.schedule").exponential(mean_interval_s)
            )
            return max(1.0, gap)

        first = (
            start_after
            if start_after is not None
            else max(1.0, float(self.rng.stream("chaos.schedule").exponential(mean_interval_s)))
        )
        task = PeriodicTask(
            self.engine, mean_interval_s, strike, start_after=first, use_return_delay=True
        )
        self._schedules.append(task)
        return task

    def schedule_pod_evictions(
        self,
        mean_interval_s: float,
        *,
        start_after: Optional[float] = None,
        selector: Optional[dict] = None,
    ) -> PeriodicTask:
        """Evict a random (selector-matching) pod roughly every
        ``mean_interval_s`` seconds (exponential gaps, seeded) — the
        pod-level mirror of :meth:`schedule_node_failures`."""
        if mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")

        def strike() -> float:
            self.evict_random_pod(selector)
            gap = float(
                self.rng.stream("chaos.pod.schedule").exponential(mean_interval_s)
            )
            return max(1.0, gap)

        first = (
            start_after
            if start_after is not None
            else max(
                1.0,
                float(
                    self.rng.stream("chaos.pod.schedule").exponential(mean_interval_s)
                ),
            )
        )
        task = PeriodicTask(
            self.engine, mean_interval_s, strike, start_after=first, use_return_delay=True
        )
        self._schedules.append(task)
        return task

    def stop(self) -> None:
        for task in self._schedules:
            task.stop()
        self._schedules.clear()
