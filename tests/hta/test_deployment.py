"""Tests for the master StatefulSet deployment and failover (§V-A)."""

from __future__ import annotations

import pytest

from repro.cluster.chaos import ChaosInjector
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.hta.deployment import MasterDeployment
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.rng import RngRegistry
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.task import Task, TaskState

FOOT = ResourceVector(1, 1024, 512)


@pytest.fixture
def stack(engine):
    cluster = Cluster(
        engine,
        RngRegistry(33),
        ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=6,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
            registry_jitter_cv=0.0,
        ),
    )
    link = Link(engine, 500.0)
    master = Master(
        engine, link, estimator=DeclaredResourceEstimator(), start_available=False
    )
    deployment = MasterDeployment(engine, cluster.api, master)
    runtime = WorkerPodRuntime(engine, cluster.api, cluster.kubelets, master)
    provisioner = WorkerProvisioner(
        engine,
        cluster.api,
        runtime,
        image=ContainerImage("wq-worker", 100.0),
        worker_request=N1_STANDARD_4_RESERVED.allocatable,
    )
    return cluster, master, deployment, provisioner


def bag(n, execute_s=40.0):
    return [Task("c", execute_s=execute_s, footprint=FOOT, declared=FOOT) for _ in range(n)]


class TestDeployment:
    def test_objects_created(self, engine, stack):
        cluster, master, deployment, _ = stack
        assert cluster.api.try_get("StatefulSet", master.name) is not None
        services = cluster.api.list("Service")
        types = {s.service_type for s in services}
        assert types == {"LoadBalancer", "ClusterIP"}

    def test_master_unavailable_until_pod_runs(self, engine, stack):
        cluster, master, deployment, _ = stack
        assert not master.available
        engine.run(until=30.0)
        assert master.available
        assert deployment.master_pod.phase is PodPhase.RUNNING

    def test_dispatch_waits_for_master_boot(self, engine, stack):
        cluster, master, deployment, provisioner = stack
        provisioner.create_workers(1)
        tasks = bag(2)
        master.submit_many(tasks)
        assert all(t.state is TaskState.WAITING for t in tasks)
        engine.run(until=200.0)
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_describe_snapshot(self, engine, stack):
        cluster, master, deployment, _ = stack
        engine.run(until=30.0)
        d = deployment.describe()
        assert d["master_available"] is True
        assert d["pod"] == f"{master.name}-0"


class TestFailover:
    def test_master_node_crash_pauses_then_recovers(self, engine, stack):
        cluster, master, deployment, provisioner = stack
        provisioner.create_workers(2)
        tasks = bag(10, execute_s=60.0)
        master.submit_many(tasks)
        engine.run(until=40.0)
        assert master.available

        chaos = ChaosInjector(engine, cluster.api, RngRegistry(1))
        chaos.kill_node(deployment.master_pod.node)
        engine.run(until=45.0)
        assert not master.available
        assert master.counts.outages == 1

        engine.run(until=3000.0)
        assert master.available
        assert all(t.state is TaskState.DONE for t in tasks)
        assert deployment.controller.pods_replaced >= 1

    def test_completions_buffered_during_outage(self, engine, stack):
        cluster, master, deployment, provisioner = stack
        provisioner.create_workers(1)
        tasks = bag(3, execute_s=25.0)
        master.submit_many(tasks)
        engine.run(until=20.0)  # tasks executing on the worker
        assert all(t.state is TaskState.RUNNING for t in tasks)
        # Take the master down without touching the worker's node.
        worker_node = provisioner.running_pods()[0].node
        master_node = deployment.master_pod.node
        assert worker_node is not master_node
        chaos = ChaosInjector(engine, cluster.api, RngRegistry(2))
        chaos.kill_node(master_node)
        # Execution finishes during the ~16 s outage (restart backoff +
        # reschedule + image pull), but results are held at the worker.
        engine.run(until=35.0)
        assert not master.available
        assert any(t.state is not TaskState.DONE for t in tasks)
        engine.run(until=3000.0)
        assert master.available
        assert master.counts.outages == 1
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_workflow_survives_master_restart_without_requeues(self, engine, stack):
        cluster, master, deployment, provisioner = stack
        provisioner.create_workers(2)
        tasks = bag(8, execute_s=50.0)
        master.submit_many(tasks)
        engine.run(until=40.0)
        chaos = ChaosInjector(engine, cluster.api, RngRegistry(3))
        chaos.kill_node(deployment.master_pod.node)
        engine.run(until=4000.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        # Tasks on surviving workers were never requeued: the persistent
        # volume + sticky identity preserved the queue (§V-A's point).
        worker_tasks_requeued = master.counts.tasks_requeued
        assert worker_tasks_requeued <= len(tasks)  # only co-located losses
