"""Tests for the StatefulSet controller and chaos injection."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.chaos import ChaosInjector
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.objects import StatefulSet
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.statefulset import StatefulSetController
from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry


TEMPLATE = PodSpec(ContainerImage("master", 100), ResourceVector(1, 2048, 2048), labels={"app": "m"})


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def add_node(api, name="n1"):
    node = Node(name, N1_STANDARD_4)
    node.ready = True
    api.create(node)
    return node


class TestStatefulSetController:
    def test_creates_ordinal_pods(self, engine, api):
        ctl = StatefulSetController(engine, api)
        api.create(StatefulSet("master", replicas=2, template=TEMPLATE))
        engine.run(until=1.0)
        names = {p.name for p in api.pods()}
        assert names == {"master-0", "master-1"}
        assert ctl.pods_created == 2

    def test_no_template_no_pods(self, engine, api):
        StatefulSetController(engine, api)
        api.create(StatefulSet("empty", replicas=1))
        engine.run(until=1.0)
        assert api.pods() == []

    def test_pods_carry_statefulset_label(self, engine, api):
        StatefulSetController(engine, api)
        api.create(StatefulSet("master", replicas=1, template=TEMPLATE))
        engine.run(until=1.0)
        pod = api.get("Pod", "master-0")
        assert pod.meta.labels["statefulset"] == "master"
        assert pod.meta.labels["app"] == "m"

    def test_sticky_replacement_after_deletion(self, engine, api):
        ctl = StatefulSetController(engine, api)
        api.create(StatefulSet("master", replicas=1, template=TEMPLATE))
        engine.run(until=1.0)
        api.delete("Pod", "master-0")
        engine.run(until=1.0 + StatefulSetController.RESTART_BACKOFF_S + 2.0)
        replacement = api.try_get("Pod", "master-0")
        assert replacement is not None
        assert replacement.phase is PodPhase.PENDING  # new incarnation
        assert ctl.pods_replaced == 1

    def test_replacement_waits_for_backoff(self, engine, api):
        StatefulSetController(engine, api)
        api.create(StatefulSet("master", replicas=1, template=TEMPLATE))
        engine.run(until=1.0)
        api.delete("Pod", "master-0")
        engine.run(until=5.0)  # inside the 10 s backoff
        assert api.try_get("Pod", "master-0") is None

    def test_failed_pod_replaced(self, engine, api):
        ctl = StatefulSetController(engine, api)
        node = add_node(api)
        api.create(StatefulSet("master", replicas=1, template=TEMPLATE))
        engine.run(until=1.0)
        pod = api.get("Pod", "master-0")
        pod.mark_scheduled(engine.now, node)
        node.bind(pod)
        pod.mark_running(engine.now)
        pod.mark_finished(engine.now, succeeded=False)
        api.mark_modified(pod)
        engine.run(until=20.0)
        fresh = api.get("Pod", "master-0")
        assert fresh is not pod
        assert ctl.pods_replaced == 1

    def test_ready_replicas_tracked(self, engine, api):
        ctl = StatefulSetController(engine, api)
        node = add_node(api)
        sset = StatefulSet("master", replicas=1, template=TEMPLATE)
        api.create(sset)
        engine.run(until=1.0)
        pod = api.get("Pod", "master-0")
        pod.mark_scheduled(engine.now, node)
        node.bind(pod)
        pod.mark_running(engine.now)
        api.mark_modified(pod)
        engine.run(until=2.0)
        assert sset.ready_replicas == 1

    def test_deleted_set_not_reconciled(self, engine, api):
        StatefulSetController(engine, api)
        sset = StatefulSet("master", replicas=1, template=TEMPLATE)
        api.create(sset)
        engine.run(until=1.0)
        api.delete("StatefulSet", "master")
        api.delete("Pod", "master-0")
        engine.run(until=30.0)
        assert api.try_get("Pod", "master-0") is None


class TestChaos:
    @pytest.fixture
    def cluster(self, engine, rng):
        return Cluster(
            engine,
            rng,
            ClusterConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=3,
                max_nodes=5,
                node_reservation_mean_s=60.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )

    def test_kill_node_fails_its_pods(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        pod = Pod("p", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)))
        cluster.api.create(pod)
        engine.run(until=30.0)
        assert pod.phase is PodPhase.RUNNING
        victims = chaos.kill_node(pod.node)
        assert pod in victims
        assert pod.phase is PodPhase.FAILED
        assert chaos.counts.nodes_killed == 1

    def test_min_pool_heals_after_crash(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        chaos.kill_random_node()
        assert cluster.node_count() == 2
        engine.run(until=120.0)
        assert cluster.node_count() == 3  # cloud controller healed

    def test_kill_node_named_unknown_raises(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        with pytest.raises(KeyError):
            chaos.kill_node_named("nope")

    def test_evict_random_pod_with_selector(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        a = Pod("a", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512), labels={"app": "x"}))
        b = Pod("b", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512), labels={"app": "y"}))
        cluster.api.create(a)
        cluster.api.create(b)
        engine.run(until=30.0)
        victim = chaos.evict_random_pod({"app": "x"})
        assert victim is a
        assert b.phase is PodPhase.RUNNING

    def test_scheduled_failures_are_deterministic(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        chaos.schedule_node_failures(100.0, start_after=50.0)
        engine.run(until=400.0)
        killed_first = chaos.counts.nodes_killed
        assert killed_first >= 1
        chaos.stop()
        before = chaos.counts.nodes_killed
        engine.run(until=1000.0)
        assert chaos.counts.nodes_killed == before  # stop() halts the schedule

    def test_invalid_interval_rejected(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        with pytest.raises(ValueError):
            chaos.schedule_node_failures(0.0)

    def test_kill_node_counts_pod_victims(self, engine, rng, cluster):
        """`kill_node` must add every co-located pod to `pods_killed`."""
        chaos = ChaosInjector(engine, cluster.api, rng)
        pods = [
            Pod(f"p{i}", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)))
            for i in range(3)
        ]
        for p in pods:
            cluster.api.create(p)
        engine.run(until=30.0)
        node = pods[0].node
        victims = chaos.kill_node(node)
        assert chaos.counts.pods_killed == len(victims)
        assert chaos.counts.nodes_killed == 1

    def test_evict_pod_counts(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        pod = Pod("p", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)))
        cluster.api.create(pod)
        engine.run(until=30.0)
        chaos.evict_pod(pod)
        assert chaos.counts.pods_killed == 1
        assert chaos.counts.nodes_killed == 0


class TestScheduledPodEvictions:
    @pytest.fixture
    def cluster(self, engine, rng):
        return Cluster(
            engine,
            rng,
            ClusterConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=3,
                max_nodes=5,
                node_reservation_mean_s=60.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )

    def make_pods(self, engine, cluster, n=4, app="w"):
        pods = [
            Pod(
                f"{app}{i}",
                PodSpec(
                    ContainerImage("i", 10),
                    ResourceVector(1, 512, 512),
                    labels={"app": app},
                ),
            )
            for i in range(n)
        ]
        for p in pods:
            cluster.api.create(p)
        engine.run(until=30.0)
        return pods

    def test_evictions_fire_and_stop(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        self.make_pods(engine, cluster, n=4)
        chaos.schedule_pod_evictions(60.0, start_after=40.0)
        engine.run(until=400.0)
        assert chaos.counts.pods_killed >= 1
        chaos.stop()
        before = chaos.counts.pods_killed
        engine.run(until=1000.0)
        assert chaos.counts.pods_killed == before

    def test_selector_limits_victims(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        workers = self.make_pods(engine, cluster, n=3, app="w")
        protected = self.make_pods(engine, cluster, n=2, app="m")
        chaos.schedule_pod_evictions(50.0, start_after=35.0, selector={"app": "w"})
        engine.run(until=600.0)
        assert chaos.counts.pods_killed >= 1
        assert all(p.phase is PodPhase.RUNNING for p in protected)
        assert any(p.phase.terminal for p in workers)

    def test_same_seed_same_schedule(self, engine, rng, cluster):
        """Two injectors over identical pod sets draw identical gaps."""

        def run_once(seed):
            from repro.sim.engine import Engine

            eng = Engine()
            reg = RngRegistry(seed)
            clu = Cluster(
                eng,
                reg,
                ClusterConfig(
                    machine_type=N1_STANDARD_4,
                    min_nodes=3,
                    max_nodes=5,
                    node_reservation_mean_s=60.0,
                    node_reservation_std_s=0.0,
                    registry_jitter_cv=0.0,
                ),
            )
            pods = [
                Pod(
                    f"w{i}",
                    PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)),
                )
                for i in range(4)
            ]
            for p in pods:
                clu.api.create(p)
            eng.run(until=30.0)
            chaos = ChaosInjector(eng, clu.api, reg)
            chaos.schedule_pod_evictions(60.0, start_after=40.0)
            eng.run(until=500.0)
            return chaos.counts.pods_killed, sorted(
                p.name for p in pods if p.phase.terminal
            )

        assert run_once(7) == run_once(7)

    def test_invalid_interval_rejected(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        with pytest.raises(ValueError):
            chaos.schedule_pod_evictions(-5.0)


class TestProvisioningFaultWindows:
    @pytest.fixture
    def cluster(self, engine, rng):
        return Cluster(
            engine,
            rng,
            ClusterConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=2,
                max_nodes=4,
                node_reservation_mean_s=60.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )

    def test_boot_failure_window_auto_restores(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng, cloud=cluster.cloud)
        chaos.begin_boot_failures(1.0, duration_s=100.0)
        assert cluster.cloud.boot_failure_prob == 1.0
        assert chaos.counts.boot_failure_windows == 1
        engine.run(until=150.0)
        assert cluster.cloud.boot_failure_prob == cluster.cloud.config.boot_failure_prob

    def test_boot_faults_require_cloud_handle(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        with pytest.raises(RuntimeError):
            chaos.begin_boot_failures(0.5)

    def test_boot_failure_prob_validated(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng, cloud=cluster.cloud)
        with pytest.raises(ValueError):
            chaos.begin_boot_failures(1.5)

    def test_pull_stall_window_auto_restores(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng, registry=cluster.registry)
        chaos.begin_image_pull_stall(3.0, duration_s=50.0)
        assert cluster.registry.stall_factor == 3.0
        assert chaos.counts.pull_stall_windows == 1
        engine.run(until=80.0)
        assert cluster.registry.stall_factor == 1.0

    def test_pull_stalls_require_registry_handle(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng)
        with pytest.raises(RuntimeError):
            chaos.begin_image_pull_stall(2.0)

    def test_pull_stall_factor_validated(self, engine, rng, cluster):
        chaos = ChaosInjector(engine, cluster.api, rng, registry=cluster.registry)
        with pytest.raises(ValueError):
            chaos.begin_image_pull_stall(0.5)


class TestMasterFailoverUnderChaos:
    """Satellite: kill the master's node mid-workload; the StatefulSet's
    sticky replacement must resume the queue and the workload must finish."""

    def make_stack(self, engine):
        from repro.cluster.node import N1_STANDARD_4_RESERVED
        from repro.hta.deployment import MasterDeployment
        from repro.hta.provisioner import WorkerProvisioner
        from repro.wq.estimator import DeclaredResourceEstimator
        from repro.wq.link import Link
        from repro.wq.master import Master
        from repro.wq.runtime import WorkerPodRuntime
        from repro.wq.task import Task

        cluster = Cluster(
            engine,
            RngRegistry(44),
            ClusterConfig(
                machine_type=N1_STANDARD_4_RESERVED,
                min_nodes=3,
                max_nodes=6,
                node_reservation_mean_s=80.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )
        master = Master(
            engine,
            Link(engine, 500.0),
            estimator=DeclaredResourceEstimator(),
            start_available=False,
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
        foot = ResourceVector(1, 1024, 512)
        tasks = [
            Task("c", execute_s=60.0, footprint=foot, declared=foot) for _ in range(10)
        ]
        return cluster, master, deployment, provisioner, tasks

    def test_chaos_kill_of_master_node_resumes_workload(self, engine):
        from repro.wq.task import TaskState

        cluster, master, deployment, provisioner, tasks = self.make_stack(engine)
        provisioner.create_workers(2)
        master.submit_many(tasks)
        engine.run(until=40.0)
        assert master.available
        running_before = master.stats().running
        assert running_before > 0  # genuinely mid-workload

        chaos = ChaosInjector(engine, cluster.api, RngRegistry(45))
        victims = chaos.kill_node(deployment.master_pod.node)
        assert chaos.counts.pods_killed == len(victims) >= 1
        engine.run(until=45.0)
        assert not master.available
        assert master.counts.outages == 1

        engine.run(until=4000.0)
        # Sticky replacement came back under the same ordinal identity...
        assert master.available
        assert deployment.controller.pods_replaced >= 1
        assert deployment.master_pod.name == f"{master.name}-0"
        # ...and the workload ran to completion.
        assert all(t.state is TaskState.DONE for t in tasks)
        assert master.all_done
