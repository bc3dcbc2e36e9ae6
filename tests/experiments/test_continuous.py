"""Tests for arrival streams and stream runs through ``run_experiment``."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import (
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    WorkflowFailed,
    run_experiment,
)
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.telemetry.explain import decision_events
from repro.telemetry.session import TelemetryConfig
from repro.workloads.arrivals import (
    WorkflowArrival,
    periodic_arrivals,
    poisson_arrivals,
    total_tasks,
)
from repro.workloads.synthetic import uniform_bag


def factory(i: int) -> WorkflowGraph:
    return WorkflowGraph(uniform_bag(8, execute_s=60.0, declared=False, category="job"))


def stack(seed=0):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=6,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
        ),
        seed=seed,
    )


class TestArrivalGenerators:
    def test_periodic_spacing(self):
        arrivals = periodic_arrivals(factory, interval_s=100.0, count=4, start_s=50.0)
        assert [a.time_s for a in arrivals] == [50.0, 150.0, 250.0, 350.0]
        assert [a.index for a in arrivals] == [0, 1, 2, 3]

    def test_poisson_deterministic_per_seed(self):
        a = poisson_arrivals(factory, rng=RngRegistry(5), rate_per_hour=10, horizon_s=3600)
        b = poisson_arrivals(factory, rng=RngRegistry(5), rate_per_hour=10, horizon_s=3600)
        assert [x.time_s for x in a] == [x.time_s for x in b]

    def test_poisson_rate_roughly_respected(self):
        arrivals = poisson_arrivals(
            factory, rng=RngRegistry(1), rate_per_hour=60, horizon_s=10 * 3600
        )
        assert 450 < len(arrivals) < 750  # ~600 expected

    def test_total_tasks(self):
        arrivals = periodic_arrivals(factory, interval_s=10.0, count=3)
        assert total_tasks(arrivals) == 24

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            periodic_arrivals(factory, interval_s=0, count=1)
        with pytest.raises(ValueError):
            periodic_arrivals(factory, interval_s=1, count=0)
        with pytest.raises(ValueError):
            poisson_arrivals(factory, rng=RngRegistry(0), rate_per_hour=0, horizon_s=10)
        with pytest.raises(ValueError):
            WorkflowArrival(-1.0, factory(0), 0)


class TestContinuousHta:
    def test_stream_completes_all_workflows(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=4)
        res = run_experiment(ExperimentSpec(arrivals, policy="hta", stack=stack()))
        assert res.workflows == 4
        assert res.tasks_completed == 32
        assert len(res.workflow_makespans) == 4
        assert res.throughput_tasks_per_hour > 0
        assert "workflows" in res.summary()

    def test_category_stats_carry_across_instances(self):
        """The first workflow pays the probe; later identical workflows
        reuse its category estimate and finish faster."""
        arrivals = periodic_arrivals(factory, interval_s=600.0, count=3)
        res = run_experiment(ExperimentSpec(arrivals, policy="hta", stack=stack()))
        first, *rest = res.workflow_makespans
        assert all(m < first for m in rest)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec([], policy="hta", stack=stack()))


class TestContinuousHpa:
    def test_stream_completes(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=3)
        res = run_experiment(
            ExperimentSpec(
                arrivals, policy="hpa", stack=stack(), options={"target_cpu": 0.2}
            )
        )
        assert res.tasks_completed == 24
        assert res.workflows == 3

    def test_hta_wastes_less_on_streams_too(self):
        def declared_factory(i):
            return WorkflowGraph(uniform_bag(8, execute_s=60.0, declared=True))

        arrivals = lambda: periodic_arrivals(declared_factory, interval_s=300.0, count=4)
        hta = run_experiment(ExperimentSpec(arrivals(), policy="hta", stack=stack()))
        hpa = run_experiment(
            ExperimentSpec(
                arrivals(), policy="hpa", stack=stack(), options={"target_cpu": 0.2}
            )
        )
        assert (
            hta.accounting.accumulated_waste_core_s
            <= hpa.accounting.accumulated_waste_core_s
        )


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "stream_golden.json").read_text()
)


def golden_stream(kind: str):
    if kind == "periodic":
        return periodic_arrivals(factory, interval_s=200.0, count=4)
    return poisson_arrivals(
        factory, rng=RngRegistry(1), rate_per_hour=6, horizon_s=3 * 3600
    )


class TestStreamEquivalence:
    """Streams through ``run_experiment`` reproduce, at seed 1, the
    numbers of the hand-built per-policy stream runners they replaced."""

    @pytest.mark.parametrize("kind", ["periodic", "poisson"])
    @pytest.mark.parametrize(
        "policy, options",
        [("hta", {}), ("queue", {}), ("predictive", {}), ("hpa", {"target_cpu": 0.2})],
    )
    def test_matches_golden(self, kind, policy, options):
        r = run_experiment(
            ExperimentSpec(
                golden_stream(kind), policy=policy, stack=stack(1), options=options
            )
        )
        expected = GOLDEN[f"{kind}/{policy}"]
        assert r.makespan_s == expected["last_finish_s"]
        assert r.workflow_makespans == expected["workflow_makespans"]
        assert r.accounting.accumulated_waste_core_s == expected["waste_core_s"]
        assert r.accounting.accumulated_shortage_core_s == expected["shortage_core_s"]
        assert r.tasks_completed == expected["tasks_completed"]


class TestStreamRuns:
    def test_telemetry_records_hta_decisions_and_extras(self):
        r = run_experiment(
            ExperimentSpec(
                periodic_arrivals(factory, interval_s=200.0, count=3),
                policy="hta",
                stack=stack(),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        decisions = decision_events(r.trace_events)
        assert decisions
        assert len(decisions) >= r.extras["plans"]
        for key in ("init_time_samples", "pods_created", "drains", "degraded_cycles"):
            assert key in r.extras
        assert r.extras["pods_created"] > 0

    def test_permanently_failing_task_raises_workflow_failed(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=2)
        with pytest.raises(WorkflowFailed, match="permanently abandoned"):
            run_experiment(
                ExperimentSpec(
                    arrivals,
                    policy="queue",
                    stack=replace(
                        stack(),
                        faults=FaultProfile(task_failure_prob=1.0, max_retries=0),
                    ),
                )
            )

    def test_tasks_total_sums_every_arrival(self):
        arrivals = periodic_arrivals(factory, interval_s=100.0, count=3)
        r = run_experiment(ExperimentSpec(arrivals, policy="queue", stack=stack()))
        assert r.tasks_total == total_tasks(arrivals) == 24
        assert r.makespan_s == pytest.approx(
            max(a.time_s + m for a, m in zip(arrivals, r.workflow_makespans))
        )
