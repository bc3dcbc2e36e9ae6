"""Counter blocks, on one telemetry-on run of the 4-shard plane with
chaos armed (node crashes, task failures, a permanent shard loss that
failover re-homes): the export carries every field of every block, the
foreman sums its shards, and no owner keeps an alias of a field."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import ExperimentSpec, run_experiment
from repro.cluster.cluster import ClusterConfig
from repro.experiments.runner import FaultProfile, StackConfig
from repro.sim.rng import RngRegistry
from repro.telemetry import TelemetryConfig, parse_prometheus_text, prometheus_text
from repro.wq.dispatch import DispatchCounts
from repro.workloads.synthetic import uniform_bag


@pytest.fixture(scope="module")
def stack():
    captured = {}
    faults = FaultProfile(
        task_failure_prob=0.1,
        node_crash_interval_s=300.0,
        chaos_script=lambda s: captured.setdefault("stack", s),
    )
    result = run_experiment(
        ExperimentSpec(
            uniform_bag(120, execute_s=60.0, rng=RngRegistry(3)),
            policy="sharded",
            stack=StackConfig(cluster=ClusterConfig(max_nodes=12), faults=faults),
            telemetry=TelemetryConfig(enabled=True),
            options={"shards": 4, "failover": True, "shard_crash_at_s": 250.0},
            seed=3,
        )
    )
    stack = captured["stack"]
    assert result.tasks_completed == result.tasks_total
    assert stack.master.counts.tasks_failed and stack.chaos.counts.nodes_killed
    assert stack.failover.counts.failovers == stack.chaos.counts.shard_crashes == 1
    return stack


def owners(stack):
    """``(owner, export prefix, owner labels)`` for every block of the run."""
    out = [(shard, "wq", {"shard": shard.name}) for shard in stack.master.shards]
    out.append((stack.chaos, "chaos", {}))
    out.append((stack.failover, "shard", {}))
    out.append((stack.cluster.api, "api", {}))
    return out


def test_every_field_of_every_block_is_exported_with_its_owners_value(stack):
    parsed = parse_prometheus_text(prometheus_text(stack.metrics))
    for owner, prefix, labels in owners(stack):
        key = tuple(sorted(labels.items()))
        for f in fields(owner.counts):
            name = f"{prefix}_{f.name}_total"
            assert parsed[(name, key)] == getattr(owner.counts, f.name), name


def test_foreman_counts_are_the_sum_of_the_shard_series(stack):
    parsed = parse_prometheus_text(prometheus_text(stack.metrics))
    foreman = stack.master
    assert len(foreman.shards) == 4
    shard_labels = [(("shard", s.name),) for s in foreman.shards]
    for f in fields(DispatchCounts):
        name = f"wq_{f.name}_total"
        assert {k for n, k in parsed if n == name} == set(shard_labels), name
        series = [parsed[(name, key)] for key in shard_labels]
        assert getattr(foreman.counts, f.name) == sum(series), name


def test_no_owner_keeps_a_public_alias_of_a_block_field(stack):
    for owner in (stack.master, *[o for o, _p, _l in owners(stack)]):
        public = {n for n in dir(owner) if not n.startswith("_")}
        aliases = public & {f.name for f in fields(owner.counts)}
        assert not aliases, (type(owner).__name__, sorted(aliases))
