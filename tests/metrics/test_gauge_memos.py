"""Every memoized accounting gauge equals its from-scratch fold.

The accountant's gauges (worker and shard ``cores_in_use`` /
``supplied_cores``, the foreman's sums, ``ready_nodes``, the
provisioner's ``my_pods``, the operator's ``held_cores``) re-run their
fold only when a revision counter moved. These tests attach a checking
sampler to every stack built during a run — same 1 s cadence as the
accountant — and compare each memo against a fold written out here from
the raw state, bit for bit, on a small BLAST run under the resilience
fault mix and on chaos soaks with shard crashes, migrations and
integrity faults (quarantine).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.resilience import DEFAULT_PROFILE
from repro.experiments.runner import ExperimentSpec, StackConfig, _Stack, run_experiment
from repro.hta.operator import HtaOperator
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Sampler
from repro.soak import SoakConfig, run_soak
from repro.workloads.blast import blast_multistage
from repro.wq.sharding import Foreman
from repro.wq.task import TaskState
from repro.wq.worker import Worker, WorkerState


def _in_use(worker: Worker) -> float:
    return sum(
        min(run.task.footprint.cores, run.allocation.cores)
        for run in worker.runs.values()
        if run.task.state is TaskState.RUNNING
    )


def _shard_in_use(shard) -> float:
    return sum(_in_use(w) for w in shard.workers.values())


def _shard_supplied(shard) -> float:
    return sum(
        w.capacity.cores
        for w in shard.workers.values()
        if w.state in (WorkerState.READY, WorkerState.DRAINING) and not w.quarantined
    )


class MemoChecker:
    """Collects the run's memo owners and audits them at each sample."""

    def __init__(self) -> None:
        self.created: Dict[type, List[object]] = {
            Worker: [],
            HtaOperator: [],
            WorkerProvisioner: [],
        }
        self.samples = 0

    @contextmanager
    def installed(self):
        with pytest.MonkeyPatch.context() as mp:
            for cls, seen in self.created.items():
                mp.setattr(cls, "__init__", _recording(cls.__init__, seen))
            mp.setattr(_Stack, "__enter__", lambda stack: self._entered(stack))
            yield self

    def _entered(self, stack: _Stack) -> _Stack:
        sampler = Sampler(stack.engine, 1.0)
        sampler.add_gauge("memo_check", lambda: self.check(stack))
        sampler.start()
        return stack

    def check(self, stack: _Stack) -> float:
        self.samples += 1
        for worker in self.created[Worker]:
            assert worker.cores_in_use() == _in_use(worker), worker
        master = stack.master
        shards = master.shards if isinstance(master, Foreman) else [master]
        for shard in shards:
            assert shard.cores_in_use() == _shard_in_use(shard), shard.name
            assert shard.supplied_cores() == _shard_supplied(shard), shard.name
        if isinstance(master, Foreman):
            live = [s for s in shards if s.available]
            assert master.cores_in_use() == sum(_shard_in_use(s) for s in live)
            assert master.supplied_cores() == sum(_shard_supplied(s) for s in live)
        api = stack.cluster.api
        ready = [n for n in api.nodes() if n.ready and not n.deleted]
        assert _same(api.ready_nodes(), ready)
        for provisioner in self.created[WorkerProvisioner]:
            mine = [
                p
                for p in api.pods({"app": provisioner.app_label})
                if p.name.startswith(provisioner.name_prefix)
            ]
            assert _same(provisioner.my_pods(), mine)
        for operator in self.created[HtaOperator]:
            held = sum(t.footprint.cores for v in operator._held.values() for t in v)
            assert operator.held_cores() == held
        return 0.0


def _recording(init, seen: list):
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    return recording_init


def _same(got: list, want: list) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_memos_match_folds_on_a_small_blast_run_with_resilience_faults(seed):
    graph = blast_multistage(
        (12, 2, 10), execute_s=300.0, rng=RngRegistry(seed), runtime_cv=0.25
    )
    stack = StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=6,
            max_concurrent_reservations=10,
        ),
        seed=seed,
        accounting_period_s=1.0,
        faults=DEFAULT_PROFILE,
    )
    checker = MemoChecker()
    with checker.installed():
        result = run_experiment(
            ExperimentSpec(workload=graph, policy="hta", stack=stack, seed=seed)
        )
    assert result.tasks_completed == result.tasks_total
    assert checker.samples > 100
    assert checker.created[Worker] and checker.created[HtaOperator]


def _check_soak(seed: int, config: SoakConfig) -> None:
    checker = MemoChecker()
    with checker.installed():
        report = run_soak(seed, config)
    assert report.quiesced, report.describe()
    assert checker.samples > 100


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=5060)  # failover deferred past a whole-plane crash
def test_memos_match_folds_under_shard_crash_soaks(seed):
    _check_soak(seed, SoakConfig.from_flags(smoke=True, shard_crash=True))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=2)  # four checkpoints accepted
def test_memos_match_folds_under_migration_soaks(seed):
    _check_soak(seed, SoakConfig.from_flags(smoke=True, migrate=True))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=2)  # a black-hole worker quarantined, then on probation
def test_memos_match_folds_under_integrity_soaks(seed):
    _check_soak(seed, SoakConfig.from_flags(smoke=True, integrity=True))
