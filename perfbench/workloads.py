"""The benchmark's four workloads, generated from a seed.

Each is a batch run: one process and one thread, the whole workflow
handed to Makeflow at t=0, no arrival schedule. A workload turns a seed
into the program's inputs — the task graph and the stack configuration
— and nothing else; :func:`run_experiment` does the rest. ``scale``
shrinks the task and node counts together (the tests run each workload
at a tiny scale); the benchmark always runs at scale 1.

Why each exists, and the layer it is meant to stress, is recorded in
``BENCHMARK.json`` and ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.experiments.resilience import DEFAULT_PROFILE as RESILIENCE_FAULTS
from repro.experiments.runner import ExperimentSpec, FaultProfile, StackConfig
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.workloads.blast import blast_multistage
from repro.workloads.synthetic import uniform_bag

#: bag-*: 1-core tasks, ten per node of the cap (one node-sized worker
#: of four slots per node), so the ready queue outruns the slots.
BAG_TASKS = 3_000
BAG_TASKS_PER_NODE = 10
BAG_EXECUTE_S = 120.0

#: scaleup-storm: one 4-core task per n1-standard-4 worker, node cap =
#: task count, so hundreds of nodes turn ready within seconds. Runtimes
#: are identical: with one task per node, a runtime draw decides when
#: HTA's cycles catch idle workers, which swings the modelled waste by
#: 2-5x between seeds. The seed varies the cluster (boot times) instead.
STORM_TASKS = 500
STORM_EXECUTE_S = 240.0
STORM_FOOTPRINT = ResourceVector(cores=4, memory_mb=2048, disk_mb=1024)

#: blast-chaos: the fig-10 workflow (200/34/164) times BLAST_SCALE, on
#: fig 10's 3-core nodes with the cap scaled alike.
BLAST_SCALE = 3
BLAST_EXECUTE_S = 300.0

RUNTIME_CV = 0.25

Capture = Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    """A named input generator plus the policy that runs it."""

    name: str
    policy: str
    build: Callable[[int, float], Tuple[WorkflowGraph, StackConfig]]
    options: Mapping[str, object] = field(default_factory=dict)

    def spec(self, seed: int, capture: Capture, scale: float = 1.0) -> Tuple[WorkflowGraph, ExperimentSpec]:
        """Generate the inputs for ``seed``. ``capture`` receives the
        run's stack once it is built (the only way to reach the master
        that ran the workload, for the correctness gate)."""
        graph, stack = self.build(seed, scale)
        faults = stack.faults if stack.faults is not None else FaultProfile()
        stack = replace(stack, faults=replace(faults, chaos_script=capture))
        return graph, ExperimentSpec(
            workload=graph,
            policy=self.policy,
            name=self.name,
            stack=stack,
            seed=seed,
            options=dict(self.options),
        )


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _bag(seed: int, scale: float) -> Tuple[WorkflowGraph, StackConfig]:
    n = _scaled(BAG_TASKS, scale, BAG_TASKS_PER_NODE)
    tasks = uniform_bag(
        n,
        execute_s=BAG_EXECUTE_S,
        category="bag",
        rng=RngRegistry(seed),
        runtime_cv=RUNTIME_CV,
    )
    stack = StackConfig(
        cluster=ClusterConfig(max_nodes=n // BAG_TASKS_PER_NODE),
        seed=seed,
        accounting_period_s=1.0,
    )
    return WorkflowGraph(tasks), stack


def _storm(seed: int, scale: float) -> Tuple[WorkflowGraph, StackConfig]:
    n = _scaled(STORM_TASKS, scale, 4)
    tasks = uniform_bag(
        n, execute_s=STORM_EXECUTE_S, footprint=STORM_FOOTPRINT, category="storm"
    )
    stack = StackConfig(
        cluster=ClusterConfig(max_nodes=n),
        seed=seed,
        accounting_period_s=5.0,
    )
    return WorkflowGraph(tasks), stack


def _blast(seed: int, scale: float) -> Tuple[WorkflowGraph, StackConfig]:
    k = BLAST_SCALE * scale
    stages = (_scaled(200, k, 2), _scaled(34, k, 1), _scaled(164, k, 2))
    graph = blast_multistage(
        stages,
        execute_s=BLAST_EXECUTE_S,
        declared=False,
        rng=RngRegistry(seed),
        runtime_cv=RUNTIME_CV,
    )
    stack = StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=_scaled(20 * BLAST_SCALE, scale, 3),
            max_concurrent_reservations=10,
        ),
        seed=seed,
        accounting_period_s=1.0,
        faults=RESILIENCE_FAULTS,
    )
    return graph, stack


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bag-dispatch", "hta", _bag),
        Workload("scaleup-storm", "hta", _storm),
        Workload("blast-chaos", "hta", _blast),
        Workload("bag-sharded", "sharded", _bag, {"shards": 4}),
    )
}
