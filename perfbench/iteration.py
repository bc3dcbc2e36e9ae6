"""One benchmark iteration, run in a fresh process.

Usage (``run.py`` starts it; it can also be run by hand):

    python3 perfbench/iteration.py --workload bag-dispatch --seed 1 [--trace] [--spans FILE]

Generates the workload's inputs from the seed, runs them through
``run_experiment``, applies the correctness gate and prints one JSON
object with the iteration's raw numbers. A fresh process per iteration
keeps iterations independent: task ids come from a process-wide
counter, so a second run in the same process would see other ids (and,
under the sharded policy, another partitioning).

Timeline of one iteration, host clock:

    start ── inputs generated ── first simulated event ── ExperimentResult
       setup.workload_s    setup.stack_s           host_s
       └──────────── setup_s ────────────┘
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.runner import run_experiment  # noqa: E402
from repro.soak.invariants import (  # noqa: E402
    check_journal_replay,
    check_task_conservation,
)

from perfbench.spans import CALL, EVENT, FirstEventClock, SpanTracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate(graph, master) -> Dict[str, Any]:
    """The correctness gate: every submitted task completes exactly
    once, none is abandoned, and the journal replays to the ledgers."""
    violations = check_task_conservation(graph, master) + check_journal_replay(master)
    done = Counter(t.id for t in master.done if t.speculation_of is None)
    abandoned = {t.id for t in master.abandoned}
    failed = sum(
        1 for t in graph.tasks if done.get(t.id) != 1 or t.id in abandoned
    )
    return {"failed": failed, "violations": [str(v) for v in violations]}


def p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def trace_numbers(tracer: SpanTracer, window_s: float) -> Dict[str, Any]:
    counts = tracer.counts()
    layers: Dict[str, Dict[str, float]] = {}
    for layer, self_s in tracer.layer_self_s(window_s).items():
        events = counts.get((EVENT, layer), 0)
        layers[layer] = {
            "self_s": self_s,
            "events": events,
            "calls": events + counts.get((CALL, layer), 0),
        }
    sched = tracer.durations(CALL, "KubeScheduler.sync")
    dispatch = tracer.durations(EVENT, "DispatchCore._dispatch")
    return {
        "layers": layers,
        "scheduler_passes": len(sched),
        "scheduler_p99_ms": p99(sched) * 1e3,
        "dispatch_passes": len(dispatch),
        "dispatch_p99_ms": p99(dispatch) * 1e3,
        "samples": len(tracer.durations(EVENT, "Sampler._sample")),
    }


def run_once(
    name: str,
    seed: int,
    *,
    trace: bool = False,
    scale: float = 1.0,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one iteration in this process and return its raw numbers."""
    workload = WORKLOADS[name]
    captured: Dict[str, Any] = {}
    out: Dict[str, Any] = {"workload": name, "seed": seed, "traced": trace}

    start = time.perf_counter()
    graph, spec = workload.spec(
        seed, lambda stack: captured.setdefault("stack", stack), scale
    )
    inputs_at = time.perf_counter()
    out["tasks"] = len(graph)
    tracer = SpanTracer() if trace else None
    clock = FirstEventClock(
        on_first=(lambda: setattr(tracer, "active", True)) if tracer else None
    )
    try:
        with contextlib.ExitStack() as patches:
            if tracer is not None:
                patches.enter_context(tracer)
            patches.enter_context(clock)
            result = run_experiment(spec)
            end = time.perf_counter()
    except Exception:  # a run that raises fails every one of its tasks
        traceback.print_exc()
        out.update(failed=len(graph), violations=["run raised; see stderr"])
        return out

    first = clock.first_event_at
    assert first is not None  # run_experiment always drives the engine
    stack = captured["stack"]
    master = stack.master
    extras = result.extras
    goodput = extras["goodput_core_s"]
    out.update(gate(graph, master))
    if result.tasks_completed != result.tasks_total:
        out["violations"].append(
            f"result reports {result.tasks_completed}/{result.tasks_total} tasks"
        )
    out.update(
        setup_s=first - start,
        workload_s=inputs_at - start,
        stack_s=first - inputs_at,
        host_s=end - first,
        peak_rss_mb=peak_rss_mb(),
        makespan_s=result.makespan_s,
        waste_core_s=result.accounting.accumulated_waste_core_s,
        shortage_core_s=result.accounting.accumulated_shortage_core_s,
        events=stack.engine.events_fired,
        nodes_peak=result.nodes_peak,
        retries=result.tasks_requeued,
        goodput_frac=goodput / (goodput + extras["wasted_core_s"]),
        dispatches=sum(1 for r in master.journal.records if r.op == "dispatch"),
        binds=stack.cluster.scheduler.binds,
    )
    if tracer is not None:
        out.update(trace_numbers(tracer, end - first))
        if spans_path is not None:
            tracer.dump(spans_path, f"{name}/{seed}", first)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this file")
    args = parser.parse_args(argv)
    out = run_once(args.workload, args.seed, trace=args.trace, spans_path=args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
