"""The repository benchmark: run one workload for a fixed time, check it,
report every metric.

    python3 perfbench/run.py --workload bag-dispatch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each iteration runs in a fresh process (``iteration.py``): it generates
the workload's inputs from ``--seed``, runs them through
``run_experiment`` and applies the correctness gate. Iterations repeat
until ``--seconds`` is used up; every iteration of a run has the same
inputs, so its modelled numbers must repeat exactly, and the host times
are reported as medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
median traced iteration; the untraced ones give the tracing overhead.
The spans of that iteration are written to ``.perfbench-out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (workload tasks), and ``metrics``. The exit
status is 0 only for a correct run; 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.catalog import (  # noqa: E402
    END_TO_END,
    FAILED_FRAC,
    PER_LAYER,
    benchmark_json_errors,
)
from perfbench.speed import NOMINAL_S, sample_speed  # noqa: E402

WORKLOAD_NAMES = ("bag-dispatch", "scaleup-storm", "blast-chaos", "bag-sharded")
#: Every run must end well inside 180 s.
HARD_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench-out"
MODELLED_KEYS = (
    "makespan_s",
    "waste_core_s",
    "shortage_core_s",
    "events",
    "nodes_peak",
    "retries",
    "goodput_frac",
    "dispatches",
    "binds",
)


def program_missing() -> Optional[str]:
    """Why the program under test cannot be run from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator sources under {ROOT / 'src'}"
    return None


class Iterations:
    """Runs iterations in child processes and keeps their outputs."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.outputs: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        #: Calibration-loop times, sampled before and after each iteration.
        self.calibrations: List[float] = sample_speed()
        self._took: Dict[bool, float] = {}

    def fits(self, traced: bool) -> bool:
        """Would another iteration of this kind end before the deadline?"""
        return time.perf_counter() + self._took.get(traced, 0.0) <= self.deadline

    def run(self, traced: bool, spans: Optional[Path] = None) -> None:
        cmd = [
            sys.executable,
            str(HERE / "iteration.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
        ]
        if traced:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        began = time.perf_counter()
        timeout = max(1.0, self.deadline + HARD_LIMIT_S / 2 - began)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"iteration exceeded {timeout:.0f} s")
            return
        self._took[traced] = max(self._took.get(traced, 0.0), time.perf_counter() - began)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            self.errors.append(f"iteration exited {proc.returncode}")
            return
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["spans_file"] = str(spans) if spans is not None else None
        self.outputs.append(out)
        self.calibrations += sample_speed()

    @property
    def speed_scale(self) -> float:
        """Factor taking this run's host times to the nominal host speed."""
        return NOMINAL_S / statistics.median(self.calibrations)

    def of_kind(self, traced: bool) -> List[Dict[str, Any]]:
        return [o for o in self.outputs if o["traced"] == traced and "host_s" in o]


def run_iterations(workload: str, seed: int, seconds: float, trace: bool) -> Iterations:
    start = time.perf_counter()
    its = Iterations(workload, seed, start + min(seconds, HARD_LIMIT_S / 2))
    OUT_DIR.mkdir(exist_ok=True)
    kinds = (False, True) if trace else (False,)
    n = 0
    while True:
        traced = kinds[n % len(kinds)]
        if n >= len(kinds) and not its.fits(traced):
            break
        spans = OUT_DIR / f"{workload}.{n}.spans.tsv" if traced else None
        its.run(traced, spans)
        n += 1
        if its.errors:
            break
    return its


def check(its: Iterations) -> Tuple[List[str], int, int]:
    """Gate violations over all iterations, plus tasks attempted/failed."""
    problems = list(its.errors)
    attempted = failed = 0
    for out in its.outputs:
        attempted += out["tasks"]
        failed += out["failed"]
        problems += out["violations"]
    complete = [o for o in its.outputs if "host_s" in o]
    for key in MODELLED_KEYS:
        seen = {o[key] for o in complete}
        if len(seen) > 1:
            problems.append(f"{key} differs between iterations: {sorted(seen)}")
    if not complete:
        problems.append("no iteration completed")
    return problems, attempted, failed


def median(outputs: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(o[key] for o in outputs)


def end_to_end(its: Iterations) -> Dict[str, float]:
    runs = its.of_kind(False)
    first = runs[0]
    host_s = median(runs, "host_s") * its.speed_scale
    return {
        "host_s": host_s,
        "sim_per_wall": first["makespan_s"] / host_s,
        "setup_s": median(runs, "setup_s") * its.speed_scale,
        "peak_rss_mb": median(runs, "peak_rss_mb"),
        "makespan_s": first["makespan_s"],
        "waste_core_s": first["waste_core_s"],
        "shortage_core_s": first["shortage_core_s"],
    }


def per_layer(its: Iterations) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics from the median traced iteration."""
    traced = sorted(its.of_kind(True), key=lambda o: o["host_s"])
    rep = traced[(len(traced) - 1) // 2]
    host = rep["host_s"]
    layers = rep["layers"]
    out: Dict[str, float] = {}
    for layer, numbers in layers.items():
        out[f"{layer}.self_s"] = numbers["self_s"]
        out[f"{layer}.events"] = numbers["events"]
        out[f"{layer}.calls"] = numbers["calls"]
    out.update(
        {
            "sim.events": rep["events"],
            "sim.us_per_event": layers["sim"]["self_s"] / rep["events"] * 1e6,
            "setup.workload_s": rep["workload_s"],
            "setup.stack_s": rep["stack_s"],
            "cluster.scheduler.passes": rep["scheduler_passes"],
            "cluster.scheduler.binds_per_pass": rep["binds"] / max(1, rep["scheduler_passes"]),
            "cluster.scheduler.p99_ms": rep["scheduler_p99_ms"],
            "cluster.cloud.nodes_peak": rep["nodes_peak"],
            "wq.dispatch.passes": rep["dispatch_passes"],
            "wq.dispatch.placed_per_pass": rep["dispatches"] / max(1, rep["dispatch_passes"]),
            "wq.dispatch.p99_ms": rep["dispatch_p99_ms"],
            "wq.dispatch.retries": rep["retries"],
            "wq.dispatch.goodput_frac": rep["goodput_frac"],
            "metrics.sampler.samples": rep["samples"],
            "metrics.sampler.us_per_sample": (
                layers["metrics.sampler"]["self_s"] / max(1, rep["samples"]) * 1e6
            ),
            "trace.host_s": host,
            "trace.raw_host_s": median(its.of_kind(False), "host_s"),
            "trace.speed_scale": its.speed_scale,
            "trace.overhead_frac": host / median(its.of_kind(False), "host_s") - 1.0,
            "trace.coverage_frac": 1.0 - layers["other"]["self_s"] / host,
        }
    )
    return {m.name: out[m.name] for m in PER_LAYER}, rep


def keep_spans(its: Iterations, rep: Dict[str, Any]) -> Optional[Path]:
    """Keep the representative iteration's spans; drop the others."""
    kept = None
    for out in its.outputs:
        path = out.get("spans_file")
        if path is None:
            continue
        if out is rep:
            kept = OUT_DIR / f"{its.workload}.spans.tsv"
            os.replace(path, kept)
        elif os.path.exists(path):
            os.remove(path)
    return kept


def report(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[bool, Dict[str, Any]]:
    """Run one workload; print its table. Returns (correct, result)."""
    its = run_iterations(workload, seed, seconds, trace)
    problems, attempted, failed = check(its)
    correct = not problems and failed == 0
    metrics: Dict[str, float] = {}
    spans: Optional[Path] = None
    catalog = PER_LAYER if trace else END_TO_END
    if its.of_kind(False) and (not trace or its.of_kind(True)):
        if trace:
            metrics, rep = per_layer(its)
            spans = keep_spans(its, rep)
        else:
            metrics = end_to_end(its)
    n_untraced, n_traced = len(its.of_kind(False)), len(its.of_kind(True))
    print(
        f"# {workload} seed={seed}: {n_untraced} untraced"
        + (f" + {n_traced} traced" if trace else "")
        + " iterations (batch; one process, one thread; whole workflow at t=0)"
    )
    for kind, runs in (("untraced", its.of_kind(False)), ("traced", its.of_kind(True))):
        if runs:
            times = " ".join(f"{o['host_s']:.3f}" for o in runs)
            print(f"# {kind} raw host_s per iteration: {times}")
    print(
        f"# calibration loop median {statistics.median(its.calibrations):.4f} s "
        f"(nominal {NOMINAL_S} s): host times scaled by {its.speed_scale:.4f}"
    )
    for m in catalog:
        if m.name in metrics:
            print(f"{m.name:34s} {metrics[m.name]:>16.6g} {m.unit}")
    frac = failed / attempted if attempted else 1.0
    print(f"{FAILED_FRAC.name:34s} {frac:>16.6g} {FAILED_FRAC.unit} ({failed}/{attempted} tasks)")
    if trace and metrics:
        covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(
            f"# layer self_s sum {covered:.6f} s of traced host_s "
            f"{metrics['trace.host_s']:.6f} s; spans in {spans}"
        )
    for problem in problems:
        print(f"# GATE: {problem}")
    print(f"# correct: {correct}")
    return correct, {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, unit, _ in catalog
            for value in [metrics.get(name)]
            if value is not None
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = program_missing()
    if missing is not None:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        errors = benchmark_json_errors(json.loads(spec_path.read_text()))
        if errors:
            print("perfbench: " + "; ".join(errors), file=sys.stderr)
            return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        correct, result = report(name, args.seed, args.seconds, bool(args.trace))
        all_correct = all_correct and correct
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
