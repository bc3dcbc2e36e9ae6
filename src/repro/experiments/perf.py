"""Perf — the macro-benchmark sweep over the scaling ladder.

Beyond the paper: measures the *simulator itself*. Runs the named
scenario ladder from :mod:`repro.perf.scenarios` (1k/10k/100k tasks x
100/1k/10k nodes under ``hta``/``hpa``/``predictive``), writes one
result directory per run plus a machine-readable ``BENCH_PERF.json``,
and — when a committed baseline exists — enforces the regression gate
(>20% sim-s/wall-s slowdown or fixed-seed event-count drift fails).

Usage::

    python -m repro.experiments perf                 # full ladder
    python -m repro.experiments perf --smoke         # the 1k and 10k hta rungs
    python -m repro.experiments perf --gate          # + regression gate

``--smoke`` runs ``ladder-1k-100-hta`` and ``ladder-10k-1k-hta`` (the
CI job; about 12 s together on a 2-core VM); the full sweep wall-boxes
each run, so even the 100k-task rung is bounded. Speedups against the
committed pre-optimization capture
(``benchmarks/baselines/PRE_OPTIMIZATION.json``) are folded into the
report when that file is present.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.perf.bench import BenchConfig, run_bench
from repro.perf.gate import check_regression, load_report
from repro.perf.scenarios import LADDER, SMOKE_SCENARIOS, scenario_by_name

#: Repository root (src/repro/experiments/perf.py -> three parents up).
_ROOT = Path(__file__).resolve().parents[3]
BASELINE_PATH = _ROOT / "benchmarks" / "baselines" / "BENCH_PERF_BASELINE.json"
PRE_OPTIMIZATION_PATH = (
    _ROOT / "benchmarks" / "baselines" / "PRE_OPTIMIZATION.json"
)
DEFAULT_OUT_DIR = _ROOT / "benchmarks" / "results"


def main(
    seed: int = 0,
    *,
    smoke: bool = False,
    gate: bool = False,
    out_dir: Optional[str] = None,
    max_wall_s: Optional[float] = None,
) -> str:
    """Run the sweep; returns the rendered table. ``seed`` is accepted
    for CLI uniformity but scenarios pin their own seeds — a benchmark
    that moved its workload between runs would gate nothing."""
    del seed
    scenarios = (
        [scenario_by_name(name) for name in SMOKE_SCENARIOS]
        if smoke
        else list(LADDER)
    )
    config = BenchConfig(
        scenarios=scenarios,
        out_dir=Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR,
        max_wall_s=max_wall_s if max_wall_s is not None else (60.0 if smoke else 120.0),
        reference_path=(
            PRE_OPTIMIZATION_PATH if PRE_OPTIMIZATION_PATH.exists() else None
        ),
    )
    report = run_bench(config)
    out = report.table()
    print(out)
    print(f"\n[BENCH_PERF.json -> {Path(config.out_dir) / 'BENCH_PERF.json'}]")
    if gate:
        if not BASELINE_PATH.exists():
            raise SystemExit(
                f"perf gate requested but no committed baseline at "
                f"{BASELINE_PATH}"
            )
        result = check_regression(
            {m.scenario: m.row() for m in report.runs},
            load_report(BASELINE_PATH),
        )
        print(result.describe())
        if not result.ok:
            raise SystemExit("perf gate failed; see report above")
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
