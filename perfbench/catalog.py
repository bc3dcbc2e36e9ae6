"""Every metric the benchmark reports: name, unit and direction.

``BENCHMARK.json`` at the repository root must list exactly these, in
this order; ``run.py`` refuses to run when the two disagree, and the
tests check the names and caps below.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, NamedTuple, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


#: What a user of the simulator sees, measured with tracing off. Host
#: times are real seconds on the machine; the modelled metrics are
#: simulated and identical on every run of a seed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("host_s", "s", "lower"),
    Metric("sim_per_wall", "sim_s/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("makespan_s", "sim_s", "lower"),
    Metric("waste_core_s", "core_s", "lower"),
    Metric("shortage_core_s", "core_s", "lower"),
)

#: ``failed_frac`` is reported as the result's ``failed``/``attempted``
#: pair and printed in the table, not as a metric: it is 0 on a correct
#: run, and a benchmark metric must never read 0.
FAILED_FRAC = Metric("failed_frac", "ratio", "lower")


def _layer(layer: str, *metrics: Tuple[str, str, str]) -> Tuple[Metric, ...]:
    return tuple(Metric(f"{layer}.{name}", unit, better) for name, unit, better in metrics)


_SELF = ("self_s", "s", "lower")
_EVENTS = ("events", "count", "lower")
_CALLS = ("calls", "count", "lower")

#: One traced run's split of host time by layer (module), plus the
#: counts that say how much work each layer did.
PER_LAYER: Tuple[Metric, ...] = (
    *_layer("sim", ("events", "count", "lower"), ("us_per_event", "us", "lower"), _SELF),
    *_layer("setup", ("workload_s", "s", "lower"), ("stack_s", "s", "lower")),
    *_layer(
        "cluster.scheduler",
        ("passes", "count", "lower"),
        ("binds_per_pass", "ratio", "higher"),
        _SELF,
        ("p99_ms", "ms", "lower"),
    ),
    *_layer("cluster.api", _CALLS, _SELF),
    *_layer("cluster.cloud", _EVENTS, _SELF, ("nodes_peak", "count", "lower")),
    *_layer("cluster.kubelet", _EVENTS, _SELF),
    *_layer("cluster.informer", _EVENTS, _SELF),
    *_layer("cluster.metrics_server", _EVENTS, _SELF),
    *_layer(
        "wq.dispatch",
        ("passes", "count", "lower"),
        ("placed_per_pass", "ratio", "higher"),
        _SELF,
        ("p99_ms", "ms", "lower"),
        ("retries", "count", "lower"),
        ("goodput_frac", "ratio", "higher"),
    ),
    *_layer("wq.worker", _EVENTS, _SELF),
    *_layer("wq.link", _EVENTS, _SELF),
    *_layer("wq.runtime", _EVENTS, _SELF),
    *_layer("wq.sharding", _CALLS, _SELF),
    *_layer("hta.operator", _CALLS, _SELF),
    *_layer("hta.estimator", _CALLS, _SELF),
    *_layer("hta.provisioner", _CALLS, _SELF),
    *_layer("makeflow", _CALLS, _SELF),
    *_layer(
        "metrics.sampler",
        ("samples", "count", "lower"),
        ("us_per_sample", "us", "lower"),
        _SELF,
    ),
    *_layer("other", _SELF),
    *_layer(
        "trace",
        ("host_s", "s", "lower"),
        ("raw_host_s", "s", "lower"),
        ("speed_scale", "ratio", "higher"),
        ("overhead_frac", "ratio", "lower"),
        ("coverage_frac", "ratio", "higher"),
    ),
)


def catalog_errors() -> List[str]:
    """Names or units outside the allowed pattern, duplicates, caps."""
    errors: List[str] = []
    metrics = END_TO_END + (FAILED_FRAC,) + PER_LAYER
    for m in metrics:
        if not NAME_RE.fullmatch(m.name):
            errors.append(f"bad metric name {m.name!r}")
        if not UNIT_RE.fullmatch(m.unit):
            errors.append(f"bad unit {m.unit!r} on {m.name}")
        if m.better not in ("lower", "higher"):
            errors.append(f"bad direction {m.better!r} on {m.name}")
    names = [m.name for m in metrics]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        errors.append(f"duplicate metric names {dupes}")
    if not 1 <= len(END_TO_END) <= MAX_END_TO_END:
        errors.append(f"{len(END_TO_END)} end-to-end metrics (1..{MAX_END_TO_END})")
    if not 1 <= len(PER_LAYER) <= MAX_PER_LAYER:
        errors.append(f"{len(PER_LAYER)} per-layer metrics (1..{MAX_PER_LAYER})")
    return errors


def benchmark_json_errors(spec: Dict[str, Any]) -> List[str]:
    """Disagreements between a parsed ``BENCHMARK.json`` and the catalog."""
    errors: List[str] = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m.get("name"), m.get("unit"), m.get("better")) for m in spec.get(key, [])]
        if theirs != [tuple(m) for m in ours]:
            errors.append(f"BENCHMARK.json {key} does not match perfbench/catalog.py")
    for m in spec.get("end_to_end", []):
        if not 0 < m.get("bound", 0) <= 0.25:
            errors.append(f"bound of {m.get('name')} outside (0, 0.25]")
    return errors
