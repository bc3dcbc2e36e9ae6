"""Tests for the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog
from perfbench.iteration import gate, run_once
from perfbench.run import WORKLOAD_NAMES
from perfbench.spans import CALL, EVENT, SpanTracer, layer_of, resolve_owner
from perfbench.workloads import WORKLOADS
from repro.cluster.api import KubeApiServer
from repro.experiments.runner import run_experiment
from repro.metrics.accounting import ResourceAccountant
from repro.sim.engine import Engine, PeriodicTask
from repro.sim.tracing import Sampler
from repro.wq.link import Link

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ self time
def test_nested_span_self_time_subtracts_children():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    outer = tracer.entry(EVENT, "wq.dispatch", "outer")
    inner = tracer.entry(CALL, "cluster.api", "inner")
    innermost = tracer.entry(CALL, "wq.dispatch", "innermost")

    def leaf():
        clock.now += 0.5

    def middle():
        clock.now += 1.0
        tracer.run_span(innermost, leaf, (), {})
        clock.now += 2.0

    def top():
        clock.now += 3.0
        tracer.run_span(inner, middle, (), {})
        clock.now += 4.0

    tracer.run_span(outer, top, (), {})
    self_s = tracer.layer_self_s(window_s=10.5)
    assert self_s["wq.dispatch"] == pytest.approx(3.0 + 4.0 + 0.5)
    assert self_s["cluster.api"] == pytest.approx(1.0 + 2.0)
    # Nothing outside the spans: sim keeps no residual.
    assert self_s["sim"] == pytest.approx(0.0)
    assert list(tracer.span_parent) == [-1, 0, 1]
    assert tracer.durations(EVENT, "outer") == [pytest.approx(10.5)]


def test_time_outside_spans_is_sim_and_layers_sum_to_window():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    entry = tracer.entry(EVENT, "wq.link", "x")
    tracer.run_span(entry, lambda: setattr(clock, "now", clock.now + 2.0), (), {})
    self_s = tracer.layer_self_s(window_s=5.0)
    assert self_s["wq.link"] == pytest.approx(2.0)
    assert self_s["sim"] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(5.0)


def test_span_closes_when_callback_raises():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    entry = tracer.entry(EVENT, "wq.worker", "boom")

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.run_span(entry, boom, (), {})
    assert tracer.layer_self_s(1.0)["wq.worker"] == pytest.approx(1.0)
    assert tracer._stack == []


# --------------------------------------------------- charging callbacks
def test_bound_method_charged_to_defining_class_module():
    link = Link(Engine(), 100.0)
    module, qualname = resolve_owner(link.start_transfer)
    assert module == "repro.wq.link"
    assert layer_of(module) == "wq.link"
    assert qualname.startswith("Link.")


def test_periodic_task_charged_to_owner_of_its_fn():
    engine = Engine()
    sampler = Sampler(engine, 1.0)
    task = PeriodicTask(engine, 1.0, sampler._sample)
    module, qualname = resolve_owner(task._fire)
    assert (layer_of(module), qualname) == ("metrics.sampler", "Sampler._sample")


def test_closure_charged_to_module_it_was_defined_in():
    engine = Engine()
    acc = ResourceAccountant(
        engine, supply=lambda: 1.0, in_use=lambda: 1.0, shortage=lambda: 0.0
    )
    waste_gauge = acc.sampler._gauges["waste"]  # a lambda in accounting.py
    assert layer_of(resolve_owner(waste_gauge)[0]) == "metrics.sampler"
    local = lambda: None  # noqa: E731
    assert layer_of(resolve_owner(local)[0]) == "other"


def test_installed_tracer_charges_events_and_calls_then_restores():
    original_call_at = Engine.call_at
    original_list = KubeApiServer.list
    engine = Engine()
    api = KubeApiServer(engine)
    sampler = Sampler(engine, 1.0)
    sampler.add_gauge("pods", lambda: float(len(api.pods())))
    link = Link(engine, 100.0)
    with SpanTracer() as tracer:
        tracer.active = True
        sampler.start()
        engine.call_in(0.5, link.start_transfer, "input", 1.0)
        engine.run(until=3.0)
        sampler.stop()
    assert Engine.call_at is original_call_at
    assert KubeApiServer.list is original_list
    counts = tracer.counts()
    assert counts[(EVENT, "metrics.sampler")] == 4  # t = 0, 1, 2, 3
    assert counts[(EVENT, "wq.link")] >= 1
    # Each sample calls api.pods(), which calls api.list(): nested calls.
    assert counts[(CALL, "cluster.api")] == 8
    assert len(tracer.durations(EVENT, "Sampler._sample")) == 4


# ------------------------------------------------------------- catalog
def test_catalog_names_units_and_caps():
    assert catalog.catalog_errors() == []
    assert len(catalog.END_TO_END) <= catalog.MAX_END_TO_END
    assert len(catalog.PER_LAYER) <= catalog.MAX_PER_LAYER
    for name in ("host_s", "wq.dispatch.p99_ms", "trace.coverage_frac"):
        assert catalog.NAME_RE.fullmatch(name)
    for bad in ("", "_x", "a b", "a/b", "x" * 65):
        assert not catalog.NAME_RE.fullmatch(bad)


def test_catalog_rejects_duplicates_and_overflow(monkeypatch):
    monkeypatch.setattr(catalog, "PER_LAYER", catalog.PER_LAYER + catalog.PER_LAYER[:1])
    assert any("duplicate" in e for e in catalog.catalog_errors())
    many = tuple(catalog.Metric(f"m{i}", "s", "lower") for i in range(17))
    monkeypatch.setattr(catalog, "END_TO_END", many)
    assert any("end-to-end" in e for e in catalog.catalog_errors())


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert catalog.benchmark_json_errors(spec) == []
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names


# ---------------------------------------------------------------- gate
def test_gate_counts_a_lost_task():
    captured = {}
    graph, spec = WORKLOADS["bag-dispatch"].spec(
        3, lambda stack: captured.setdefault("stack", stack), scale=0.01
    )
    run_experiment(spec)
    master = captured["stack"].master
    assert gate(graph, master) == {"failed": 0, "violations": []}
    master.done.pop()
    verdict = gate(graph, master)
    assert verdict["failed"] == 1
    assert verdict["violations"]


# --------------------------------------------------------------- smoke
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_smoke(name):
    out = run_once(name, seed=5, trace=True, scale=0.02)
    assert out["violations"] == [] and out["failed"] == 0
    assert out["tasks"] > 0 and out["events"] > 0 and out["makespan_s"] > 0
    layers = out["layers"]
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(out["host_s"])
    assert (layers["wq.sharding"]["calls"] > 0) == (name == "bag-sharded")


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bag-dispatch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
