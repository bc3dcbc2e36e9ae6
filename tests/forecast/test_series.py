"""Tests for the bounded demand time series and the master sampler."""

from __future__ import annotations

import math

import pytest

from repro.forecast.series import DemandSample, DemandSeries, MasterDemandSampler
from repro.sim.engine import Engine
from repro.wq.dispatch import DispatchCounts


class TestDemandSeries:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            DemandSeries(max_samples=0)

    def test_rejects_non_finite_samples(self):
        s = DemandSeries()
        with pytest.raises(ValueError):
            s.observe(math.nan, 1.0)
        with pytest.raises(ValueError):
            s.observe(1.0, math.inf)

    def test_rejects_time_regression(self):
        s = DemandSeries()
        s.observe(10.0, 1.0)
        with pytest.raises(ValueError):
            s.observe(9.0, 2.0)

    def test_same_instant_supersedes(self):
        s = DemandSeries()
        s.observe(5.0, 1.0)
        s.observe(5.0, 7.0)
        assert len(s) == 1
        assert s.latest == (5.0, 7.0)

    def test_value_at_is_right_continuous_step(self):
        s = DemandSeries()
        s.observe(10.0, 2.0)
        s.observe(20.0, 5.0)
        assert s.value_at(9.9) == 0.0  # before retained history
        assert s.value_at(10.0) == 2.0
        assert s.value_at(19.9) == 2.0
        assert s.value_at(20.0) == 5.0
        assert s.value_at(1e9) == 5.0

    def test_integrate_exact_over_steps(self):
        s = DemandSeries()
        s.observe(0.0, 2.0)
        s.observe(10.0, 4.0)
        # [0,10) at 2.0 plus [10,15] at 4.0.
        assert s.integrate(0.0, 15.0) == pytest.approx(2.0 * 10 + 4.0 * 5)
        assert s.mean_over(0.0, 10.0) == pytest.approx(2.0)

    def test_integrate_additive_and_degenerate(self):
        s = DemandSeries()
        s.observe(0.0, 3.0)
        s.observe(7.0, 1.0)
        whole = s.integrate(0.0, 20.0)
        split = s.integrate(0.0, 7.0) + s.integrate(7.0, 20.0)
        assert whole == pytest.approx(split)
        assert s.integrate(5.0, 5.0) == 0.0
        assert s.integrate(6.0, 4.0) == 0.0

    def test_bound_drops_oldest_and_counts(self):
        s = DemandSeries(max_samples=3)
        for i in range(5):
            s.observe(float(i), float(i))
        assert len(s) == 3
        assert s.dropped == 2
        assert s.times == [2.0, 3.0, 4.0]
        # Windows reaching before the retained history are clamped:
        # values before t=2 read as 0.
        assert s.value_at(1.0) == 0.0
        assert s.integrate(0.0, 3.0) == pytest.approx(2.0 * 1.0)

    def test_tail(self):
        s = DemandSeries()
        for i in range(4):
            s.observe(float(i), float(i * 10))
        assert s.tail(2) == [(2.0, 20.0), (3.0, 30.0)]
        assert s.tail(0) == []
        assert s.tail(99) == s.samples()


class StubMaster:
    """Just enough of the Master surface for the sampler."""

    def __init__(self):
        self.counts = DispatchCounts()
        self._backlog = 0
        self._waiting_cores = 0.0
        self._in_use_cores = 0.0

    def stats(self):
        class S:
            pass

        s = S()
        s.backlog = self._backlog
        return s

    def cores_waiting(self):
        return self._waiting_cores

    def cores_in_use(self):
        return self._in_use_cores


class TestMasterDemandSampler:
    def test_rejects_bad_interval(self):
        engine = Engine()
        with pytest.raises(ValueError):
            MasterDemandSampler(engine, StubMaster(), interval_s=0)

    def test_probes_fill_all_three_series(self):
        engine = Engine()
        master = StubMaster()
        sampler = MasterDemandSampler(engine, master, interval_s=10.0)
        master.counts.tasks_submitted = 5
        master._backlog = 5
        master._waiting_cores = 5.0
        engine.run(until=25.0)
        # Probes at t=0 (before the submissions above registered... the
        # first periodic fire) — start_after=0 fires at t=0 with the
        # post-construction state, then t=10, t=20.
        assert len(sampler.arrival_rate) == 3
        assert len(sampler.backlog) == 3
        assert len(sampler.demand_cores) == 3
        assert sampler.backlog.latest == (20.0, 5.0)
        assert sampler.demand_cores.latest == (20.0, 5.0)

    def test_arrival_rate_is_delta_over_interval(self):
        engine = Engine()
        master = StubMaster()
        sampler = MasterDemandSampler(engine, master, interval_s=10.0)
        engine.run(until=1.0)  # t=0 probe with zero submissions
        master.counts.tasks_submitted = 20
        engine.run(until=11.0)  # t=10 probe sees +20 over 10 s
        assert sampler.arrival_rate.latest == (10.0, 2.0)
        engine.run(until=21.0)  # no new arrivals: rate back to 0
        assert sampler.arrival_rate.latest == (20.0, 0.0)

    def test_listeners_receive_every_sample(self):
        engine = Engine()
        master = StubMaster()
        sampler = MasterDemandSampler(engine, master, interval_s=10.0)
        seen = []
        sampler.on_sample(seen.append)
        engine.run(until=25.0)
        assert [s.time for s in seen] == [0.0, 10.0, 20.0]
        assert all(isinstance(s, DemandSample) for s in seen)

    def test_stop_halts_probing(self):
        engine = Engine()
        sampler = MasterDemandSampler(engine, StubMaster(), interval_s=10.0)
        engine.run(until=11.0)
        sampler.stop()
        engine.run(until=100.0)
        assert len(sampler.backlog) == 2
