"""Time-series recording and integration for evaluation metrics.

The paper's headline numbers — *accumulated resource waste* and
*accumulated resource shortage* — are definite integrals of step-function
metrics (core×seconds). :class:`StepSeries` records right-continuous step
functions exactly (value changes at event instants), so the integrals are
computed analytically rather than from lossy sampling. :class:`Sampler`
additionally snapshots a set of gauges on a fixed cadence for plotting
figure-style series.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import Engine, PeriodicTask


class StepSeries:
    """A right-continuous step function sampled at change points.

    ``record(t, v)`` appends a change; times must be non-decreasing. The
    value at any time ``t`` is the value of the latest change at or before
    ``t`` (``initial`` before the first change).
    """

    __slots__ = ("name", "initial", "times", "values")

    def __init__(self, name: str = "", initial: float = 0.0):
        self.name = name
        self.initial = float(initial)
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"StepSeries {self.name!r}: time {time} precedes last {self.times[-1]}"
            )
        if self.times and self.times[-1] == time:
            # Same-instant update supersedes the previous value.
            self.values[-1] = float(value)
            return
        if self.values and self.values[-1] == value:
            return  # no change; keep the series minimal
        self.times.append(float(time))
        self.values.append(float(value))

    def value_at(self, time: float) -> float:
        """Value of the step function at ``time``."""
        idx = bisect.bisect_right(self.times, time) - 1
        return self.initial if idx < 0 else self.values[idx]

    @property
    def last_value(self) -> float:
        return self.values[-1] if self.values else self.initial

    @property
    def last_time(self) -> Optional[float]:
        return self.times[-1] if self.times else None

    def integrate(self, t0: float, t1: float) -> float:
        """Exact integral of the step function over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"integrate: t1 ({t1}) < t0 ({t0})")
        if t1 == t0:
            return 0.0
        total = 0.0
        t = t0
        v = self.value_at(t0)
        idx = bisect.bisect_right(self.times, t0)
        while idx < len(self.times) and self.times[idx] < t1:
            nt = self.times[idx]
            total += v * (nt - t)
            t = nt
            v = self.values[idx]
            idx += 1
        total += v * (t1 - t)
        return total

    def mean(self, t0: float, t1: float) -> float:
        """Time-weighted mean over ``[t0, t1]``."""
        if t1 <= t0:
            return self.value_at(t0)
        return self.integrate(t0, t1) / (t1 - t0)

    def maximum(self, t0: float, t1: float) -> float:
        """Maximum value attained on ``[t0, t1]``."""
        best = self.value_at(t0)
        idx = bisect.bisect_right(self.times, t0)
        while idx < len(self.times) and self.times[idx] <= t1:
            best = max(best, self.values[idx])
            idx += 1
        return best

    def resample(self, t0: float, t1: float, dt: float) -> Tuple[List[float], List[float]]:
        """Sample the step function on a uniform grid (for plotting/series
        output); the grid includes both endpoints."""
        if dt <= 0:
            raise ValueError(f"resample: dt must be positive, got {dt}")
        ts: List[float] = []
        vs: List[float] = []
        n = max(1, int(math.ceil((t1 - t0) / dt)))
        for i in range(n + 1):
            t = min(t0 + i * dt, t1)
            ts.append(t)
            vs.append(self.value_at(t))
            if t >= t1:
                break
        return ts, vs

    def changes(self) -> Iterable[Tuple[float, float]]:
        return zip(self.times, self.values)

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StepSeries {self.name!r} n={len(self.times)} last={self.last_value}>"


class MetricRecorder:
    """A named collection of :class:`StepSeries` bound to an engine clock.

    Components call ``recorder.set("pods.ready", 5)`` whenever state
    changes; the recorder timestamps with ``engine.now``. ``inc``/``dec``
    maintain counters on top of the same storage.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self.series: Dict[str, StepSeries] = {}

    def get(self, name: str, initial: float = 0.0) -> StepSeries:
        s = self.series.get(name)
        if s is None:
            s = StepSeries(name, initial)
            self.series[name] = s
        return s

    def set(self, name: str, value: float) -> None:
        self.get(name).record(self.engine.now, value)

    def inc(self, name: str, amount: float = 1.0) -> float:
        s = self.get(name)
        v = s.last_value + amount
        s.record(self.engine.now, v)
        return v

    def dec(self, name: str, amount: float = 1.0) -> float:
        return self.inc(name, -amount)

    def value(self, name: str) -> float:
        s = self.series.get(name)
        return s.last_value if s is not None else 0.0

    def integral(self, name: str, t0: float, t1: float) -> float:
        s = self.series.get(name)
        return s.integrate(t0, t1) if s is not None else 0.0

    def names(self) -> Sequence[str]:
        return tuple(self.series)


class Sampler:
    """Snapshots a set of gauge callables on a fixed cadence.

    Used for figure-style series (resource supply/demand every second)
    where the plotted quantity is derived from several components and is
    cheaper to poll than to event out of each of them. Each sample calls
    every registered callable exactly once, in registration order.
    """

    def __init__(self, engine: Engine, period: float = 1.0):
        self.engine = engine
        self.period = period
        #: Series name -> the callable that produces it (a probe shared
        #: by several series is listed under each of them).
        self._gauges: Dict[str, Callable[[], object]] = {}
        self._probes: List[Tuple[Tuple[StepSeries, ...], Callable[[], Sequence[float]]]] = []
        self.series: Dict[str, StepSeries] = {}
        self._task: Optional[PeriodicTask] = None

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Record ``fn()`` into series ``name`` at every sample."""
        self.add_probe((name,), lambda: (fn(),))
        self._gauges[name] = fn

    def add_probe(self, names: Sequence[str], fn: Callable[[], Sequence[float]]) -> None:
        """Record ``fn()``, one value per name, into the named series at
        every sample: gauges derived from the same reads (waste and
        demand from supply, in-use and shortage) share one evaluation."""
        series = tuple(StepSeries(name) for name in names)
        for s in series:
            self.series[s.name] = s
            self._gauges[s.name] = fn
        self._probes.append((series, fn))

    def start(self) -> None:
        if self._task is None:
            self._task = PeriodicTask(self.engine, self.period, self._sample, start_after=0.0)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def sample_now(self) -> None:
        self._sample()

    def _sample(self) -> None:
        now = self.engine.now
        for series, fn in self._probes:
            # allow same-instant resample (record() handles equal times);
            # a probe's series are always recorded together
            last = series[0].last_time
            if last is not None and last > now:
                continue
            for s, value in zip(series, fn()):
                s.record(now, float(value))
