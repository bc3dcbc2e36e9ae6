"""Bounded demand time series sampled from Work Queue master events.

The forecasting layer needs a compact, replayable view of demand as it
evolved: task arrivals, backlog, and the aggregate resource demand in
cores. :class:`DemandSeries` is the storage — a bounded, right-continuous
step series (same semantics as :class:`repro.sim.tracing.StepSeries`,
plus a hard sample cap so a week-long facility run cannot grow memory
without bound). :class:`MasterDemandSampler` is the producer — a periodic
probe of one :class:`~repro.wq.master.Master` that feeds three series and
fans each sample out to registered listeners (forecasters, selectors).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Engine, PeriodicTask
from repro.wq.master import Master


class DemandSeries:
    """A bounded, step-integrable time series of demand observations.

    ``observe(t, y)`` appends a sample; times must be non-decreasing and
    finite, values finite. When the sample count exceeds ``max_samples``
    the oldest samples are dropped — integrals over windows that reach
    before the retained history are clamped to it.
    """

    __slots__ = ("name", "max_samples", "times", "values", "dropped")

    def __init__(self, name: str = "demand", max_samples: int = 4096):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self.times: List[float] = []
        self.values: List[float] = []
        #: Samples discarded by the bound (diagnostic).
        self.dropped = 0

    # --------------------------------------------------------------- writes
    def observe(self, t: float, y: float) -> None:
        if not (math.isfinite(t) and math.isfinite(y)):
            raise ValueError(f"non-finite sample ({t!r}, {y!r})")
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"DemandSeries {self.name!r}: time {t} precedes last {self.times[-1]}"
            )
        if self.times and self.times[-1] == t:
            self.values[-1] = float(y)  # same-instant update supersedes
            return
        self.times.append(float(t))
        self.values.append(float(y))
        excess = len(self.times) - self.max_samples
        if excess > 0:
            del self.times[:excess]
            del self.values[:excess]
            self.dropped += excess

    # ---------------------------------------------------------------- reads
    def __len__(self) -> int:
        return len(self.times)

    @property
    def latest(self) -> Optional[Tuple[float, float]]:
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def value_at(self, t: float) -> float:
        """Step-function value at ``t`` (0.0 before the retained history)."""
        idx = bisect.bisect_right(self.times, t) - 1
        return 0.0 if idx < 0 else self.values[idx]

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def tail(self, n: int) -> List[Tuple[float, float]]:
        """The most recent ``n`` samples, oldest first."""
        if n <= 0:
            return []
        return list(zip(self.times[-n:], self.values[-n:]))

    def integrate(self, t0: float, t1: float) -> float:
        """Exact integral of the step function over ``[t0, t1]``.

        The window is clamped to the retained history (values before the
        first retained sample are treated as 0.0, matching ``value_at``).
        """
        if t1 <= t0 or not self.times:
            return 0.0
        total = 0.0
        lo = t0
        start = max(0, bisect.bisect_right(self.times, t0) - 1)
        for i in range(start, len(self.times)):
            seg_start = max(lo, self.times[i])
            seg_end = t1 if i + 1 == len(self.times) else min(t1, self.times[i + 1])
            if seg_end > seg_start:
                total += self.values[i] * (seg_end - seg_start)
            if seg_end >= t1:
                break
        return total

    def mean_over(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.integrate(t0, t1) / (t1 - t0)


@dataclass(frozen=True, slots=True)
class DemandSample:
    """One probe of the master's demand state."""

    time: float
    #: Task arrivals per second since the previous probe.
    arrival_rate_per_s: float
    #: Waiting + running tasks.
    backlog: int
    #: Footprint cores desired right now (waiting + executing tasks).
    demand_cores: float


SampleListener = Callable[[DemandSample], None]


class MasterDemandSampler:
    """Periodically probes a master into three :class:`DemandSeries`.

    Listeners registered with :meth:`on_sample` receive every
    :class:`DemandSample` — the hook the forecasting layer uses to feed
    its models without the sampler knowing about them.
    """

    def __init__(
        self,
        engine: Engine,
        master: Master,
        *,
        interval_s: float = 15.0,
        max_samples: int = 4096,
        start_after: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.engine = engine
        self.master = master
        self.interval_s = interval_s
        self.arrival_rate = DemandSeries("arrival_rate_per_s", max_samples)
        self.backlog = DemandSeries("backlog", max_samples)
        self.demand_cores = DemandSeries("demand_cores", max_samples)
        self._listeners: List[SampleListener] = []
        self._last_submitted = master.counts.tasks_submitted
        self._last_probe_t = engine.now
        self._loop = PeriodicTask(engine, interval_s, self.probe, start_after=start_after)

    def on_sample(self, fn: SampleListener) -> None:
        self._listeners.append(fn)

    def stop(self) -> None:
        self._loop.stop()

    def probe(self) -> None:
        """Take one sample now (also called by the periodic loop)."""
        now = self.engine.now
        submitted = self.master.counts.tasks_submitted
        dt = now - self._last_probe_t
        rate = (submitted - self._last_submitted) / dt if dt > 0 else 0.0
        self._last_submitted = submitted
        self._last_probe_t = now
        stats = self.master.stats()
        demand = self.master.cores_waiting() + self.master.cores_in_use()
        self.arrival_rate.observe(now, rate)
        self.backlog.observe(now, float(stats.backlog))
        self.demand_cores.observe(now, demand)
        sample = DemandSample(now, rate, stats.backlog, demand)
        for fn in list(self._listeners):
            fn(sample)
