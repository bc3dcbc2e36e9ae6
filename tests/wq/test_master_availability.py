"""Unit tests for master pause/resume (the §V-A restart contract)."""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)


@pytest.fixture
def master(engine):
    return Master(engine, Link(engine, 200.0), estimator=DeclaredResourceEstimator())


def make_task(execute_s=10.0):
    return Task("c", execute_s=execute_s, footprint=FOOT, declared=FOOT)


class TestPauseResume:
    def test_pause_stops_dispatch(self, engine, master):
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        engine.run(until=2.0)
        master.pause()
        task = make_task()
        master.submit(task)
        engine.run(until=10.0)
        assert task.state is TaskState.WAITING

    def test_resume_dispatches_backlog(self, engine, master):
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        engine.run(until=2.0)
        master.pause()
        task = make_task(execute_s=5.0)
        master.submit(task)
        engine.run(until=10.0)
        master.resume()
        engine.run(until=30.0)
        assert task.state is TaskState.DONE

    def test_completions_buffer_until_resume(self, engine, master):
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        task = make_task(execute_s=5.0)
        master.submit(task)
        engine.run(until=3.0)  # dispatched, executing
        master.pause()
        engine.run(until=20.0)  # execution + output done during outage
        assert task.state is not TaskState.DONE
        assert master.stats().done == 0
        master.resume()
        engine.run(until=21.0)
        assert task.state is TaskState.DONE
        assert task.finish_time >= 20.0  # delivered at resume, not before

    def test_completion_callbacks_fire_after_resume(self, engine, master):
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        seen = []
        master.on_complete(lambda t, r: seen.append(engine.now))
        task = make_task(execute_s=5.0)
        master.submit(task)
        engine.run(until=3.0)
        master.pause()
        engine.run(until=20.0)
        assert seen == []
        master.resume()
        engine.run(until=21.0)
        assert len(seen) == 1

    def test_outage_counter(self, engine, master):
        master.pause()
        master.pause()  # idempotent while down
        assert master.counts.outages == 1
        master.resume()
        master.resume()  # idempotent while up
        master.pause()
        assert master.counts.outages == 2

    def test_start_unavailable_counts_no_outage(self, engine):
        m = Master(engine, Link(engine, 10.0), start_available=False)
        assert not m.available
        assert m.counts.outages == 0
        m.resume()
        assert m.available

    def test_worker_registration_survives_outage(self, engine, master):
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        engine.run(until=2.0)
        master.pause()
        engine.run(until=5.0)
        master.resume()
        assert master.stats().workers_connected == 1
