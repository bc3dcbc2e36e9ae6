"""Integration-style unit tests for workers and the master (no cluster)."""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.estimator import ConservativeEstimator, DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import FileSpec, Task, TaskState
from repro.wq.worker import Worker, WorkerState

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)


@pytest.fixture
def link(engine):
    return Link(engine, 100.0)


@pytest.fixture
def master(engine, link):
    return Master(engine, link, estimator=DeclaredResourceEstimator())


def make_task(category="c", execute_s=10.0, declared=True, inputs=(), outputs=()):
    return Task(
        category,
        execute_s=execute_s,
        footprint=FOOT,
        declared=FOOT if declared else None,
        inputs=inputs,
        outputs=outputs,
    )


def add_worker(engine, master, name="w1", capacity=CAP, latency=1.0):
    return Worker(engine, master, name, capacity, connect_latency=latency)


class TestWorkerLifecycle:
    def test_worker_registers_after_connect_latency(self, engine, master):
        w = add_worker(engine, master, latency=2.0)
        engine.run(until=1.0)
        assert master.stats().workers_connected == 0
        engine.run(until=3.0)
        assert master.stats().workers_connected == 1
        assert w.state is WorkerState.READY

    def test_zero_capacity_rejected(self, engine, master):
        with pytest.raises(ValueError):
            Worker(engine, master, "w", ResourceVector.zero())

    def test_drain_before_connect_exits_silently(self, engine, master):
        w = add_worker(engine, master, latency=5.0)
        w.drain()
        engine.run(until=10.0)
        assert w.state is WorkerState.STOPPED
        assert master.stats().workers_connected == 0

    def test_idle_drain_stops_immediately(self, engine, master):
        w = add_worker(engine, master)
        engine.run(until=2.0)
        w.drain()
        engine.run(until=3.0)
        assert w.state is WorkerState.STOPPED
        assert master.stats().workers_connected == 0


class TestExecution:
    def test_task_runs_to_completion(self, engine, master):
        add_worker(engine, master)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=30.0)
        assert task.state is TaskState.DONE
        assert task.result is not None
        assert task.result.execute_seconds == 10.0
        assert master.all_done

    def test_turnaround_includes_transfers(self, engine, master, link):
        add_worker(engine, master)
        task = make_task(
            inputs=(FileSpec("in", 100.0),), outputs=(FileSpec("out", 50.0),)
        )
        master.submit(task)
        engine.run(until=60.0)
        # connect 1 + fetch 1 + exec 10 + return 0.5
        assert task.finish_time == pytest.approx(12.5)

    def test_concurrent_tasks_share_worker(self, engine, master):
        add_worker(engine, master)  # 4 cores
        tasks = [make_task(execute_s=10.0) for _ in range(4)]
        master.submit_many(tasks)
        engine.run(until=30.0)
        finish_times = {t.finish_time for t in tasks}
        assert len(finish_times) == 1  # all ran in parallel

    def test_excess_tasks_queue(self, engine, master):
        add_worker(engine, master)
        tasks = [make_task(execute_s=10.0) for _ in range(6)]
        master.submit_many(tasks)
        engine.run(until=12.0)
        stats = master.stats()
        assert stats.done == 4
        assert stats.running == 2

    def test_unknown_resources_occupy_whole_worker(self, engine, link):
        master = Master(engine, link, estimator=ConservativeEstimator())
        add_worker(engine, master)
        tasks = [make_task(declared=False, execute_s=10.0) for _ in range(2)]
        master.submit_many(tasks)
        engine.run(until=12.0)
        assert master.stats().done == 1  # strictly one at a time

    def test_cacheable_input_fetched_once_per_worker(self, engine, master, link):
        add_worker(engine, master)
        db = FileSpec("db", 100.0, cacheable=True)
        tasks = [make_task(inputs=(db,), execute_s=5.0) for _ in range(4)]
        master.submit_many(tasks)
        engine.run(until=60.0)
        assert link.bytes_moved_mb == pytest.approx(100.0)

    def test_concurrent_cacheable_fetch_single_flighted(self, engine, master, link):
        add_worker(engine, master)  # 4 concurrent slots
        db = FileSpec("db", 100.0, cacheable=True)
        tasks = [make_task(inputs=(db,), execute_s=5.0) for _ in range(4)]
        master.submit_many(tasks)
        engine.run(until=2.0)  # all four dispatched immediately
        engine.run(until=60.0)
        assert link.bytes_moved_mb == pytest.approx(100.0)

    def test_cache_affinity_preferred(self, engine, master):
        w1 = add_worker(engine, master, "w1", capacity=ResourceVector(1, 4096, 4096))
        w2 = add_worker(engine, master, "w2", capacity=ResourceVector(1, 4096, 4096))
        db = FileSpec("db", 50.0, cacheable=True)
        first = make_task(inputs=(db,), execute_s=5.0)
        master.submit(first)
        engine.run(until=10.0)
        owner = first.result.worker_name
        second = make_task(inputs=(db,), execute_s=5.0)
        master.submit(second)
        engine.run(until=20.0)
        assert second.result.worker_name == owner


class TestDrainAndKill:
    def test_drain_finishes_running_tasks(self, engine, master):
        w = add_worker(engine, master)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=5.0)
        w.drain()
        engine.run(until=30.0)
        assert task.state is TaskState.DONE
        assert w.state is WorkerState.STOPPED

    def test_draining_worker_accepts_no_new_tasks(self, engine, master):
        w = add_worker(engine, master)
        t1 = make_task(execute_s=10.0)
        master.submit(t1)
        engine.run(until=5.0)
        w.drain()
        t2 = make_task(execute_s=10.0)
        master.submit(t2)
        engine.run(until=30.0)
        assert t1.state is TaskState.DONE
        assert t2.state is TaskState.WAITING  # no worker left for it

    def test_kill_requeues_running_tasks(self, engine, master):
        w = add_worker(engine, master)
        task = make_task(execute_s=100.0)
        master.submit(task)
        engine.run(until=5.0)
        w.kill()
        assert task.state is TaskState.WAITING
        assert task.attempts == 1
        assert master.counts.tasks_requeued == 1
        # A new worker picks the task up again.
        add_worker(engine, master, "w2")
        engine.run(until=200.0)
        assert task.state is TaskState.DONE

    def test_kill_cancels_inflight_transfer(self, engine, master, link):
        w = add_worker(engine, master)
        task = make_task(inputs=(FileSpec("big", 1000.0),), execute_s=10.0)
        master.submit(task)
        engine.run(until=3.0)  # mid-fetch
        w.kill()
        engine.run(until=5.0)
        assert link.active_count == 0

    def test_requeued_task_goes_to_front(self, engine, master):
        w = add_worker(engine, master, capacity=ResourceVector(1, 4096, 4096))
        first = make_task(execute_s=100.0)
        second = make_task(execute_s=5.0)
        master.submit_many([first, second])
        engine.run(until=5.0)
        w.kill()
        assert master.waiting_tasks()[0] is first


class TestStatsAndAccounting:
    def test_stats_counts(self, engine, master):
        add_worker(engine, master)
        tasks = [make_task(execute_s=50.0) for _ in range(6)]
        master.submit_many(tasks)
        engine.run(until=10.0)
        s = master.stats()
        assert s.waiting == 2
        assert s.running == 4
        assert s.workers_busy == 1
        assert s.workers_idle == 0
        assert s.backlog == 6

    def test_cores_in_use_counts_executing_footprints(self, engine, master):
        add_worker(engine, master)
        master.submit_many([make_task(execute_s=50.0) for _ in range(3)])
        engine.run(until=10.0)
        assert master.cores_in_use() == pytest.approx(3.0)

    def test_cores_waiting(self, engine, master):
        master.submit_many([make_task() for _ in range(5)])
        assert master.cores_waiting() == pytest.approx(5.0)

    def test_supplied_cores(self, engine, master):
        add_worker(engine, master)
        add_worker(engine, master, "w2")
        engine.run(until=2.0)
        assert master.supplied_cores() == pytest.approx(8.0)

    def test_double_submit_rejected(self, engine, master):
        task = make_task()
        master.submit(task)
        task.state = TaskState.DONE
        with pytest.raises(RuntimeError):
            master.submit(task)

    def test_completion_callbacks_fire(self, engine, master):
        add_worker(engine, master)
        seen = []
        master.on_complete(lambda t, r: seen.append((t.id, r.worker_name)))
        task = make_task(execute_s=5.0)
        master.submit(task)
        engine.run(until=20.0)
        assert seen == [(task.id, "w1")]
