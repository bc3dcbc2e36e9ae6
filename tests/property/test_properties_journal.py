"""Property-based tests: journal replay reconstructs the master exactly.

Drive a live master through a random workload prefix — random task mix,
random run lengths, random worker kills — crash it at an arbitrary
moment, replay the journal, and require the reconstructed state (ready
queue, unclaimed in-flight set, completions, retry counters, category
statistics) to equal the pre-crash snapshot. Worker kills (immediate
front-of-queue requeue) rather than fault backoffs keep every lost task
journalled at a deterministic position, so equality is exact.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task
from repro.wq.worker import Worker, WorkerState

FOOT = ResourceVector(1, 512, 128)
CATEGORIES = ("a", "b")


def build_master(engine):
    return Master(engine, Link(engine, 200.0), estimator=DeclaredResourceEstimator())


class TestJournalReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_replay_equals_precrash_state(self, data):
        engine = Engine()
        master = build_master(engine)
        workers = [
            Worker(engine, master, f"w{i}", ResourceVector(2, 4096, 4096))
            for i in range(3)
        ]
        n_tasks = data.draw(st.integers(2, 10), label="n_tasks")
        tasks = [
            Task(
                data.draw(st.sampled_from(CATEGORIES), label=f"cat{i}"),
                execute_s=float(data.draw(st.integers(5, 40), label=f"exec{i}")),
                footprint=FOOT,
                declared=FOOT,
            )
            for i in range(n_tasks)
        ]
        master.submit_many(tasks)
        for step in range(data.draw(st.integers(1, 6), label="steps")):
            dt = data.draw(st.integers(1, 25), label=f"dt{step}")
            engine.run(until=engine.now + dt)
            if data.draw(st.booleans(), label=f"kill{step}"):
                alive = [w for w in workers if w.state is WorkerState.READY]
                if alive:
                    victim = data.draw(
                        st.integers(0, len(alive) - 1), label=f"victim{step}"
                    )
                    alive[victim].kill()

        pre = {
            "queue": [t.id for t in master.queue],
            "in_flight": set(master.running),
            "done": [t.id for t in master.done],
            "abandoned": [t.id for t in master.abandoned],
            "attempts": {t.id: t.attempts for t in tasks},
            "submitted": master.counts.tasks_submitted,
            "results": list(master.monitor.results),
            "stats": {c: master.monitor.category(c) for c in CATEGORIES},
            "delivered": set(master._delivered),
        }

        master.crash()
        master.recover(replay=True)

        assert [t.id for t in master.queue] == pre["queue"]
        assert set(master._unclaimed) == pre["in_flight"]
        assert [t.id for t in master.done] == pre["done"]
        assert [t.id for t in master.abandoned] == pre["abandoned"]
        assert {t.id: t.attempts for t in tasks} == pre["attempts"]
        assert master.counts.tasks_submitted == pre["submitted"]
        assert master._delivered == pre["delivered"]
        # The monitor was rebuilt from replayed completions: identical
        # results in identical order, identical per-category aggregates.
        assert list(master.monitor.results) == pre["results"]
        for category in CATEGORIES:
            assert master.monitor.category(category) == pre["stats"][category]
        # Completed work is never forgotten and never re-queued.
        assert not set(pre["done"]) & {t.id for t in master.queue}
        assert master.counts.tasks_rerun == 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_replay_is_idempotent(self, data):
        """Replaying the same journal twice yields identical states —
        recovery after a crash-during-recovery is safe."""
        engine = Engine()
        master = build_master(engine)
        Worker(engine, master, "w0", ResourceVector(2, 4096, 4096))
        for i in range(data.draw(st.integers(1, 6), label="n_tasks")):
            master.submit(
                Task(
                    CATEGORIES[i % 2],
                    execute_s=float(data.draw(st.integers(5, 30), label=f"e{i}")),
                    footprint=FOOT,
                    declared=FOOT,
                )
            )
        engine.run(until=engine.now + data.draw(st.integers(1, 60), label="t"))
        first = master.journal.replay()
        second = master.journal.replay()
        assert [t.id for t in first.ready] == [t.id for t in second.ready]
        assert first.unclaimed.keys() == second.unclaimed.keys()
        assert [r.task_id for _t, r in first.completions] == [
            r.task_id for _t, r in second.completions
        ]
        assert first.attempts == second.attempts
        assert first.delivered == second.delivered
        assert first.submitted == second.submitted
