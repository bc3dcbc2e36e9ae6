"""End-to-end tests for the chaos-soak harness."""

from __future__ import annotations

import pytest

from repro.soak import (
    SoakConfig,
    SoakReport,
    first_violation,
    run_soak,
    run_soak_batch,
)

SMOKE = SoakConfig().smoke()


class TestSmokeConfig:
    def test_smoke_is_a_shrunk_copy(self):
        full = SoakConfig()
        assert SMOKE.n_tasks < full.n_tasks
        assert SMOKE.max_nodes < full.max_nodes
        assert SMOKE.schedule.max_events <= full.schedule.max_events


class TestRunSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak(2, SMOKE)

    def test_run_quiesces_clean(self, report):
        assert report.quiesced
        assert report.ok, [str(v) for v in report.violations]

    def test_schedule_recorded(self, report):
        assert report.seed == 2
        assert len(report.events) >= SMOKE.schedule.min_events

    def test_stats_populated(self, report):
        assert report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 60
        assert report.stats["journal_records"] > 0
        assert report.stats["sim_time_s"] > 0

    def test_describe_names_the_seed(self, report):
        text = report.describe()
        assert "soak seed=2: OK" in text
        assert "strike" in text

    def test_rerun_is_deterministic(self, report):
        again = run_soak(2, SMOKE)
        assert again.events == report.events
        assert again.stats == report.stats
        assert again.ok == report.ok


class TestBatch:
    def test_batch_runs_every_seed(self):
        reports = run_soak_batch([1, 2], SMOKE)
        assert [r.seed for r in reports] == [1, 2]
        assert first_violation(reports) is None

    def test_first_violation_picks_the_failure(self):
        reports = run_soak_batch([1], SMOKE)
        reports[0].violations.append("boom")
        assert first_violation(reports) is reports[0]


class TestFailureReporting:
    def test_failing_report_carries_reproduction_recipe(self):
        report = run_soak(3, SMOKE)
        report.violations.append("synthetic")
        text = report.describe()
        assert "VIOLATION" in text
        assert "python -m repro.experiments soak --seed 3" in text

    @pytest.mark.parametrize("smoke", [False, True])
    @pytest.mark.parametrize("migrate", [False, True])
    @pytest.mark.parametrize("integrity", [False, True])
    @pytest.mark.parametrize("shard_crash", [False, True])
    def test_command_flags_rebuild_the_config(
        self, smoke, migrate, integrity, shard_crash
    ):
        config = SoakConfig.from_flags(
            smoke=smoke, migrate=migrate, integrity=integrity, shard_crash=shard_crash
        )
        words = config.command(41).split()
        assert words[:6] == ["python", "-m", "repro.experiments", "soak", "--seed", "41"]
        flags = {w[2:].replace("-", "_") for w in words[6:]}
        assert SoakConfig.from_flags(**{f: True for f in flags}) == config

    def test_report_reproduces_the_flags_of_its_run(self):
        """A sharded smoke run's failure must replay sharded and smoke,
        not as a plain full-size soak."""
        config = SoakConfig.from_flags(smoke=True, shard_crash=True)
        report = SoakReport(
            seed=5, events=[], violations=["synthetic"], quiesced=True, config=config
        )
        assert report.describe().endswith(
            "reproduce with: python -m repro.experiments soak --seed 5"
            " --smoke --shard-crash"
        )

    def test_config_no_flag_reaches_falls_back_to_the_library_call(self):
        config = SoakConfig(n_tasks=7)
        assert config.command(5) == f"run_soak(5, {config!r})"


@pytest.mark.parametrize("seed", [33, 112])
def test_integrity_soak_keeps_task_whose_stale_copy_finished_in_backoff(seed):
    """A stale copy on a worker declared lost finishes while its task
    waits out a retry backoff; the task must still resolve."""
    report = run_soak(seed, SoakConfig.from_flags(smoke=True, integrity=True))
    assert report.violations == [], report.describe()
