"""Soak — seeded chaos schedules with invariant checking at quiescence.

Beyond the paper: every other experiment injects one curated fault
profile. The soak throws a *generated* schedule — every chaos primitive
the simulator knows, in seeded random order — at a spot-aware HTA stack,
drives the workload to quiescence, and then audits the final state with
the :mod:`repro.soak.invariants` checkers: task conservation, no worker
leaks, monotonic API resource versions, metrics/trace consistency, and
the quiescence itself.

A clean run prints one ``OK`` line per seed. A violation prints the
failing seed, which is a complete reproduction recipe::

    python -m repro.experiments soak --seed 41 --smoke

``--runs N`` sweeps seeds ``seed .. seed+N-1``; the process exits
nonzero on the first violating seed (CI runs ``soak --smoke --runs 3``
with and without ``--migrate``). ``--migrate`` opts the schedule into
the checkpoint/restore ``migrate`` primitive and arms the migration
machinery on every other strike (preemptions drain via checkpoint).
``--integrity`` opts into value faults: the ``corrupt`` and
``black_hole`` primitives join the pool, seeded result/checkpoint
corruption arms, verification polices deliveries, and the health
ledger quarantines sick workers. ``--shard-crash`` runs the dispatch
plane as four masters behind a foreman with a failover coordinator,
and the ``shard_crash`` primitive (transient *or permanent* loss of
one shard) joins the pool — the failover-protocol invariant then
audits the merged journal for double-resumed or stranded work.
"""

from __future__ import annotations

from repro.soak.harness import SoakConfig, first_violation, run_soak_batch


def main(
    seed: int = 0,
    *,
    smoke: bool = False,
    runs: int = 1,
    migrate: bool = False,
    integrity: bool = False,
    shard_crash: bool = False,
) -> str:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    config = SoakConfig.from_flags(
        smoke=smoke, migrate=migrate, integrity=integrity, shard_crash=shard_crash
    )
    seeds = list(range(seed, seed + runs))
    reports = run_soak_batch(seeds, config)
    out = "\n".join(report.describe() for report in reports)
    print(out)
    failing = first_violation(reports)
    if failing is not None:
        raise SystemExit(
            f"soak failed: seed {failing.seed} violated "
            f"{len(failing.violations)} invariant(s); reproduce with "
            f"`{config.command(failing.seed)}`"
        )
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
