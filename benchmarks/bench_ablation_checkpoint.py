"""A9 — state-saving policy: incremental vs periodic checkpointing.

Incremental state saving (WARPED's choice for small LP states, and this
kernel's default) pays a little on every event; periodic checkpointing
pays per snapshot but must *coast forward* (re-execute state-only)
from the nearest snapshot on every rollback. With gate-sized states the
sweep shows the classic trade-off curve: tiny intervals behave like
incremental, large intervals make rollbacks expensive.
"""

from conftest import save_artifact

from repro.utils.tables import format_table

INTERVALS = (None, 1, 4, 16, 64)


def test_ablation_checkpoint(benchmark, runner, artifact_dir):
    def build_table():
        rows = []
        results = {}
        for interval in INTERVALS:
            # Every policy is checked against the sequential oracle.
            result = runner.run(
                "s9234", "Multilevel", 8, checkpoint_interval=interval
            )
            results[interval] = result
            rows.append(
                (
                    "incremental" if interval is None else str(interval),
                    f"{result.execution_time:.2f}",
                    result.rollbacks,
                    result.events_rolled_back,
                    result.peak_history,
                )
            )
        table = format_table(
            ["state saving", "time (s)", "rollbacks", "rolled-back ev",
             "peak history"],
            rows,
            title="A9: state-saving policy (Multilevel, s9234, 8 nodes, "
            f"{runner.config.describe()})",
        )
        return table, results

    table, results = benchmark.pedantic(build_table, rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_checkpoint.txt", table)

    # The policy changes costs, and costs shift the schedule, so only
    # the invariants are asserted:
    for interval, result in results.items():
        assert result.rollbacks >= 0
        assert result.peak_history > 0
