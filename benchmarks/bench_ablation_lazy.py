"""A6 — cancellation policy: aggressive vs lazy.

Lazy cancellation holds anti-messages back until re-execution refutes
the original send; speculation that was value-correct is reused.

Finding (recorded in EXPERIMENTS.md): under this machine model lazy
loses across the board — deferring cancellation lets wrong values
propagate several gate-hops further before the antis land, and the
enlarged cascades dwarf the reuse savings. The bench therefore asserts
the policy's *invariants* — results equal to the sequential oracle (the
runner checks every run), a non-trivial reuse rate — and reports the
comparison table rather than asserting a winner.
"""

from conftest import save_artifact

from repro.harness.config import ALGORITHMS
from repro.utils.tables import format_table


def test_ablation_lazy_cancellation(benchmark, runner, artifact_dir):
    def build_table():
        rows = []
        for algorithm in ALGORITHMS:
            aggressive = runner.run("s9234", algorithm, 8)
            lazy = runner.run("s9234", algorithm, 8, cancellation="lazy")
            rows.append(
                (
                    algorithm,
                    aggressive.anti_messages,
                    lazy.anti_messages,
                    lazy.lazy_reuses,
                    f"{aggressive.execution_time:.2f}",
                    f"{lazy.execution_time:.2f}",
                )
            )
        return format_table(
            ["algorithm", "antis (aggr)", "antis (lazy)", "reuses",
             "time aggr", "time lazy"],
            rows,
            title="A6: cancellation policy (s9234, 8 nodes, "
            f"{runner.config.describe()})",
        ), rows

    (table, rows) = benchmark.pedantic(build_table, rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_lazy.txt", table)

    total_reuses = sum(row[3] for row in rows)
    assert total_reuses > 0
