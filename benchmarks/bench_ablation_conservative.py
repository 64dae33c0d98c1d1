"""A8 — synchronization protocol: Time Warp vs conservative (CMB).

The paper's framework is optimistic; reference [11] studies
partitioning for conservative synchronization instead. This ablation
runs both kernels on the same partitions and asserts the classic
result that justifies the paper's choice: with gate-delay lookahead,
conservative execution is dominated by null-message traffic and loses
to Time Warp on every partition — and partition quality matters *less*
under CMB, because null rounds march the whole machine through the
virtual-time grid regardless of where the cut lies.
"""

from conftest import save_artifact

from repro.utils.tables import format_table

COMPARED = ("Multilevel", "Random", "DFS")


def test_ablation_conservative(benchmark, runner, artifact_dir):
    def build_table():
        rows = []
        data = {}
        for algorithm in COMPARED:
            tw = runner.run("s9234", algorithm, 8)
            cmb = runner.run("s9234", algorithm, 8, kernel="conservative")
            data[algorithm] = (tw, cmb)
            rows.append(
                (
                    algorithm,
                    f"{tw.execution_time:.2f}",
                    f"{cmb.execution_time:.2f}",
                    f"{cmb.execution_time / tw.execution_time:.1f}x",
                    cmb.app_messages,
                    cmb.null_messages,
                )
            )
        table = format_table(
            ["algorithm", "Time Warp (s)", "CMB (s)", "slowdown",
             "CMB msgs", "CMB nulls"],
            rows,
            title="A8: optimistic vs conservative, s9234 x 8 nodes "
            f"({runner.config.describe()})",
        )
        return table, data

    table, data = benchmark.pedantic(build_table, rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_conservative.txt", table)

    for algorithm, (tw, cmb) in data.items():
        assert cmb.execution_time > tw.execution_time, algorithm
        assert cmb.null_messages > cmb.app_messages, algorithm
