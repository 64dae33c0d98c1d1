"""A11 — static partitions vs dynamic LP migration.

Kravitz & Ackland (reference [15]) framed the static-vs-dynamic
question the paper's study deliberately answers on the static side;
this ablation adds the dynamic side: LPs migrate from the busiest to
the idlest node at GVT rounds whenever the work imbalance exceeds a
threshold.

The classic finding reproduces: migration rescues poorly-balanced
partitions (Topological, Cluster) but *hurts* the multilevel partition
— moving LPs costs transfer time and breaks the locality the static
algorithm worked for. Dynamic balancing complements, and does not
replace, good static partitioning.
"""

from conftest import save_artifact

from repro.utils.tables import format_table

COMPARED = ("Multilevel", "ConePartition", "Cluster", "Topological")


def test_ablation_migration(benchmark, runner, artifact_dir):
    def build_table():
        rows = []
        data = {}
        for algorithm in COMPARED:
            static = runner.run("s9234", algorithm, 8)
            dynamic = runner.run(
                "s9234", algorithm, 8, migration_threshold=1.5
            )
            delta = (
                (static.execution_time - dynamic.execution_time)
                / static.execution_time
            )
            data[algorithm] = (static, dynamic, delta)
            rows.append(
                (
                    algorithm,
                    f"{static.execution_time:.2f}",
                    f"{dynamic.execution_time:.2f}",
                    dynamic.migrations,
                    f"{delta:+.1%}",
                )
            )
        table = format_table(
            ["algorithm", "static (s)", "dynamic (s)", "LP moves", "gain"],
            rows,
            title="A11: dynamic LP migration (s9234, 8 nodes, threshold "
            f"1.5, {runner.config.describe()})",
        )
        return table, data

    table, data = benchmark.pedantic(build_table, rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_migration.txt", table)

    # Migration actually fires for every strategy at this threshold...
    for algorithm, (_, dynamic, _) in data.items():
        assert dynamic.migrations > 0, algorithm
    # ...rescues the weakest partition more than it helps the best one.
    assert data["Topological"][2] > data["Multilevel"][2]
