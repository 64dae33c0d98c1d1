"""A7 — the multilevel algorithm against the wider literature.

Extends the paper's six-way study with the related-work strategies its
Section 2 surveys (strings, annealing, spectral bisection, corolla,
CPP) and its Section 6 future-work variant (activity-weighted
multilevel). Asserts:

- spectral bisection and multilevel form the low-cut tier (the
  comparison that motivated multilevel methods in [8, 12]), with
  multilevel faster to compute than spectral;
- the activity-weighted variant sends fewer actual messages than plain
  multilevel during simulation (the §6 hypothesis).
"""

from conftest import save_artifact

from repro.partition.metrics import partition_quality
from repro.partition.registry import all_partitioners, get_partitioner
from repro.utils.tables import format_table


def test_extended_field(runner, artifact_dir):
    circuit = runner.circuit("s9234")

    def build_table():
        rows = []
        data = {}
        for name in all_partitioners():
            partitioner = get_partitioner(
                name, seed=runner.config.partition_seed
            )
            assignment = partitioner.partition(circuit, 8)
            quality = partition_quality(assignment)
            result = runner.simulate("s9234", assignment)
            data[name] = (quality, result, partitioner.last_runtime)
            rows.append(
                (
                    name,
                    quality.edge_cut,
                    f"{quality.load_imbalance:.2f}",
                    f"{partitioner.last_runtime * 1e3:.0f}",
                    f"{result.execution_time:.2f}",
                    result.app_messages,
                    result.rollbacks,
                )
            )
        rows.sort(key=lambda r: float(r[4]))
        table = format_table(
            ["algorithm", "edge cut", "imbalance", "part ms",
             "sim time", "messages", "rollbacks"],
            rows,
            title="A7: extended field, s9234 x 8 nodes "
            f"({runner.config.describe()})",
        )
        return table, data

    table, data = build_table()
    save_artifact(artifact_dir, "extended_field.txt", table)

    cuts = {name: d[0].edge_cut for name, d in data.items()}
    low_tier = sorted(cuts, key=cuts.get)[:3]
    assert "Multilevel" in low_tier or "ActivityML" in low_tier
    assert "Spectral" in low_tier

    ml_runtime = data["Multilevel"][2]
    spectral_runtime = data["Spectral"][2]
    # Wall-clock on a shared machine is noisy; the claim is simply that
    # the linear-time heuristic beats the eigenvector method.
    assert ml_runtime < spectral_runtime

    assert (
        data["ActivityML"][1].app_messages
        < data["Multilevel"][1].app_messages
    )
