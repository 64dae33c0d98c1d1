"""Table 2 — simulation time per partitioning algorithm.

Regenerates the paper's central table and asserts its shape claims:

- every circuit runs in less than half its sequential time on 8 nodes
  with the multilevel partition (the paper's headline);
- the multilevel algorithm is the fastest (or within 15% of the
  fastest) strategy on >= 4 nodes for every circuit, and strictly the
  fastest on s9234 — the paper itself has one row (s15850, 6 nodes,
  DFS 906s vs multilevel 944s) where another strategy edges it out;
- the topological partition is never the winner (its communication
  penalty, Section 5).
"""

from conftest import save_artifact

from repro.harness.config import ALGORITHMS, TABLE2_NODE_COUNTS
from repro.harness.table2 import generate_table2, winners_by_row


def test_table2(runner, artifact_dir):
    table = generate_table2(runner)
    save_artifact(artifact_dir, "table2.txt", table)

    if runner.config.scale < 0.1:
        # Tiny debug scales leave too few gates per node for the paper's
        # quantitative claims; the artifact itself is still generated.
        return

    # Headline: multilevel on 8 nodes halves the sequential time.
    for circuit in TABLE2_NODE_COUNTS:
        seq = runner.sequential_time(circuit)
        ml = runner.record(circuit, "Multilevel", 8).execution_time
        assert ml < 0.5 * seq, f"{circuit}: {ml:.2f} !< 0.5 * {seq:.2f}"

    # Multilevel wins (or near-wins) every >=4-node row.
    for circuit, node_counts in TABLE2_NODE_COUNTS.items():
        for nodes in node_counts:
            if nodes < 4:
                continue
            ml = runner.record(circuit, "Multilevel", nodes).execution_time
            best = min(
                runner.record(circuit, a, nodes).execution_time
                for a in ALGORITHMS
            )
            tolerance = 1.0 if circuit == "s9234" else 1.15
            assert ml <= best * tolerance, (
                f"{circuit}@{nodes}: Multilevel {ml:.2f} vs best {best:.2f}"
            )

    # Topological never wins a row.
    winners = winners_by_row(runner)
    assert "Topological" not in winners.values()
