"""Table 2 — simulation time per partitioning algorithm.

Regenerates the paper's central table and asserts its claims (T2a-c in
``repro.harness.claims``): Multilevel halves the sequential time on 8
nodes, wins the rows with 4 or more nodes, and Topological never wins.
"""

from conftest import assert_claims, save_artifact

from repro.harness.table2 import generate_table2


def test_table2(runner, artifact_dir):
    save_artifact(artifact_dir, "table2.txt", generate_table2(runner))
    assert_claims(runner, "Table 2")
