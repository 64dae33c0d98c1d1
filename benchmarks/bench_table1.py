"""Table 1 — benchmark circuit characteristics.

Regenerates the paper's Table 1 and asserts its claim (T1 in
``repro.harness.claims``).
"""

from conftest import assert_claims, save_artifact

from repro.harness.table1 import generate_table1


def test_table1(runner, artifact_dir):
    save_artifact(artifact_dir, "table1.txt", generate_table1(runner))
    assert_claims(runner, "Table 1")
