"""E1 — multilevel speedup and parallel efficiency.

Derived view over the Table 2 runs (cached, so this bench is nearly
free). Asserts its claim (E1 in ``repro.harness.claims``): speedup
grows with the node count, exceeds 2x at 8 nodes, and parallel
efficiency decays as nodes are added.
"""

from conftest import assert_claims, save_artifact

from repro.harness.extensions import generate_speedup


def test_speedup(runner, artifact_dir):
    save_artifact(artifact_dir, "speedup.txt", generate_speedup(runner))
    assert_claims(runner, "E1")
