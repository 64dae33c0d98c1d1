"""E1 — multilevel speedup and parallel efficiency.

Derived view over the Table 2 runs (cached, so this bench is nearly
free). Asserts its claim (E1 in ``repro.harness.claims``): speedup
grows with the node count and parallel efficiency decays as nodes are
added.  (Beating sequential by 2x at 8 nodes is T2a, asserted by
``bench_table2.py``.)
"""

from conftest import assert_claims, save_artifact

from repro.harness.extensions import generate_speedup


def test_speedup(runner, artifact_dir):
    save_artifact(artifact_dir, "speedup.txt", generate_speedup(runner))
    assert_claims(runner, "E1")
