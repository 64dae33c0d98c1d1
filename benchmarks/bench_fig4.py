"""Figure 4 — s9234 execution time vs node count.

Renders the figure and asserts its claims (F4a-c in
``repro.harness.claims``): Multilevel is the fastest strategy beyond 4
nodes, beats sequential from 2 nodes on, and scales from 2 to 8 nodes.
"""

from conftest import assert_claims, save_artifact

from repro.harness.figures import generate_fig4


def test_fig4(runner, artifact_dir):
    save_artifact(artifact_dir, "fig4.txt", generate_fig4(runner))
    assert_claims(runner, "Figure 4")
