"""Figure 5 — s9234 application-message count vs node count.

Renders the figure and asserts its claims (F5a-b in
``repro.harness.claims``): a single node sends no messages; Multilevel
sends the fewest and Topological the most.
"""

from conftest import assert_claims, save_artifact

from repro.harness.figures import generate_fig5


def test_fig5(runner, artifact_dir):
    save_artifact(artifact_dir, "fig5.txt", generate_fig5(runner))
    assert_claims(runner, "Figure 5")
