"""Figure 4 — s9234 execution time vs node count.

Shape claims asserted (Section 5): the multilevel algorithm
outperforms every other strategy beyond 4 nodes, and parallel
simulation beats the sequential baseline well before 8 nodes.
"""

from conftest import save_artifact

from repro.harness.config import ALGORITHMS
from repro.harness.figures import FIGURE_NODE_COUNTS, fig4_series, generate_fig4


def test_fig4(runner, artifact_dir):
    rendered = generate_fig4(runner)
    save_artifact(artifact_dir, "fig4.txt", rendered)

    if runner.config.scale < 0.1:
        return  # see bench_table2: claims need enough gates per node

    series = fig4_series(runner)
    for nodes in (5, 6, 7, 8):
        idx = FIGURE_NODE_COUNTS.index(nodes)
        ml = series["Multilevel"][idx]
        others = [series[a][idx] for a in ALGORITHMS if a != "Multilevel"]
        assert ml <= min(others) * 1.05, f"nodes={nodes}"

    # Parallel multilevel beats sequential from 2 nodes on.
    seq = series["Sequential"][0]
    assert series["Multilevel"][FIGURE_NODE_COUNTS.index(2)] < seq

    # Monotone-ish scaling: 8 nodes is much faster than 2.
    two = series["Multilevel"][FIGURE_NODE_COUNTS.index(2)]
    eight = series["Multilevel"][FIGURE_NODE_COUNTS.index(8)]
    assert eight < 0.75 * two
