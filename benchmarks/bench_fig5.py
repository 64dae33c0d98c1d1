"""Figure 5 — s9234 application-message count vs node count.

Shape claims asserted (Section 5): the multilevel partition needs the
fewest inter-node messages in the 4-8 node region; the topological
partition, which splits almost every signal, needs the most; a single
node exchanges no messages at all.
"""

from conftest import save_artifact

from repro.harness.config import ALGORITHMS
from repro.harness.figures import FIGURE_NODE_COUNTS, fig5_series, generate_fig5


def test_fig5(runner, artifact_dir):
    rendered = generate_fig5(runner)
    save_artifact(artifact_dir, "fig5.txt", rendered)

    series = fig5_series(runner)
    one = FIGURE_NODE_COUNTS.index(1)
    for algorithm in ALGORITHMS:
        assert series[algorithm][one] == 0

    for nodes in (4, 6, 8):
        idx = FIGURE_NODE_COUNTS.index(nodes)
        ml = series["Multilevel"][idx]
        others = [series[a][idx] for a in ALGORITHMS if a != "Multilevel"]
        assert ml < min(others), f"nodes={nodes}"
        assert series["Topological"][idx] == max(
            series[a][idx] for a in ALGORITHMS
        ), f"nodes={nodes}"
