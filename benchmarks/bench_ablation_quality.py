"""A3 — static partition quality across the six algorithms.

The static numbers that explain the dynamic results: the multilevel
partition must have the lowest edge cut, and every algorithm must stay
load balanced.
"""

from conftest import save_artifact

from repro.harness.ablations import ablation_quality
from repro.harness.config import ALGORITHMS
from repro.partition.metrics import partition_quality


def test_ablation_quality(runner, artifact_dir):
    table = ablation_quality(runner)
    save_artifact(artifact_dir, "ablation_quality.txt", table)

    cuts = {}
    for algorithm in ALGORITHMS:
        quality = partition_quality(runner.partition("s9234", algorithm, 8))
        cuts[algorithm] = quality.edge_cut
        assert quality.load_imbalance <= 1.35, algorithm
    assert cuts["Multilevel"] == min(cuts.values())
    assert cuts["Topological"] == max(cuts.values())
