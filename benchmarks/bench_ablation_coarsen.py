"""A1 — coarsening-threshold sweep.

Checks the multilevel hierarchy reacts to its stopping threshold as
designed: lower thresholds yield deeper hierarchies, and the coarsest
level never falls below the partition count.
"""

from conftest import save_artifact

from repro.harness.ablations import ablation_coarsen_threshold
from repro.partition.multilevel import MultilevelPartitioner

THRESHOLDS = (16, 32, 64, 128, 256)


def test_ablation_coarsen_threshold(runner, artifact_dir):
    table = ablation_coarsen_threshold(runner, thresholds=THRESHOLDS)
    save_artifact(artifact_dir, "ablation_coarsen.txt", table)

    circuit = runner.circuit("s9234")
    depths = []
    for threshold in THRESHOLDS:
        partitioner = MultilevelPartitioner(seed=3, coarsen_threshold=threshold)
        partitioner.partition(circuit, 8)
        depths.append(len(partitioner.last_level_sizes))
        assert partitioner.last_level_sizes[-1] >= 8
    # The smallest threshold must coarsen deepest; intermediate depths
    # are not strictly monotone because the globule weight cap scales
    # with the threshold as well.
    assert depths[0] == max(depths)
    assert depths[0] > depths[-1]
