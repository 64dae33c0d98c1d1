"""A2 — refinement-algorithm comparison (greedy vs KL vs FM vs none).

The paper (citing Karypis & Kumar) chose greedy refinement for speed at
comparable quality; the assertions pin exactly that: every refiner
improves on no-refinement, and greedy is not slower than FM while
cutting within 40% of it (FM's tentative negative-gain moves do buy
real cut quality; greedy buys speed).
"""

from conftest import save_artifact

from repro.harness.ablations import ablation_refiner
from repro.partition.metrics import edge_cut
from repro.partition.multilevel import MultilevelPartitioner


def test_ablation_refiner(runner, artifact_dir):
    table = ablation_refiner(runner)
    save_artifact(artifact_dir, "ablation_refine.txt", table)

    circuit = runner.circuit("s9234")
    cuts = {}
    runtimes = {}
    for refiner in ("none", "greedy", "kl", "fm"):
        partitioner = MultilevelPartitioner(seed=3, refiner=refiner)
        cuts[refiner] = edge_cut(partitioner.partition(circuit, 8))
        runtimes[refiner] = partitioner.last_runtime
    for refiner in ("greedy", "kl", "fm"):
        assert cuts[refiner] <= cuts["none"], refiner
    assert cuts["greedy"] <= cuts["fm"] * 1.40
    assert runtimes["greedy"] <= runtimes["fm"]
