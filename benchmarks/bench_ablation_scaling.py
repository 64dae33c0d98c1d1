"""A4 — multilevel runtime scaling (the paper's O(N_E) claim).

Partitions a doubling sequence of circuits and asserts the cost per
edge grows sub-linearly (i.e. total runtime is roughly linear in the
edge count, not quadratic).
"""

import time

from conftest import save_artifact

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.harness.ablations import ablation_scaling
from repro.partition.multilevel import MultilevelPartitioner


def test_ablation_scaling(artifact_dir):
    table = ablation_scaling(sizes=(500, 1000, 2000, 4000))
    save_artifact(artifact_dir, "ablation_scaling.txt", table)

    per_edge = []
    for num_gates in (1000, 8000):
        spec = GeneratorSpec(
            name=f"lin{num_gates}",
            num_inputs=max(4, num_gates // 150),
            num_outputs=max(4, num_gates // 120),
            num_gates=num_gates,
            num_dffs=max(2, num_gates // 25),
            depth=max(8, num_gates // 120),
            seed=11,
        )
        circuit = generate_circuit(spec)
        start = time.perf_counter()
        MultilevelPartitioner(seed=11).partition(circuit, 8)
        per_edge.append((time.perf_counter() - start) / circuit.num_edges)
    # An O(E^2) algorithm would show ~8x growth over this 8x size range;
    # linear-ish behaviour keeps the ratio small. Generous bound: wall
    # clocks on shared machines are noisy.
    assert per_edge[1] <= per_edge[0] * 3.0
