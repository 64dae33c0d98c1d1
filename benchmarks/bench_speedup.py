"""E1 — multilevel speedup and parallel efficiency.

Derived view over the Table 2 runs (cached, so this bench is nearly
free). Asserts the scalability shape: speedup grows monotonically in
the node count for every circuit, exceeds 2x at 8 nodes (the paper's
headline), and parallel efficiency decays as nodes are added (the
communication/rollback tax).
"""

from collections import defaultdict

from conftest import save_artifact

from repro.harness.extensions import generate_speedup, speedup_rows


def test_speedup(runner, artifact_dir):
    table = generate_speedup(runner)
    save_artifact(artifact_dir, "speedup.txt", table)

    by_circuit = defaultdict(list)
    for circuit, nodes, _time, speedup, efficiency in speedup_rows(runner):
        by_circuit[circuit].append((nodes, speedup, efficiency))

    for circuit, points in by_circuit.items():
        points.sort()
        speedups = [s for _, s, _ in points]
        efficiencies = [e for _, _, e in points]
        assert speedups == sorted(speedups), f"{circuit}: speedup not monotone"
        assert speedups[-1] > 2.0, f"{circuit}: <2x at 8 nodes"
        # efficiency decays from few to many nodes
        assert efficiencies[-1] < efficiencies[0], circuit
