"""Table 1 — benchmark circuit characteristics.

Regenerates the paper's Table 1 and checks the synthetic circuits match
the published counts exactly at full scale (proportionally otherwise).
"""

from conftest import save_artifact

from repro.harness.table1 import PAPER_TABLE1, generate_table1, table1_rows


def test_table1(runner, artifact_dir):
    table = generate_table1(runner)
    save_artifact(artifact_dir, "table1.txt", table)

    scale = runner.config.scale
    for circuit, inputs, gates, outputs in table1_rows(runner):
        base = circuit.split("@")[0]
        p_in, p_gates, p_out = PAPER_TABLE1[base]
        if scale == 1.0:
            assert (inputs, gates, outputs) == (p_in, p_gates, p_out)
        else:
            assert gates == max(8, round(p_gates * scale))
