"""A5 — optimism-window sweep (bounded optimism, Section 6 directions).

Asserts the window behaves as an optimism control: tight windows
discard less speculative work than unthrottled Time Warp, without
changing the simulation outcome (the runner's oracle already checks
that on every run).
"""

from conftest import save_artifact

from repro.harness.ablations import ablation_window


def test_ablation_window(benchmark, runner, artifact_dir):
    table = benchmark.pedantic(
        ablation_window, args=(runner,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, "ablation_window.txt", table)

    # The sweep's cells, from the runner's cache: unbounded and 0.5 periods.
    unbounded = runner.record("s9234", "Multilevel", 8, optimism_window=None)
    tight = runner.record(
        "s9234", "Multilevel", 8, optimism_window=runner.config.period // 2
    )
    assert tight.events_rolled_back <= unbounded.events_rolled_back
