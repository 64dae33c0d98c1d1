"""The per-partitioner forensics scorecard as a benchmark artifact.

The paper's Tables 2-4 correlate partition quality with Time Warp
dynamics; this bench renders the same correlation from *traced* runs —
every rollback cascade-attributed to the straggler that rooted it, the
wasted-event totals asserted to reconcile exactly with the kernel
counters — so the artifact is an audited version of the paper's story:
smaller cuts => fewer boundary stragglers => less wasted work.  The
sweep is ``tools/partition_report.py``'s, on the session runner's
machine.
"""

from __future__ import annotations

import pathlib
import sys

from conftest import save_artifact

from repro.obs import render_scorecard

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from partition_report import build_scorecard  # noqa: E402

CIRCUIT = "s9234"
NODES = 4


def test_partition_scorecard(benchmark, runner, artifact_dir):
    rows, forensics = benchmark.pedantic(
        build_scorecard,
        args=(runner, CIRCUIT, NODES),
        kwargs={"trace_dir": str(artifact_dir), "forensics": True},
        rounds=1,
        iterations=1,
    )
    assert all(row["reconciled"] for row in rows)
    scorecard = render_scorecard(
        rows,
        title=f"{CIRCUIT} x{NODES} nodes ({runner.config.describe()})",
    )
    save_artifact(artifact_dir, "partition_scorecard.txt", scorecard)
    save_artifact(
        artifact_dir, "partition_scorecard_forensics.txt",
        "\n\n".join(forensics),
    )
