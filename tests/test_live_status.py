"""Live-status hygiene: stale snapshots must never haunt a new run.

Two layers guard against leftovers when a ``--live-status`` base path
is reused: run start deletes every ``<base>.node*`` file
(:func:`clear_status_files`), and the ``tw_top`` dashboard groups
whatever files it does find by the run id stamped into each snapshot,
keeping only the freshest run (a node of the old run can still be
flushing its last snapshot after the new run cleared).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.warped.parallel.ring import clear_status_files

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


tw_top = _load("tw_top", REPO_ROOT / "tools" / "tw_top.py")


def _write_snapshot(base: Path, node: int, *, run: str, ts: float, **extra):
    payload = {"run": run, "ts": ts, "node": node, "events": 0, **extra}
    path = Path(f"{base}.node{node}")
    path.write_text(json.dumps(payload))
    return path


def test_clear_status_files_removes_only_matching_nodes(tmp_path):
    base = tmp_path / "run.status"
    for node in range(4):
        _write_snapshot(base, node, run="old", ts=1.0)
    bystander = tmp_path / "other.status.node0"
    bystander.write_text("{}")
    assert clear_status_files(str(base)) == 4
    assert not list(tmp_path.glob("run.status.node*"))
    assert bystander.exists()
    # Idempotent on an already-clean base.
    assert clear_status_files(str(base)) == 0


def test_read_snapshots_keeps_only_the_freshest_run(tmp_path):
    """The haunting bug: a 2-node run after a 4-node run on one base.

    Nodes 2-3 of the dead earlier run survive as files (simulating the
    flush race); the dashboard must show only the new run's nodes.
    """
    base = tmp_path / "run.status"
    for node in (2, 3):
        _write_snapshot(base, node, run="dead-run", ts=10.0)
    for node in (0, 1):
        _write_snapshot(base, node, run="new-run", ts=20.0)
    snapshots = tw_top.read_snapshots(str(base))
    assert sorted(snapshots) == [0, 1]
    assert all(s["run"] == "new-run" for s in snapshots.values())


def test_read_snapshots_single_run_passes_through(tmp_path):
    base = tmp_path / "run.status"
    for node in range(3):
        _write_snapshot(base, node, run="only", ts=float(node))
    assert sorted(tw_top.read_snapshots(str(base))) == [0, 1, 2]


def test_read_snapshots_tolerates_partial_files(tmp_path):
    base = tmp_path / "run.status"
    _write_snapshot(base, 0, run="r", ts=1.0)
    Path(f"{base}.node1").write_text('{"truncated": ')
    snapshots = tw_top.read_snapshots(str(base))
    assert sorted(snapshots) == [0]
