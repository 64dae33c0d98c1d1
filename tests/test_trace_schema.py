"""Golden trace-schema contract (DESIGN.md §7).

Runs all three engines traced and asserts every emitted record carries
the envelope fields plus its kind's documented required fields — the
analyzers (``repro.obs.causality``, ``repro.obs.analyze``) and external
consumers key off exactly these.
A kind absent from the table fails the test: extending the schema
means documenting it here AND in DESIGN.md §7.
"""

from __future__ import annotations

import pytest

from repro.obs import TraceWriter, read_trace
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine

#: Envelope every record carries, whoever wrote it.
ENVELOPE = {"ts", "node", "seq", "kind"}

#: kind -> fields required beyond the envelope (DESIGN.md §7).
REQUIRED: dict[str, set[str]] = {
    "run_start": {"engine", "circuit", "cycles"},
    "run_end": {"engine", "events", "emissions"},
    "rollback": {
        "rid", "lp", "depth", "t",
        "cause_kind", "cause_uid", "cause_src", "cause_node", "cause_t",
        "antis",
    },
    "commit": {"lp", "n", "t_lo", "t_hi"},
    "gvt_round": {"cid", "gvt", "final", "latency", "trips"},
    "inbox_depth": {"depth", "gvt", "cid"},
    "node_summary": {
        "busy", "wall", "events", "rollbacks", "rolled_back", "antis",
        "sent_remote", "sent_local", "gvt_rounds", "num_lps", "attr",
    },
    "ckpt": {"cid", "gvt", "bytes", "secs"},
    "restart": {"failed", "to_attempt", "epoch", "gvt", "replayed", "downtime"},
    "migr": {"src", "dst", "lps", "pending", "gvt"},
}


def _assert_schema(records: list[dict], engine: str) -> set[str]:
    assert records, f"{engine}: trace is empty"
    seen: set[str] = set()
    last_seq: dict[int, int] = {}
    for record in records:
        missing = ENVELOPE - record.keys()
        assert not missing, f"{engine}: record lacks envelope {missing}: {record}"
        kind = record["kind"]
        assert kind in REQUIRED, (
            f"{engine}: emitted undocumented kind {kind!r} — add it to "
            "REQUIRED here and to the DESIGN.md §7 table"
        )
        missing = REQUIRED[kind] - record.keys()
        assert not missing, f"{engine}: {kind} lacks {missing}: {record}"
        seen.add(kind)
        # seq is per-writer monotonic.
        node = record["node"]
        if node in last_seq:
            assert record["seq"] > last_seq[node], (
                f"{engine}: node {node} seq not monotonic"
            )
        last_seq[node] = record["seq"]
    return seen


def test_sequential_schema(s27, tmp_path):
    path = str(tmp_path / "seq.jsonl")
    stimulus = RandomStimulus(s27, num_cycles=10, period=20, seed=3)
    with TraceWriter(path) as tracer:
        SequentialSimulator(s27, stimulus, tracer=tracer).run()
    seen = _assert_schema(read_trace(path), "sequential")
    assert {"run_start", "commit", "run_end"} <= seen


def test_virtual_schema(s27, tmp_path):
    path = str(tmp_path / "virtual.jsonl")
    stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
    assignment = get_partitioner("Random", seed=4).partition(s27, 3)
    with TraceWriter(path) as tracer:
        result = TimeWarpSimulator(
            s27, assignment, stimulus,
            VirtualMachine(num_nodes=3, gvt_interval=64), tracer=tracer,
        ).run()
    assert result.rollbacks > 0
    seen = _assert_schema(read_trace(path), "virtual")
    assert {"rollback", "commit", "gvt_round", "node_summary"} <= seen


def test_process_schema(s27, tmp_path):
    path = str(tmp_path / "process.jsonl")
    stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
    assignment = get_partitioner("Random", seed=1).partition(s27, 2)
    result = ProcessTimeWarpSimulator(
        s27, assignment, stimulus,
        VirtualMachine(num_nodes=2, gvt_interval=32), trace_path=path,
    ).run()
    records = read_trace(path)
    seen = _assert_schema(records, "process")
    assert {"commit", "gvt_round", "inbox_depth", "node_summary"} <= seen
    # The process backend's measured attribution names the park (the
    # blocking receives of an idle node) and counts them, and names the
    # setup (job pickup to loop entry: engine build, initial schedule)
    # and the GVT applications (sweep, clerk compaction, checkpoint
    # trigger), and counts the slices worked and the sweeps made.
    for record in records:
        if record["kind"] == "node_summary":
            assert set(record["attr"]) == {
                "compute", "transport", "gvt", "park", "setup", "idle",
            }
            assert record["parks"] >= 0
            assert 1 <= record["slices"] <= record["events"]
            assert 0 <= record["sweeps"] <= record["gvt_rounds"]
            assert record["setup"] == record["attr"]["setup"] > 0
    if result.rollbacks:
        assert "rollback" in seen
    # Rollback cause fields have live values, not just keys: every
    # anti-caused rollback names its cause uid.
    for record in records:
        if record["kind"] == "rollback" and record["cause_kind"] == "anti":
            assert record["cause_uid"] is not None


def test_recovery_schema(s27, monkeypatch, tmp_path):
    """A crashed-and-recovered run's trace keeps the contract, and the
    recovery kinds (``ckpt``, ``restart``) carry their fields."""
    path = str(tmp_path / "recovered.jsonl")
    stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
    assignment = get_partitioner("Multilevel", seed=3).partition(s27, 2)
    monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
    result = ProcessTimeWarpSimulator(
        s27, assignment, stimulus,
        VirtualMachine(num_nodes=2, gvt_interval=32, checkpoint_interval=60),
        trace_path=path, max_restarts=2,
    ).run()
    assert result.restarts == 1
    seen = _assert_schema(read_trace(path), "process+recovery")
    assert {"ckpt", "restart"} <= seen


def test_schema_violation_is_caught(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with TraceWriter(path, node=0) as w:
        w.emit("rollback", lp=1, depth=2, t=0)  # missing cause fields
    with pytest.raises(AssertionError, match="rollback lacks"):
        _assert_schema(read_trace(path), "synthetic")
