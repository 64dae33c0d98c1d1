"""Trace forensics: cascade reconstruction, attribution, the scorecard.

The synthetic tests pin the cascade-linking semantics on handcrafted
records; the engine tests then hold both Time Warp backends to the
acceptance reconciliation — every rollback in a real trace lands in
exactly one cascade, and the forest's wasted-event total equals the
kernel's ``rolled_back`` counter, with committed timelines accounting
for ``events - rolled_back``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    TraceWriter,
    analyze_trace,
    build_cascades,
    read_trace,
    render_analysis,
    render_scorecard,
    scorecard_row,
)
from repro.obs.analyze import (
    commit_timelines,
    critical_path,
    wall_time_attribution,
)
from repro.obs.causality import extract_rollbacks, link_rollbacks
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine

REPO = Path(__file__).resolve().parent.parent


def _rb(seq, node, lp, depth, *, kind, uid=None, src=None, cause_node=None,
        antis=(), ts=None):
    return {
        "ts": seq * 0.001 if ts is None else ts, "node": node, "seq": seq,
        "kind": "rollback", "rid": seq, "lp": lp, "depth": depth, "t": 100,
        "cause_kind": kind, "cause_uid": uid, "cause_src": src,
        "cause_node": cause_node, "cause_t": 90, "antis": list(antis),
    }


# ----------------------------------------------------------------------
# synthetic cascades: the linking semantics, pinned
# ----------------------------------------------------------------------
class TestCascadeLinking:
    def test_straggler_roots_anti_children_chain(self):
        # Straggler hits LP 5 on node 0, undoing sends 10 and 11; their
        # antis roll back LPs on node 1; one of those undoes send 12,
        # whose anti rolls back a third LP. One cascade, chain depth 3.
        records = [
            _rb(0, 0, 5, 4, kind="straggler", uid=99, src=2, cause_node=1,
                antis=(10, 11)),
            _rb(1, 1, 7, 2, kind="anti", uid=10, src=5, cause_node=0,
                antis=(12,)),
            _rb(2, 1, 8, 1, kind="anti", uid=11, src=5, cause_node=0),
            _rb(3, 1, 9, 3, kind="anti", uid=12, src=7, cause_node=1),
        ]
        cascades = build_cascades(records)
        assert len(cascades) == 1
        cascade = cascades[0]
        assert cascade.root.lp == 5
        assert cascade.width == 4
        assert cascade.wasted == 4 + 2 + 1 + 3
        assert cascade.chain_depth == 3
        assert cascade.nodes == (0, 1)
        # The root was remote-caused: its cut edge is counted, as are
        # the anti-crossings into node 1.
        edges = cascade.boundary_edges()
        assert edges[(2, 5)] == 1       # straggler's cut edge
        assert edges[(5, 7)] == 1       # anti that crossed 0 -> 1
        assert (7, 9) not in edges      # same-node anti: not a cut edge

    def test_unrelated_stragglers_make_separate_cascades(self):
        records = [
            _rb(0, 0, 1, 2, kind="straggler"),
            _rb(1, 1, 2, 3, kind="straggler"),
        ]
        cascades = build_cascades(records)
        assert len(cascades) == 2
        assert sum(c.wasted for c in cascades) == 5

    def test_anti_links_to_latest_earlier_undo(self):
        # uid 10 is undone twice (lazy reuse): the anti-caused rollback
        # must link to the LATEST undo that precedes it, and an
        # even-later undo must not capture it.
        records = [
            _rb(0, 0, 1, 1, kind="straggler", antis=(10,)),
            _rb(1, 0, 1, 1, kind="straggler", antis=(10,)),
            _rb(2, 1, 3, 1, kind="anti", uid=10, src=1, cause_node=0),
            _rb(3, 0, 1, 1, kind="straggler", antis=(10,)),
        ]
        rollbacks = extract_rollbacks(records)
        link_rollbacks(rollbacks)
        assert rollbacks[2].parent is rollbacks[1]
        assert build_cascades(records)[1].width == 2

    def test_unresolvable_anti_roots_its_own_cascade(self):
        # cause_uid never appears in any antis list (e.g. truncated
        # trace): the rollback still lands in exactly one cascade.
        records = [_rb(0, 0, 1, 2, kind="anti", uid=777)]
        cascades = build_cascades(records)
        assert len(cascades) == 1 and cascades[0].wasted == 2

    def test_empty_trace_analyzes_cleanly(self):
        analysis = analyze_trace([])
        assert analysis["cascade"]["cascades"] == 0
        assert analysis["cascade"]["chain_depth"]["count"] == 0
        assert analysis["commits"]["committed_total"] == 0
        assert "rollbacks: 0" in render_analysis(analysis)


# ----------------------------------------------------------------------
# real traces: the acceptance reconciliation, both backends
# ----------------------------------------------------------------------
def _reconcile(records, result):
    cascades = build_cascades(records)
    assert sum(c.width for c in cascades) == result.rollbacks
    assert sum(c.wasted for c in cascades) == result.events_rolled_back
    timelines = commit_timelines(records)
    committed = sum(b["committed"] for b in timelines.values())
    assert committed == result.events_processed - result.events_rolled_back
    return cascades


class TestEngineReconciliation:
    def test_virtual_trace_reconciles_exactly(self, s27, tmp_path):
        path = str(tmp_path / "v.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=30, period=20, seed=5)
        assignment = get_partitioner("Random", seed=4).partition(s27, 3)
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus,
                VirtualMachine(num_nodes=3, gvt_interval=64), tracer=tracer,
            ).run()
        records = read_trace(path)
        assert result.rollbacks > 0
        cascades = _reconcile(records, result)
        # Remote-caused members carry the resident node of their
        # sender, so cut-edge attribution has real endpoints.
        remote = [
            m for c in cascades for m in c.members if m.remote_cause
        ]
        assert remote, "a 3-way random partition must produce remote causes"

    def test_virtual_checkpointing_and_lazy_reconcile(self, s27, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=30, period=20, seed=5)
        assignment = get_partitioner("DFS", seed=1).partition(s27, 3)
        machine = VirtualMachine(
            num_nodes=3, gvt_interval=64,
            checkpoint_interval=4, cancellation="lazy",
        )
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus, machine, tracer=tracer
            ).run()
        _reconcile(read_trace(path), result)

    def test_process_trace_reconciles_exactly(self, s27, tmp_path):
        path = str(tmp_path / "p.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 4)
        result = ProcessTimeWarpSimulator(
            s27, assignment, stimulus,
            VirtualMachine(num_nodes=4, gvt_interval=32),
            trace_path=path,
        ).run()
        _reconcile(read_trace(path), result)

    def test_process_attribution_sums_to_wall(self, s27, tmp_path):
        path = str(tmp_path / "pattr.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 2)
        ProcessTimeWarpSimulator(
            s27, assignment, stimulus,
            VirtualMachine(num_nodes=2, gvt_interval=32),
            trace_path=path,
        ).run()
        analysis = analyze_trace(read_trace(path))
        attribution = analysis["attribution"]
        assert len(attribution["nodes"]) == 2
        for bucket in attribution["nodes"].values():
            attr = bucket["attr"]
            assert set(attr) == {
                "compute", "transport", "gvt", "park", "setup", "idle",
            }
            assert attr["compute"] == pytest.approx(bucket["busy"])
            assert attr["gvt"] > 0  # every node applied a broadcast
            # idle is the residual, so the six parts are the node wall.
            assert sum(attr.values()) == pytest.approx(
                bucket["wall"], rel=1e-9
            )
            assert all(v >= 0 for v in attr.values())
        rendered = render_analysis(analysis)
        assert all(k in rendered for k in ("gvt", "park", "setup"))

    def test_virtual_attribution_decomposes_busy(self, s27, tmp_path):
        path = str(tmp_path / "attr.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=30, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 4)
        with TraceWriter(path) as tracer:
            TimeWarpSimulator(
                s27, assignment, stimulus,
                VirtualMachine(num_nodes=4, gvt_interval=64), tracer=tracer,
            ).run()
        attribution = wall_time_attribution(read_trace(path))
        assert len(attribution["nodes"]) == 4
        for bucket in attribution["nodes"].values():
            attr = bucket["attr"]
            parts = sum(
                attr[k] for k in
                ("compute", "rollback", "gvt", "send", "recv", "migration")
            )
            # recv is the exact residual, so the parts resum to busy.
            assert parts == pytest.approx(bucket["busy"], rel=1e-9)
            assert attr["idle"] == pytest.approx(
                bucket["wall"] - bucket["busy"], abs=1e-9
            )
            assert all(v >= 0 for v in attr.values())


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_path_is_a_real_circuit_chain(self, s27, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=30, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 4)
        machine = VirtualMachine(num_nodes=4, gvt_interval=64)
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus, machine, tracer=tracer
            ).run()
        records = read_trace(path)
        cp = critical_path(
            records, s27, assignment=assignment,
            cost_model=machine.cost_model,
        )
        assert 0 < cp["events"] <= result.events_processed
        # Consecutive path gates are real fanin edges of the circuit.
        for u, v in zip(cp["path"], cp["path"][1:]):
            assert u in s27.gates[v].fanin
        assert 0 <= cp["crossings"] <= max(0, len(cp["path"]) - 1)
        assert cp["est_seconds"] > 0
        # The modelled run can never beat the critical-path bound by
        # more than its crossing/overhead slack on a single node.
        assert cp["est_seconds"] <= result.execution_time * result.num_nodes


# ----------------------------------------------------------------------
# the scorecard
# ----------------------------------------------------------------------
class TestScorecard:
    def _traced_run(self, s27, tmp_path, algorithm="Multilevel"):
        path = str(tmp_path / f"{algorithm}.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=30, period=20, seed=5)
        assignment = get_partitioner(algorithm, seed=3).partition(s27, 4)
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus,
                VirtualMachine(num_nodes=4, gvt_interval=64), tracer=tracer,
            ).run()
        return result, assignment, read_trace(path)

    def test_row_reconciles_and_renders(self, s27, tmp_path):
        result, assignment, records = self._traced_run(s27, tmp_path)
        row = scorecard_row(result, assignment, records)
        assert row["reconciled"] is True
        assert row["rollbacks"] == result.rollbacks
        assert row["edge_cut"] > 0
        assert 0 < row["boundary_lps"] <= s27.num_gates
        text = render_scorecard([row])
        assert "Multilevel" in text and "rb/cut" in text

    def test_unaccounted_trace_is_rejected(self, s27, tmp_path):
        result, assignment, records = self._traced_run(s27, tmp_path)
        # Drop one rollback record: the scorecard must refuse to
        # build a row from a trace that no longer accounts for the
        # kernel's counters.
        tampered = [r for r in records if r.get("kind") != "rollback"]
        tampered += [r for r in records if r.get("kind") == "rollback"][:-1]
        with pytest.raises(AssertionError, match="unattributed|reconcile"):
            scorecard_row(result, assignment, tampered)


# ----------------------------------------------------------------------
# the tools, end to end (subprocess, like CI runs them)
# ----------------------------------------------------------------------
def _tool(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=300, **kwargs,
    )


class TestTools:
    def test_partition_report_scorecard(self, tmp_path):
        out = tmp_path / "rows.json"
        proc = _tool([
            "tools/partition_report.py", "--circuit", "s27", "--nodes", "2",
            "--cycles", "15", "--json", str(out),
        ])
        assert proc.returncode == 0, proc.stderr
        assert "cascade-attributed" in proc.stdout
        import json

        rows = json.loads(out.read_text())
        assert [r["algorithm"] for r in rows] == [
            "Random", "DFS", "Cluster", "Topological", "Multilevel",
            "ConePartition",
        ]
        assert all(r["reconciled"] for r in rows)

    def test_trace_report_prints_the_analysis(self, s27, tmp_path):
        path = str(tmp_path / "s27.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Random", seed=4).partition(s27, 3)
        with TraceWriter(path) as tracer:
            TimeWarpSimulator(
                s27, assignment, stimulus,
                VirtualMachine(num_nodes=3, gvt_interval=64), tracer=tracer,
            ).run()
        proc = _tool(["tools/trace_report.py", path])
        assert proc.returncode == 0, proc.stderr
        expected = render_analysis(analyze_trace(read_trace(path)), title=path)
        assert proc.stdout == expected + "\n"

    def test_trace_report_compare_flags_regression(self, s27, tmp_path):
        quiet = str(tmp_path / "a.jsonl")
        noisy = str(tmp_path / "b.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        for path, algorithm, k in (
            (quiet, "ConePartition", 2), (noisy, "Random", 4),
        ):
            assignment = get_partitioner(algorithm, seed=4).partition(s27, k)
            with TraceWriter(path) as tracer:
                TimeWarpSimulator(
                    s27, assignment, stimulus,
                    VirtualMachine(num_nodes=k, gvt_interval=64),
                    tracer=tracer,
                ).run()
        same = _tool(["tools/trace_report.py", "--compare", quiet, quiet])
        assert same.returncode == 0 and "OK" in same.stdout
        worse = _tool(["tools/trace_report.py", "--compare", quiet, noisy])
        assert worse.returncode == 1 and "REGRESSION" in worse.stdout

    def test_tw_top_once_renders_snapshots(self, s27, tmp_path):
        status = str(tmp_path / "run.status")
        stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 2)
        ProcessTimeWarpSimulator(
            s27, assignment, stimulus, VirtualMachine(num_nodes=2),
            status_path=status,
        ).run()
        proc = _tool(["tools/tw_top.py", status, "--once"])
        assert proc.returncode == 0, proc.stderr
        assert "2 node(s)" in proc.stdout
        assert "done" in proc.stdout
        missing = _tool(["tools/tw_top.py", str(tmp_path / "nope"), "--once"])
        assert missing.returncode == 1


class TestMigrationSummary:
    def test_synthetic_records_aggregate(self):
        from repro.obs.analyze import migration_summary

        records = [
            {"kind": "migr", "src": 0, "dst": 1, "lps": 2, "pending": 5,
             "gvt": 60},
            {"kind": "migr", "src": 0, "dst": 1, "lps": 1, "pending": 0,
             "gvt": 120},
            {"kind": "migr", "src": 2, "dst": 0, "lps": 3, "pending": 7,
             "gvt": 180},
            {"kind": "gvt_round", "cid": 1, "gvt": 60},
        ]
        summary = migration_summary(records)
        assert summary["migrations"] == 3
        assert summary["lps_moved"] == 6
        assert summary["pending_moved"] == 12
        assert summary["edges"] == {(0, 1): 3, (2, 0): 3}

    def test_virtual_migrating_trace_renders_section(
        self, medium_circuit, tmp_path
    ):
        from repro.partition import PartitionAssignment

        path = str(tmp_path / "migr.jsonl")
        stimulus = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        n = medium_circuit.num_gates
        cut = int(n * 0.7)
        assignment = PartitionAssignment(
            medium_circuit, 4,
            [0 if i < cut else 1 + (i % 3) for i in range(n)],
            algorithm="skewed",
        )
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                medium_circuit, assignment, stimulus,
                VirtualMachine(
                    num_nodes=4, migration_threshold=1.5, gvt_interval=128
                ),
                tracer=tracer,
            ).run()
        assert result.migrations > 0
        analysis = analyze_trace(read_trace(path))
        summary = analysis["migration"]
        assert summary["lps_moved"] == result.migrations
        assert summary["pending_moved"] >= 0
        assert all(src != dst for src, dst in summary["edges"])
        rendered = render_analysis(analysis)
        assert "migration:" in rendered
        assert "LPs rehomed" in rendered
