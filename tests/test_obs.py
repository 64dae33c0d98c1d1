"""The observability layer: sample digests, tracing, and cross-engine wiring.

Covers the pure pieces (percentiles, digests, JSONL writer, shard
merge) and then each engine's emission contract, ending with the
acceptance invariant: a traced multiprocess s27 run whose merged trace
accounts for *exactly* the rollbacks and GVT rounds the result reports.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.obs import (
    TraceWriter,
    analyze_trace,
    merge_shards,
    read_trace,
    render_analysis,
    shard_path,
    summarize,
)
from repro.obs.metrics import percentile
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine


# ----------------------------------------------------------------------
# repro.obs.metrics: percentiles and sample digests
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summarize_digest(self):
        digest = summarize([3.0, 1.0, 2.0])
        assert digest["count"] == 3
        assert digest["min"] == 1.0
        assert digest["max"] == 3.0
        assert digest["p50"] == 2.0

    def test_summarize_empty_is_explicit(self):
        # No samples is a first-class answer, not an error: every stats
        # key is present (None), so renderers and JSON consumers never
        # hit a KeyError or NaN.
        digest = summarize([])
        assert digest == {
            "count": 0, "min": None, "mean": None,
            "p50": None, "p90": None, "max": None,
        }
        assert json.loads(json.dumps(digest)) == digest


# ----------------------------------------------------------------------
# trace writer + shard merge
# ----------------------------------------------------------------------
class TestTracer:
    def test_writer_emits_epoch_relative_json_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path, node=2) as w:
            w.emit("rollback", lp=5, depth=3)
            w.emit("gvt_round", gvt=None, final=True, latency=0.25)
            # Strict JSON or nothing: a non-finite float is refused
            # before a byte of it is written.
            with pytest.raises(ValueError):
                w.emit("gvt_round", gvt=None, latency=float("inf"))
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["rollback", "gvt_round"]
        assert records[0]["node"] == 2
        assert records[0]["lp"] == 5
        assert all(r["ts"] >= 0 for r in records)
        assert records[1]["gvt"] is None and records[1]["final"]
        for line in open(path):
            json.loads(line)

    def test_merge_orders_by_time_then_node(self, tmp_path):
        base = str(tmp_path / "merged.jsonl")
        epoch = 1000.0
        for node, stamps in ((0, [0.3, 0.1]), (1, [0.2])):
            with open(shard_path(base, node), "w") as fh:
                for ts in stamps:
                    fh.write(json.dumps({"ts": ts, "node": node, "kind": "x"}) + "\n")
        count = merge_shards(
            base, [shard_path(base, n) for n in (0, 1, 5)],
            extra=[{"ts": 0.2, "node": -1, "kind": "run_summary"}],
        )
        assert count == 4  # the missing shard 5 is skipped, not an error
        records = read_trace(base)
        assert [(r["ts"], r["node"]) for r in records] == [
            (0.1, 0), (0.2, -1), (0.2, 1), (0.3, 0),
        ]
        # Shards are consumed by the merge.
        assert not os.path.exists(shard_path(base, 0))
        del epoch

    def test_writer_stamps_monotonic_seq(self, tmp_path):
        path = str(tmp_path / "seq.jsonl")
        with TraceWriter(path, node=0) as w:
            for _ in range(4):
                w.emit("x")
        assert [r["seq"] for r in read_trace(path)] == [0, 1, 2, 3]

    def test_merge_breaks_timestamp_ties_with_writer_seq(self, tmp_path):
        # Coarse clocks collide: two writers, every record at the same
        # ts. The per-writer monotonic `seq` keeps each writer's
        # records in emission order and interleaves nodes
        # deterministically — sort key (ts, node, seq).
        base = str(tmp_path / "tie.jsonl")
        for node, kinds in ((1, ["b1", "b2"]), (0, ["a1", "a2", "a3"])):
            with open(shard_path(base, node), "w") as fh:
                for seq, kind in enumerate(kinds):
                    fh.write(json.dumps(
                        {"ts": 0.5, "node": node, "seq": seq, "kind": kind}
                    ) + "\n")
        merge_shards(base, [shard_path(base, n) for n in (0, 1)])
        records = read_trace(base)
        assert [r["kind"] for r in records] == ["a1", "a2", "a3", "b1", "b2"]
        assert [r["seq"] for r in records] == [0, 1, 2, 0, 1]

    def test_merge_can_keep_shards(self, tmp_path):
        base = str(tmp_path / "m.jsonl")
        with TraceWriter(shard_path(base, 0), node=0, epoch=0.0) as w:
            w.emit("x")
        merge_shards(base, [shard_path(base, 0)], keep_shards=True)
        assert os.path.exists(shard_path(base, 0))

    def test_merge_keeps_only_each_nodes_newest_attempt(self, tmp_path):
        """Regression: a restarted run used to merge every attempt's
        shard, double-counting the pre-crash records.  Node 0 restarted
        once (attempts 0 and 1), node 1 never did — the merge must keep
        node 0's attempt-1 records, node 1's attempt-0 records, and the
        parent's restart extras (which carry no ``attempt``)."""
        base = str(tmp_path / "r.jsonl")
        with TraceWriter(shard_path(base, 0), node=0, epoch=0.0) as w:
            w.emit("stale")
        with TraceWriter(shard_path(base, 0, 1), node=0, epoch=0.0,
                         attempt=1) as w:
            w.emit("fresh")
        with TraceWriter(shard_path(base, 1), node=1, epoch=0.0) as w:
            w.emit("survivor")
        count = merge_shards(
            base,
            [shard_path(base, 0), shard_path(base, 0, 1), shard_path(base, 1)],
            extra=[{"ts": 0.1, "node": -1, "seq": 0, "kind": "restart",
                    "to_attempt": 1}],
        )
        assert count == 3
        records = read_trace(base)
        assert sorted(r["kind"] for r in records) == [
            "fresh", "restart", "survivor",
        ]
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["fresh"]["attempt"] == 1
        assert "attempt" not in by_kind["survivor"]  # attempt 0: unstamped


# ----------------------------------------------------------------------
# engine emission contracts
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_sequential_run_brackets(self, s27, tmp_path):
        path = str(tmp_path / "seq.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=10, period=20, seed=3)
        with TraceWriter(path) as tracer:
            result = SequentialSimulator(s27, stimulus, tracer=tracer).run()
        records = read_trace(path)
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"
        assert records[-1]["events"] == result.events_processed
        # Between the brackets: the committed timeline, one record per
        # active gate, accounting for every processed event.
        commits = [r for r in records[1:-1] if r["kind"] == "commit"]
        assert len(commits) == len(records) - 2
        assert sum(r["n"] for r in commits) == result.events_processed

    def test_virtual_backend_accounts_for_itself(self, s27, tmp_path):
        path = str(tmp_path / "virtual.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Random", seed=4).partition(s27, 3)
        machine = VirtualMachine(num_nodes=3, gvt_interval=64)
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus, machine, tracer=tracer
            ).run()
        analysis = analyze_trace(read_trace(path))
        assert analysis["cascade"]["rollbacks"] == result.rollbacks
        assert analysis["gvt"]["rounds"] == result.gvt_rounds
        assert analysis["kinds"]["node_summary"] == 3
        assert result.rollbacks > 0  # Random x3 must produce stragglers

    @pytest.mark.parametrize(
        "policy",
        [
            {},
            {"cancellation": "lazy"},
            {"checkpoint_interval": 4},
            {"migration_threshold": 1.5},
        ],
        ids=["aggressive", "lazy", "checkpoint-4", "migration-1.5"],
    )
    def test_virtual_books_are_per_node(self, s27, tmp_path, policy):
        """Each node numbers its own rollbacks 1, 2, ... (the process
        backend's ``rid``), and every result total is a sum over nodes."""
        path = str(tmp_path / "books.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Random", seed=4).partition(s27, 3)
        machine = VirtualMachine(num_nodes=3, gvt_interval=16, **policy)
        with TraceWriter(path) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stimulus, machine, tracer=tracer
            ).run()
        nodes = result.node_stats
        rids: dict[int, list[int]] = {s.node: [] for s in nodes}
        for record in read_trace(path):
            if record["kind"] == "rollback":
                rids[record["node"]].append(record["rid"])
        for s in nodes:
            assert rids[s.node] == list(range(1, s.rollbacks + 1))
        assert sum(1 for s in nodes if s.rollbacks) > 1
        assert (
            result.events_processed,
            result.events_rolled_back,
            result.rollbacks,
            result.app_messages,
            result.anti_messages,
            result.local_messages,
        ) == (
            sum(s.events_processed for s in nodes),
            sum(s.events_rolled_back for s in nodes),
            sum(s.rollbacks for s in nodes),
            sum(s.messages_sent_remote for s in nodes),
            sum(s.anti_messages_sent for s in nodes),
            sum(s.messages_sent_local for s in nodes),
        )
        if "migration_threshold" in policy:
            assert result.migrations > 0

    def test_report_renders(self, s27, tmp_path):
        path = str(tmp_path / "r.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=10, period=20, seed=5)
        assignment = get_partitioner("DFS", seed=1).partition(s27, 2)
        with TraceWriter(path) as tracer:
            TimeWarpSimulator(
                s27, assignment, stimulus,
                VirtualMachine(num_nodes=2, gvt_interval=64), tracer=tracer,
            ).run()
        text = render_analysis(analyze_trace(read_trace(path)))
        assert "GVT rounds" in text
        assert "\n    0 " in text  # node 0's row of the per-node table


# ----------------------------------------------------------------------
# the acceptance invariant: traced multiprocess run, fully accounted
# ----------------------------------------------------------------------
class TestProcessTraceAcceptance:
    def test_merged_trace_accounts_for_result_totals(self, s27, tmp_path):
        path = str(tmp_path / "s27.trace.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Multilevel", seed=3).partition(s27, 4)
        sim = ProcessTimeWarpSimulator(
            s27, assignment, stimulus,
            VirtualMachine(num_nodes=4, gvt_interval=32),
            trace_path=path,
        )
        result = sim.run()
        records = read_trace(path)
        assert sim.trace_records == len(records) > 0
        for node in range(4):  # shards were merged and removed
            assert not os.path.exists(shard_path(path, node))
        # Merged order is (wall time, node).
        keys = [(r["ts"], r["node"]) for r in records]
        assert keys == sorted(keys)
        analysis = analyze_trace(records)
        # Per-node rollback records sum to the result's rollback total...
        per_node = {
            s.node: s.rollbacks for s in result.node_stats
        }
        for node, count in analysis["cascade"]["node_rollbacks"].items():
            assert count == per_node[node]
        assert analysis["cascade"]["rollbacks"] == result.rollbacks
        # ...and concluded GVT rounds match the ring's count exactly.
        assert analysis["gvt"]["rounds"] == result.gvt_rounds
        # Every worker contributed a busy/idle summary.
        assert analysis["kinds"]["node_summary"] == 4
        nodes = analysis["attribution"]["nodes"]
        assert all(b["wall"] > 0 for b in nodes.values())
        assert {n: b["rollbacks"] for n, b in nodes.items()} == per_node

    def test_shards_survive_a_failed_run(self, s27, tmp_path):
        from repro.errors import SimulationError

        path = str(tmp_path / "fail.trace.jsonl")
        stimulus = RandomStimulus(s27, num_cycles=20, period=20, seed=5)
        assignment = get_partitioner("Random", seed=1).partition(s27, 2)
        sim = ProcessTimeWarpSimulator(
            s27, assignment, stimulus, VirtualMachine(num_nodes=2),
            max_events=10, trace_path=path,
        )
        with pytest.raises(SimulationError):
            sim.run()
        assert not os.path.exists(path)  # no merge on failure


# ----------------------------------------------------------------------
# harness wiring
# ----------------------------------------------------------------------
class TestHarnessWiring:
    def test_runner_traces_and_measures(self, tmp_path):
        base = str(tmp_path / "runner.jsonl")
        runner = ExperimentRunner(
            ExperimentConfig(scale=0.05, num_cycles=10, trace_path=base)
        )
        results = [
            runner.run("s5378", "Multilevel", 2),
            runner.run("s5378", "DFS", 2),
        ]
        assert runner.trace_files == [base, f"{base}.1"]
        # Each run's counts are on its result, and its trace (what
        # --analyze reads) accounts for exactly them.
        for result, path in zip(results, runner.trace_files):
            analysis = analyze_trace(read_trace(path))
            assert analysis["cascade"]["rollbacks"] == result.rollbacks
            assert analysis["gvt"]["rounds"] == result.gvt_rounds

    def test_runner_defaults_stay_dark(self, tmp_path):
        runner = ExperimentRunner(ExperimentConfig(scale=0.05, num_cycles=10))
        runner.run("s5378", "Multilevel", 2)
        assert runner.trace_files == []


# ----------------------------------------------------------------------
# overhead budget (DESIGN.md §7): tracing off must cost < 2%
# ----------------------------------------------------------------------
def test_disabled_tracing_overhead_budget(s27):
    """Disabled instrumentation must stay under 2% of event cost.

    Diffing two end-to-end wall clocks is scheduler noise at the budget
    scale, so measure the two quantities directly: the cost of one
    event in an (uninstrumented-path) run, and the cost of the
    ``tracer is None`` guard — the only thing the hot paths pay when
    observability is off.  The guard fires at most once per rollback or
    GVT round, both far rarer than events, so per-guard < 2% of
    per-event bounds the total well under budget.
    """
    import time

    stimulus = RandomStimulus(s27, num_cycles=60, period=20, seed=5)
    assignment = get_partitioner("Multilevel", seed=3).partition(s27, 4)
    machine = VirtualMachine(num_nodes=4, gvt_interval=64)
    t0 = time.perf_counter()
    result = TimeWarpSimulator(s27, assignment, stimulus, machine).run()
    per_event = (time.perf_counter() - t0) / result.events_processed

    n = 200_000
    tracer = None
    t0 = time.perf_counter()
    for _ in range(n):
        if tracer is not None:
            raise AssertionError
    per_guard = (time.perf_counter() - t0) / n
    assert math.isfinite(per_event)
    assert per_guard < 0.02 * per_event
