"""Unit and integration tests for the multiprocess Time Warp backend.

Three layers, cheapest first: the GVT token protocol as pure logic, the
per-node engine driven transport-free inside one process, and the real
``multiprocessing`` backend end to end (separate OS pids and all).
Cross-backend result equivalence lives in
``test_differential_backends.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ConfigError, SimulationError
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine
from repro.warped.messages import Message
from repro.warped.parallel import GvtClerk, GvtToken, NodeEngine
from repro.warped.parallel.protocol import T_INF
from repro.warped.world import World


# ----------------------------------------------------------------------
# GVT protocol logic (no processes, no queues)
# ----------------------------------------------------------------------
class TestGvtProtocol:
    def test_send_receive_balance(self):
        clerk = GvtClerk(node=0)
        assert clerk.note_send(100) == 0  # color = not-yet-joined cid 0
        clerk.note_send(50)
        clerk.note_receive(0)
        # Computation 1: the two sends and one receive are all white.
        assert clerk.white_balance(1) == 1

    def test_fold_token_turns_red_and_tracks_send_min(self):
        clerk = GvtClerk(node=1)
        clerk.note_send(40)                      # white for cid 1
        token = GvtToken(cid=1)
        clerk.fold_token(token, local_min=75.0)
        assert clerk.cur_cid == 1
        assert token.m_clock == 75.0
        assert token.m_send == T_INF             # nothing sent red yet
        assert token.count == 1                  # the white send
        clerk.note_send(60)                      # now colored 1 = red
        token2 = GvtToken(cid=1)
        clerk.fold_token(token2, local_min=75.0)
        assert token2.m_send == 60

    def test_conclusive_round_yields_min(self):
        token = GvtToken(cid=3)
        token.fold(local_min=120.0, red_min=90.0, white_balance=0)
        token.fold(local_min=80.0, red_min=T_INF, white_balance=0)
        assert token.conclusive
        assert token.gvt == 80.0

    def test_inconclusive_round_when_whites_in_flight(self):
        sender = GvtClerk(node=0)
        receiver = GvtClerk(node=1)
        sender.note_send(10)  # in flight: receiver has not seen it
        token = GvtToken(cid=1)
        sender.fold_token(token, local_min=T_INF)
        receiver.fold_token(token, local_min=T_INF)
        assert not token.conclusive  # count == 1: retry the round
        receiver.note_receive(0)
        token2 = GvtToken(cid=1)
        sender.fold_token(token2, local_min=T_INF)
        receiver.fold_token(token2, local_min=T_INF)
        assert token2.conclusive
        assert token2.gvt == T_INF

    def test_two_node_ring_quiesces_to_infinity(self):
        """Full protocol walk: messages drain, then GVT proves it."""
        clerks = [GvtClerk(node=i) for i in range(2)]
        color = clerks[0].note_send(30)
        clerks[1].note_receive(color)
        for cid in (1, 2):
            token = GvtToken(cid=cid)
            for clerk in clerks:
                clerk.fold_token(token, local_min=T_INF)
            assert token.conclusive
            assert token.gvt == T_INF
            clerks[0].forget_before(cid)

    def test_forget_before_preserves_balances(self):
        clerk = GvtClerk(node=0)
        clerk.note_send(10)
        clerk.cur_cid = 1
        clerk.note_send(20)
        clerk.cur_cid = 5
        clerk.note_receive(0)
        before = clerk.white_balance(6)
        clerk.forget_before(5)
        assert clerk.white_balance(6) == before
        assert len(clerk.sent) <= 2


# ----------------------------------------------------------------------
# NodeEngine, transport-free (deterministic in-process shuttling)
# ----------------------------------------------------------------------
def _drive_engines(circuit, assignment, k, stimulus):
    """Run k engines to quiescence, shuttling outboxes by hand.

    Each round's messages are held back one round, which manufactures
    stragglers and exercises the rollback/anti-message paths.
    """
    world = World(circuit, k, assignment)
    engines = [NodeEngine(world, node, stimulus) for node in range(k)]
    for engine in engines:
        engine.schedule_initial()
    in_flight: list[tuple[int, Message]] = []
    for _ in range(200_000):
        delivering, in_flight = in_flight, []
        for dest, msg in delivering:
            engines[dest].handle_remote(msg)
        for engine in engines:
            for _ in range(4):
                if engine.min_pending() is None:
                    break
                engine.process_one()
            in_flight.extend(engine.outbox)
            engine.outbox.clear()
        if not in_flight and all(e.min_pending() is None for e in engines):
            break
    else:  # pragma: no cover - would be a livelock bug
        raise AssertionError("engines failed to quiesce")
    for engine in engines:
        engine.check_quiescent()
    return engines


class TestNodeEngine:
    @pytest.mark.parametrize("k", [2, 3])
    def test_engines_reach_sequential_fixpoint(self, s27, k):
        stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
        sequential = SequentialSimulator(s27, stimulus).run()
        assignment = get_partitioner("DFS", seed=1).partition(s27, k)
        engines = _drive_engines(s27, assignment.assignment, k, stimulus)
        values = {}
        captures = {}
        for engine in engines:
            values.update(engine.final_values())
            captures.update(engine.capture_log)
        assert [values[i] for i in range(s27.num_gates)] == sequential.final_values
        assert sorted(
            (g, c, v) for (g, c), v in captures.items()
        ) == sequential.committed_captures

    def test_delayed_delivery_causes_rollbacks(self, s27):
        stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
        assignment = get_partitioner("Random", seed=4).partition(s27, 3)
        engines = _drive_engines(s27, assignment.assignment, 3, stimulus)
        assert sum(e.counters["rollbacks"] for e in engines) > 0

    def test_misrouted_message_rejected(self, s27):
        stimulus = RandomStimulus(s27, num_cycles=3, seed=0)
        assignment = get_partitioner("Random", seed=4).partition(s27, 2)
        engine = NodeEngine(World.of(assignment), 0, stimulus)
        foreign = next(
            i for i, node in enumerate(assignment.assignment) if node == 1
        )
        with pytest.raises(SimulationError, match="owned by node"):
            engine.handle_remote(Message(5, 2, 0, 0, 1, foreign, 999))


# ----------------------------------------------------------------------
# The real multiprocess backend
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def s27_setup():
    from repro.circuit.netlists import load_s27

    circuit = load_s27()
    stimulus = RandomStimulus(circuit, num_cycles=20, period=20, seed=5)
    sequential = SequentialSimulator(circuit, stimulus).run()
    return circuit, stimulus, sequential


class TestProcessBackend:
    def test_runs_on_distinct_os_processes(self, s27_setup):
        circuit, stimulus, sequential = s27_setup
        assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
        sim = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus, VirtualMachine(num_nodes=2, gvt_interval=32)
        )
        result = sim.run()
        assert result.backend == "process"
        assert len(set(sim.worker_pids.values())) == 2
        assert os.getpid() not in sim.worker_pids.values()
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures

    def test_stats_shapes_match_virtual_backend(self, s27_setup):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Cluster", seed=3).partition(circuit, 3)
        machine = VirtualMachine(num_nodes=3, gvt_interval=32)
        result = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus, machine
        ).run()
        assert len(result.node_stats) == 3
        assert [s.node for s in result.node_stats] == [0, 1, 2]
        assert sum(s.num_lps for s in result.node_stats) == circuit.num_gates
        assert sum(s.events_processed for s in result.node_stats) == (
            result.events_processed
        )
        assert result.events_committed > 0
        assert result.gvt_rounds >= 1
        assert all(s.wall_time > 0 for s in result.node_stats)
        assert 0 < result.efficiency <= 1.0
        # The summary line renders without error on measured numbers.
        assert circuit.name in result.summary()

    def test_optimism_window_respected(self, s27_setup):
        circuit, stimulus, sequential = s27_setup
        assignment = get_partitioner("Topological", seed=3).partition(circuit, 2)
        machine = VirtualMachine(
            num_nodes=2, gvt_interval=16, optimism_window=40
        )
        result = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus, machine
        ).run()
        assert result.final_values == sequential.final_values

    def test_single_node_degenerate_ring(self, s27_setup):
        circuit, stimulus, sequential = s27_setup
        assignment = get_partitioner("Random", seed=1).partition(circuit, 1)
        result = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus, VirtualMachine(num_nodes=1)
        ).run()
        assert result.final_values == sequential.final_values
        assert result.rollbacks == 0
        assert result.app_messages == 0

    def test_rejects_unsupported_policies(self, s27_setup):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Random", seed=1).partition(circuit, 2)

        def build(**kw):
            return ProcessTimeWarpSimulator(
                circuit, assignment, stimulus,
                VirtualMachine(num_nodes=2, **kw),
            )

        with pytest.raises(ConfigError, match="aggressive"):
            build(cancellation="lazy")
        # migration_threshold is no longer rejected: the process backend
        # now migrates LPs at GVT epochs (see TestProcessMigration).
        build(migration_threshold=1.5)
        # checkpoint_interval is no longer rejected: it now selects
        # crash-recovery checkpoint epochs (see test_recovery.py).
        build(checkpoint_interval=8)
        # ... but a restart budget without checkpoints to restart from is.
        with pytest.raises(ConfigError, match="max_restarts"):
            ProcessTimeWarpSimulator(
                circuit, assignment, stimulus,
                VirtualMachine(num_nodes=2), max_restarts=1,
            )

    def test_rejects_node_count_mismatch(self, s27_setup):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Random", seed=1).partition(circuit, 2)
        with pytest.raises(SimulationError, match="k=2"):
            ProcessTimeWarpSimulator(
                circuit, assignment, stimulus, VirtualMachine(num_nodes=3)
            )

    def test_worker_failure_surfaces_as_simulation_error(self, s27_setup):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Random", seed=1).partition(circuit, 2)
        sim = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus,
            VirtualMachine(num_nodes=2), max_events=10,
        )
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_workers_exit_cleanly_on_success(self, s27_setup):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 3)
        sim = ProcessTimeWarpSimulator(
            circuit, assignment, stimulus,
            VirtualMachine(num_nodes=3, gvt_interval=32),
        )
        sim.run()
        # Shutdown joined every worker (nobody needed terminate()).
        assert sim.worker_exitcodes == {0: 0, 1: 0, 2: 0}


# ----------------------------------------------------------------------
# Worker-death liveness (REPRO_TW_FAULT injection hooks)
# ----------------------------------------------------------------------
class TestWorkerDeath:
    """Shutdown/liveness races, each pinned by an injected fault."""

    def _sim(self, s27_setup, n=2, **kw):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Random", seed=1).partition(circuit, n)
        kw.setdefault("timeout", 60.0)
        return ProcessTimeWarpSimulator(
            circuit, assignment, stimulus,
            VirtualMachine(num_nodes=n, gvt_interval=32), **kw,
        )

    def test_injected_exception_ships_child_traceback(
        self, s27_setup, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TW_FAULT", "1:raise")
        sim = self._sim(s27_setup)
        start = time.monotonic()
        with pytest.raises(SimulationError, match="node 1 failed") as exc:
            sim.run()
        # The parent reports the child's actual traceback, fast — not a
        # timeout and not a generic "something died".
        assert "injected fault in node 1" in str(exc.value)
        assert "Traceback" in str(exc.value)
        assert time.monotonic() - start < 30

    def test_silent_death_names_node_and_exitcode(
        self, s27_setup, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit:7")
        sim = self._sim(s27_setup)
        start = time.monotonic()
        with pytest.raises(
            SimulationError, match=r"node 1 \(exitcode 7\)"
        ):
            sim.run()
        # Detected via exit codes + a drain of the control pipe, far
        # inside the timeout.
        assert time.monotonic() - start < 30

    def test_late_report_is_not_mistaken_for_death(
        self, s27_setup, monkeypatch
    ):
        """Regression for the ``results.empty()`` liveness check.

        Node 1 finishes the simulation, *sleeps past several parent
        polls*, then reports.  Node 0 reports and exits immediately, so
        the old check — "some worker is dead and the results queue
        looks empty" — deterministically misfired with "a node process
        died without reporting" while node 1's payload was seconds from
        arriving.  The parent must wait for the report and complete the
        run.
        """
        monkeypatch.setenv("REPRO_TW_FAULT", "1:late-report:1.0")
        sim = self._sim(s27_setup)
        result = sim.run()
        assert result.backend == "process"
        assert sim.worker_exitcodes == {0: 0, 1: 0}

    def test_hung_worker_hits_the_timeout(self, s27_setup, monkeypatch):
        monkeypatch.setenv("REPRO_TW_FAULT", "0:hang")
        sim = self._sim(s27_setup, timeout=2.0)
        with pytest.raises(SimulationError, match="timed out after 2s"):
            sim.run()
        # The hung worker was terminated, not left behind.
        assert sim.worker_exitcodes[0] is not None
        assert sim.worker_exitcodes[0] != 0

    def test_shutdown_drains_wedged_queue_feeder(
        self, s27_setup, monkeypatch
    ):
        """Regression for the shutdown-path queue handling.

        Node 0 stuffs ~4k messages into its *own* inbox (which nobody
        drains) and exits without reporting.  When inboxes were
        ``multiprocessing.Queue`` s, its feeder thread blocked flushing
        into the full pipe and the process could not exit on its own;
        shutdown drains inboxes *while* joining to unwedge it.  The pipe
        channel has no feeder — the flood stops at ``Full`` — and the
        contract stands: the flooder exits cleanly, exitcode 0.
        """
        monkeypatch.setenv("REPRO_TW_FAULT", "0:flood:0")
        sim = self._sim(s27_setup, timeout=2.0)
        with pytest.raises(SimulationError):
            sim.run()
        assert sim.worker_exitcodes[0] == 0, (
            "flooding worker should exit cleanly once the parent "
            f"drains its queue, got {sim.worker_exitcodes}"
        )

    def test_fault_spec_parsing_ignores_other_nodes(self, monkeypatch):
        from repro.warped.parallel.backend import _worker_faults

        monkeypatch.setenv(
            "REPRO_TW_FAULT", "0:exit:3, 1:late-report:0.5 ,2:raise"
        )
        assert _worker_faults(0) == [("exit", "3")]
        assert _worker_faults(1) == [("late-report", "0.5")]
        assert _worker_faults(2) == [("raise", None)]
        assert _worker_faults(3) == []
        monkeypatch.delenv("REPRO_TW_FAULT")
        assert _worker_faults(0) == []

    def test_fault_spec_without_mode_is_config_error(self, monkeypatch):
        """Regression: ``REPRO_TW_FAULT=0`` used to IndexError."""
        from repro.warped.parallel.backend import _worker_faults

        monkeypatch.setenv("REPRO_TW_FAULT", "0")
        with pytest.raises(ConfigError, match=r"'0' has no mode"):
            _worker_faults(0)
        # A trailing colon with nothing after it is equally modeless.
        monkeypatch.setenv("REPRO_TW_FAULT", "1:")
        with pytest.raises(ConfigError, match="has no mode"):
            _worker_faults(1)

    def test_fault_spec_non_integer_node_is_config_error(self, monkeypatch):
        """Regression: ``REPRO_TW_FAULT=x:raise`` used to ValueError."""
        from repro.warped.parallel.backend import _worker_faults

        monkeypatch.setenv("REPRO_TW_FAULT", "x:raise")
        with pytest.raises(ConfigError, match=r"'x:raise' has a non-integer"):
            _worker_faults(0)

    def test_fault_spec_unknown_mode_is_config_error(self, monkeypatch):
        from repro.warped.parallel.backend import _worker_faults

        monkeypatch.setenv("REPRO_TW_FAULT", "0:explode")
        with pytest.raises(ConfigError, match="unknown mode 'explode'"):
            _worker_faults(0)

    def test_fault_spec_attempt_gating_and_persistence(self, monkeypatch):
        """Faults fire on attempt 0 only unless re-armed with ``*``."""
        from repro.warped.parallel.backend import _worker_faults

        monkeypatch.setenv("REPRO_TW_FAULT", "0:exit:3,1:exit-at*:200")
        assert _worker_faults(0, attempt=0) == [("exit", "3")]
        assert _worker_faults(0, attempt=1) == []
        assert _worker_faults(1, attempt=0) == [("exit-at", "200")]
        assert _worker_faults(1, attempt=3) == [("exit-at", "200")]

    def test_flood_fault_terminates_against_bounded_inbox(
        self, s27_setup, monkeypatch
    ):
        """Regression: the flood injector used blocking ``put`` and could
        deadlock itself against a full bounded queue.  With a tiny
        ``inbox_maxsize`` the run must still terminate (the injector
        drops instead of blocking)."""
        monkeypatch.setenv("REPRO_TW_FAULT", "0:flood:0")
        sim = self._sim(
            s27_setup, timeout=5.0, inbox_maxsize=64
        )
        start = time.monotonic()
        with pytest.raises(SimulationError):
            sim.run()
        assert time.monotonic() - start < 20


# ----------------------------------------------------------------------
# Adaptive LP migration on real OS processes
# ----------------------------------------------------------------------
class TestProcessMigration:
    """End-to-end adaptive repartitioning over both wire transports.

    The decisions are wall-clock driven (real CPU time per node), so
    whether any LP moves on a run this short is up to the host's
    scheduler: these tests assert only what holds either way — committed
    results identical to the sequential oracle, trace records matching
    the reported count.  That a skewed load fold *does* order a
    migration is pinned in ``test_gvt_ring.py`` with an injected fold.
    """

    def _skewed(self, circuit, k=2, frac=0.8):
        from repro.partition import PartitionAssignment

        n = circuit.num_gates
        cut = int(n * frac)
        assignment = [
            0 if i < cut else 1 + (i % (k - 1)) for i in range(n)
        ]
        return PartitionAssignment(circuit, k, assignment, algorithm="skewed")

    @pytest.mark.parametrize("transport", ("queue", "shm"))
    def test_skewed_partition_migrates(self, s27_setup, transport):
        circuit, _, _ = s27_setup
        stimulus = RandomStimulus(circuit, num_cycles=40, period=20, seed=5)
        sequential = SequentialSimulator(circuit, stimulus).run()
        machine = VirtualMachine(
            num_nodes=2, gvt_interval=16,
            migration_threshold=1.2, migration_fraction=0.25,
        )
        result = ProcessTimeWarpSimulator(
            circuit, self._skewed(circuit), stimulus, machine,
            transport=transport,
        ).run()
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures

    def test_migration_emits_trace_records(self, s27_setup, tmp_path):
        circuit, _, _ = s27_setup
        stimulus = RandomStimulus(circuit, num_cycles=40, period=20, seed=5)
        trace = str(tmp_path / "migr.jsonl")
        machine = VirtualMachine(
            num_nodes=2, gvt_interval=16,
            migration_threshold=1.2, migration_fraction=0.25,
        )
        result = ProcessTimeWarpSimulator(
            circuit, self._skewed(circuit), stimulus, machine,
            trace_path=trace,
        ).run()
        from repro.obs import read_trace

        migrs = [r for r in read_trace(trace) if r["kind"] == "migr"]
        assert result.migrations == sum(r["lps"] for r in migrs)
        for record in migrs:
            assert record["src"] != record["dst"]
            assert record["lps"] >= 1
            assert record["pending"] >= 0
            assert record["gvt"] >= 0

    def test_engine_forwards_misrouted_when_migrating(self, s27):
        """With migration on, a stale-map delivery forwards, not faults."""
        stimulus = RandomStimulus(circuit=s27, num_cycles=4, period=20, seed=4)
        assignment = get_partitioner("Random", seed=4).partition(s27, 2)
        engine = NodeEngine(
            World.of(assignment), 0, stimulus, migration_enabled=True
        )
        foreign = next(
            i for i, node in enumerate(assignment.assignment) if node == 1
        )
        engine.handle_remote(Message(5, 2, 0, 0, 1, foreign, 999))
        assert engine.counters["forwarded"] == 1
        assert engine.outbox and engine.outbox[-1][0] == 1

    def test_extract_adopt_round_trip(self, s27):
        """LP state survives an extract → adopt hop bit-for-bit."""
        stimulus = RandomStimulus(circuit=s27, num_cycles=4, period=20, seed=4)
        assignment = get_partitioner("Random", seed=4).partition(s27, 2)
        world = World.of(assignment)
        src = NodeEngine(world, 0, stimulus, migration_enabled=True)
        dst = NodeEngine(world, 1, stimulus, migration_enabled=True)
        src.schedule_initial()
        for _ in range(10):
            if src.queue.min_time is None:
                break
            src.process_one()
            src.outbox.clear()
        before_lps = len(src.lps)
        payload = src.extract_migrants(1, 0.3, version=7)
        assert payload is not None
        moved = payload["gates"]
        assert 1 <= len(moved) <= before_lps - 1
        assert len(src.lps) == before_lps - len(moved)
        gates = dst.adopt_migrants(payload, 0, version=7)
        assert gates == moved
        for g in moved:
            # Both sides now agree the gates live on node 1.
            assert src.owner(g) == 1
            assert dst.owner(g) == 1
            assert g in dst.lps
        assert src.counters["migrations_out"] == len(moved)
        assert dst.counters["migrations_in"] == len(moved)

    def test_stale_ownership_announcement_ignored(self, s27):
        stimulus = RandomStimulus(circuit=s27, num_cycles=2, period=20, seed=4)
        assignment = get_partitioner("Random", seed=4).partition(s27, 2)
        engine = NodeEngine(
            World.of(assignment), 0, stimulus, migration_enabled=True
        )
        gate = 0
        engine.apply_ownership([gate], 1, version=5)
        assert engine.owner(gate) == 1
        engine.apply_ownership([gate], 0, version=3)  # stale: ignored
        assert engine.owner(gate) == 1
        engine.apply_ownership([gate], 0, version=6)
        assert engine.owner(gate) == 0
