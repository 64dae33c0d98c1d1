"""Checkpoint/restart recovery for the process backend.

Three layers, cheapest first: the epoch store and replay computation as
pure functions over files and dicts, the engine snapshot/restore
roundtrip inside one process, and the real multiprocess backend killed
mid-run and recovered end to end.  The bit-identical differential check
(crashed run == virtual == sequential) lives in
``test_differential_backends.py``.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.circuit.netlists import load_s27
from repro.errors import SimulationError
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, VirtualMachine
from repro.warped.parallel import NodeEngine, recovery
from repro.warped.parallel.protocol import MSG
from repro.warped.world import World


# ----------------------------------------------------------------------
# Epoch store (files on disk)
# ----------------------------------------------------------------------
def _payload(node, cid, **loop):
    return {"node": node, "cid": cid, "gvt": cid, "engine": {},
            "loop": loop}


def _write_epoch(directory, cid, nodes):
    for node in nodes:
        recovery.write_checkpoint(
            recovery.ckpt_path(str(directory), node, cid), _payload(node, cid)
        )


class TestEpochStore:
    def test_write_load_roundtrip(self, tmp_path):
        path = recovery.ckpt_path(str(tmp_path), 1, 3)
        nbytes = recovery.write_checkpoint(path, _payload(1, 3))
        assert nbytes > 0
        loaded = recovery.load_checkpoint(path)
        assert loaded["node"] == 1
        assert loaded["cid"] == 3
        assert loaded["version"] == recovery.CKPT_VERSION

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.node0.cid1"
        path.write_bytes(pickle.dumps({"version": 99, "node": 0, "cid": 1}))
        with pytest.raises(ValueError, match="version"):
            recovery.load_checkpoint(str(path))

    def test_latest_complete_epoch_skips_partial(self, tmp_path):
        _write_epoch(tmp_path, 2, (0, 1))
        _write_epoch(tmp_path, 5, (0, 1))
        _write_epoch(tmp_path, 7, (0,))  # node 1 died before writing
        cid, payloads = recovery.latest_complete_epoch(str(tmp_path), 2)
        assert cid == 5
        assert set(payloads) == {0, 1}

    def test_latest_complete_epoch_skips_corrupt(self, tmp_path):
        _write_epoch(tmp_path, 2, (0, 1))
        _write_epoch(tmp_path, 4, (0, 1))
        (tmp_path / "ck.node1.cid4").write_bytes(b"not a pickle")
        cid, _ = recovery.latest_complete_epoch(str(tmp_path), 2)
        assert cid == 2

    def test_no_epochs_means_none(self, tmp_path):
        assert recovery.latest_complete_epoch(str(tmp_path), 2) is None
        missing = tmp_path / "does-not-exist"
        assert recovery.latest_complete_epoch(str(missing), 2) is None

    def test_drop_epochs_after_and_before(self, tmp_path):
        for cid in (0, 3, 6):
            _write_epoch(tmp_path, cid, (0, 1))
        assert recovery.drop_epochs_after(str(tmp_path), 3) == 2
        assert sorted(recovery.scan_epochs(str(tmp_path))) == [0, 3]
        assert recovery.drop_epochs_before(str(tmp_path), 3) == 2
        assert sorted(recovery.scan_epochs(str(tmp_path))) == [3]


# ----------------------------------------------------------------------
# Replay computation (pure dict -> dict)
# ----------------------------------------------------------------------
class _Clerk:
    def __init__(self, cur_cid):
        self.cur_cid = cur_cid


def _loop(send_log=None, recv_seq=None, cur_cid=0, next_cid=1):
    return {"send_log": send_log or {}, "recv_seq": recv_seq or {},
            "clerk": _Clerk(cur_cid), "next_cid": next_cid}


class TestReplayComputation:
    def test_in_flight_messages_replayed_in_order(self):
        payloads = {
            0: _payload(0, 2, **_loop(
                send_log={1: [(1, 0, "a"), (2, 0, "b"), (3, 1, "c")]}
            )),
            # Node 1's cursor says it had received seq 1 at the cut:
            # seqs 2 and 3 were in flight and must be replayed, in order.
            1: _payload(1, 2, **_loop(recv_seq={0: 1})),
        }
        replays = recovery.compute_replays(payloads)
        assert list(replays) == [1]
        # Each replay is the recovery-shaped MSG node 1 would have got.
        assert replays[1] == [(MSG, 0, "b", 0, 2), (MSG, 1, "c", 0, 3)]

    def test_received_messages_are_not_replayed(self):
        payloads = {
            0: _payload(0, 2, **_loop(send_log={1: [(1, 0, "a")]})),
            1: _payload(1, 2, **_loop(recv_seq={0: 1})),
        }
        assert recovery.compute_replays(payloads) == {}

    def test_resume_cid_base_clears_every_restored_color(self):
        payloads = {
            0: _payload(0, 2, **_loop(cur_cid=4, next_cid=3)),
            1: _payload(1, 2, **_loop(cur_cid=2, next_cid=6)),
        }
        # One clerk went red for cid 4, one initiator was about to mint
        # cid 6: the fresh ring must start above both.
        assert recovery.resume_cid_base(payloads) == 7


# ----------------------------------------------------------------------
# Engine snapshot/restore roundtrip (one process, no transport)
# ----------------------------------------------------------------------
class TestEngineSnapshot:
    def test_restored_engine_finishes_identically(self):
        circuit = load_s27()
        stimulus = RandomStimulus(circuit, num_cycles=12, period=20, seed=5)
        world = World(circuit, 1, [0] * circuit.num_gates)

        original = NodeEngine(world, 0, stimulus)
        original.schedule_initial()
        for _ in range(60):
            original.process_one()
        # Through the same pickle pipe a checkpoint file would use.
        snap = pickle.loads(pickle.dumps(original.snapshot_state()))
        while original.min_pending() is not None:
            original.process_one()

        restored = NodeEngine(world, 0, stimulus)
        restored.restore_state(snap)  # no schedule_initial: the snapshot rules
        assert restored.counters["events"] == 60
        while restored.min_pending() is not None:
            restored.process_one()

        original.check_quiescent()
        restored.check_quiescent()
        assert restored.final_values() == original.final_values()
        assert restored.capture_log == original.capture_log
        assert restored.counters == original.counters


# ----------------------------------------------------------------------
# The real multiprocess backend, killed and recovered
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def s27_setup():
    circuit = load_s27()
    stimulus = RandomStimulus(circuit, num_cycles=20, period=20, seed=5)
    sequential = SequentialSimulator(circuit, stimulus).run()
    return circuit, stimulus, sequential


class TestRecoveryEndToEnd:
    def _sim(self, s27_setup, n=2, ckpt=60, **kw):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Multilevel", seed=3).partition(circuit, n)
        kw.setdefault("timeout", 60.0)
        kw.setdefault("max_restarts", 2)
        return ProcessTimeWarpSimulator(
            circuit, assignment, stimulus,
            VirtualMachine(
                num_nodes=n, gvt_interval=32, checkpoint_interval=ckpt
            ),
            **kw,
        )

    def test_mid_run_crash_resumes_from_epoch(
        self, s27_setup, monkeypatch, tmp_path
    ):
        _, _, sequential = s27_setup
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        sim = self._sim(s27_setup, checkpoint_dir=str(tmp_path))
        result = sim.run()
        assert result.restarts == 1
        assert not result.degraded
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures
        assert "restarts=1" in result.summary()
        (record,) = sim.restart_log
        assert record["kind"] == "restart"
        assert record["failed"] == [1]
        assert record["to_attempt"] == 1
        assert record["epoch"] is not None  # resumed from a real epoch
        assert record["downtime"] >= 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
    def test_restart_leaks_no_fds(self, s27_setup, monkeypatch):
        """Every attempt builds fresh pipe channels; each one's two ends
        must be closed again, crash and restart included."""
        self._sim(s27_setup).run()  # starts mp's resource tracker (one fd)
        before = len(os.listdir("/proc/self/fd"))
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        result = self._sim(s27_setup, transport="queue").run()
        assert result.restarts == 1
        assert len(os.listdir("/proc/self/fd")) == before

    def test_startup_death_restarts_from_scratch(
        self, s27_setup, monkeypatch
    ):
        """A node killed before writing even its epoch-0 file.

        No complete epoch exists, so the parent must fall back to a
        from-scratch restart instead of failing the run.
        """
        _, _, sequential = s27_setup
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit:7")
        sim = self._sim(s27_setup)
        result = sim.run()
        assert result.restarts == 1
        assert result.final_values == sequential.final_values
        (record,) = sim.restart_log
        assert record["epoch"] is None  # nothing on disk: scratch restart

    def test_startup_raise_recovers(self, s27_setup, monkeypatch):
        _, _, sequential = s27_setup
        monkeypatch.setenv("REPRO_TW_FAULT", "1:raise")
        result = self._sim(s27_setup).run()
        assert result.restarts == 1
        assert result.final_values == sequential.final_values

    def test_fail_stop_preserved_without_budget(self, s27_setup, monkeypatch):
        """``max_restarts=0`` keeps the original fail-stop contract —
        same exception, same message, even with checkpointing on."""
        monkeypatch.setenv("REPRO_TW_FAULT", "1:raise")
        sim = self._sim(s27_setup, max_restarts=0)
        with pytest.raises(SimulationError, match="node 1 failed") as exc:
            sim.run()
        assert "injected fault in node 1" in str(exc.value)

    def test_hang_still_hits_the_timeout(self, s27_setup, monkeypatch):
        """A wedged (not dead) worker is a liveness failure, not a
        crash: the timeout stays terminal — restarting cannot help a
        run whose failure detector never fired."""
        monkeypatch.setenv("REPRO_TW_FAULT", "0:hang")
        sim = self._sim(s27_setup, timeout=2.0)
        with pytest.raises(SimulationError, match="timed out after 2s"):
            sim.run()

    def test_budget_exhaustion_degrades_to_virtual(
        self, s27_setup, monkeypatch
    ):
        """A node that dies on *every* attempt (persistent fault)
        exhausts its budget; the run finishes on the virtual backend
        and says so instead of raising."""
        _, _, sequential = s27_setup
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit*:7")
        sim = self._sim(s27_setup, max_restarts=1)
        result = sim.run()
        assert result.degraded
        assert result.restarts == 1
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures
        assert "DEGRADED" in result.summary()

    def test_degraded_run_still_merges_its_trace(
        self, s27_setup, monkeypatch, tmp_path
    ):
        """A run that degrades finishes like any other: its attempts'
        shards are merged into the trace, with one ``restart`` record
        per restart, and no shard is left behind."""
        from repro.obs.tracer import read_trace

        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit*:7")
        path = tmp_path / "t.jsonl"
        result = self._sim(
            s27_setup, max_restarts=1, trace_path=str(path)
        ).run()
        assert result.degraded
        restarts = [r for r in read_trace(path) if r["kind"] == "restart"]
        assert len(restarts) == result.restarts == 1
        assert os.listdir(tmp_path) == ["t.jsonl"]

    def test_clean_run_prunes_old_epochs(self, s27_setup, monkeypatch, tmp_path):
        _, _, sequential = s27_setup
        monkeypatch.delenv("REPRO_TW_FAULT", raising=False)
        result = self._sim(s27_setup, checkpoint_dir=str(tmp_path)).run()
        assert result.restarts == 0
        assert result.final_values == sequential.final_values
        # Epochs were written, and superseded ones were pruned as newer
        # complete epochs landed.
        epochs = recovery.scan_epochs(str(tmp_path))
        assert epochs, "no checkpoint epochs were written"
        complete = [cid for cid, files in epochs.items() if len(files) == 2]
        assert len(complete) <= 2

    def test_shm_transport_recovers_too(self, s27_setup, monkeypatch):
        """Recovery is transport-independent: the same kill-and-restore
        path works when the ring lineage is rebuilt on shm channels."""
        _, _, sequential = s27_setup
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        result = self._sim(s27_setup, transport="shm").run()
        assert result.restarts == 1
        assert not result.degraded
        assert result.final_values == sequential.final_values

    @pytest.mark.parametrize("transport", ("queue", "shm"))
    def test_crash_with_migration_enabled_recovers(
        self, s27_setup, monkeypatch, tmp_path, transport
    ):
        """Kill a node in a run that is also migrating LPs.

        Migration epochs coincide with checkpoint epochs, ownership and
        residency live inside every snapshot, and LP-carrying blobs are
        deferred past the epoch barrier — so whether the crash lands
        before, during, or after a migration, the restore is consistent
        and the committed results still match the oracle.  The skewed
        partition makes the hot/cold verdict unambiguous so migration
        genuinely interleaves with the crash-restart cycle.
        """
        from repro.partition import PartitionAssignment

        circuit, _, _ = s27_setup
        stimulus = RandomStimulus(circuit, num_cycles=40, period=20, seed=5)
        sequential = SequentialSimulator(circuit, stimulus).run()
        n = circuit.num_gates
        cut = int(n * 0.8)
        skewed = PartitionAssignment(
            circuit, 2, [0 if i < cut else 1 for i in range(n)],
            algorithm="skewed",
        )
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        result = ProcessTimeWarpSimulator(
            circuit, skewed, stimulus,
            VirtualMachine(
                num_nodes=2, gvt_interval=16, checkpoint_interval=60,
                migration_threshold=1.2, migration_fraction=0.25,
            ),
            max_restarts=3, timeout=60.0,
            checkpoint_dir=str(tmp_path), transport=transport,
        ).run()
        assert result.restarts >= 1
        assert not result.degraded
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures

    def test_trace_has_ckpt_and_restart_records(
        self, s27_setup, monkeypatch, tmp_path
    ):
        from repro.obs import analyze_trace
        from repro.obs.tracer import read_trace

        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        trace = tmp_path / "run.jsonl"
        sim = self._sim(s27_setup, trace_path=str(trace))
        result = sim.run()
        assert result.restarts == 1
        records = read_trace(str(trace))
        ckpts = [r for r in records if r["kind"] == "ckpt"]
        assert ckpts
        for r in ckpts:
            assert r["cid"] >= 0 and r["bytes"] > 0 and r["secs"] >= 0
        (restart,) = [r for r in records if r["kind"] == "restart"]
        assert restart["node"] == -1  # parent-authored
        assert restart["failed"] == [1]
        assert restart["to_attempt"] == 1
        # The merge kept each node's newest attempt only: both nodes
        # restarted, so every worker record carries attempt 1.
        assert all(
            r.get("attempt", 0) == 1 for r in records if r["node"] >= 0
        )
        summary = analyze_trace(records)["recovery"]
        assert summary["restarts"] == 1
        assert summary["checkpoints"] == len(ckpts)
        assert summary["checkpoint_bytes"] > 0


# ----------------------------------------------------------------------
# Shm segment hygiene: no /dev/shm leaks on ANY exit path
# ----------------------------------------------------------------------
class _InterruptingQueue:
    """Results-queue proxy that turns the Nth parent ``get`` into a
    KeyboardInterrupt — a Ctrl-C landing mid-collection, after workers
    have started and shm rings are live."""

    def __init__(self, inner, after: int):
        self._inner = inner
        self._remaining = after

    def get(self, timeout=None):
        if self._remaining <= 0:
            raise KeyboardInterrupt
        self._remaining -= 1
        return self._inner.get(timeout)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestShmSegmentHygiene:
    """Every exit path of a shm-transport run must unlink its rings.

    Segment names embed the creating parent's pid (``twshm-<pid>-...``),
    so "this run leaked" is exactly "an entry with our pid prefix
    survives in /dev/shm".
    """

    @staticmethod
    def _our_segments() -> set[str]:
        prefix = f"twshm-{os.getpid()}-"
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}

    def _sim(self, s27_setup, **kw):
        circuit, stimulus, _ = s27_setup
        assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
        kw.setdefault("timeout", 60.0)
        return ProcessTimeWarpSimulator(
            circuit, assignment, stimulus,
            VirtualMachine(num_nodes=2, gvt_interval=32, checkpoint_interval=60),
            transport="shm", **kw,
        )

    def test_no_leak_after_worker_death_and_restart(
        self, s27_setup, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
        result = self._sim(s27_setup, max_restarts=2).run()
        assert result.restarts >= 1
        assert not self._our_segments(), "restarted run leaked shm segments"

    def test_no_leak_after_fail_stop_error(self, s27_setup, monkeypatch):
        monkeypatch.setenv("REPRO_TW_FAULT", "1:raise")
        with pytest.raises(SimulationError, match="node 1 failed"):
            self._sim(s27_setup, max_restarts=0).run()
        assert not self._our_segments(), "failed run leaked shm segments"

    def test_no_leak_after_keyboard_interrupt(self, s27_setup, monkeypatch):
        from repro.warped.parallel import ring as ring_mod

        monkeypatch.delenv("REPRO_TW_FAULT", raising=False)
        sim = self._sim(s27_setup, max_restarts=0)
        make_results = ring_mod._ControlQueue
        monkeypatch.setattr(
            ring_mod, "_ControlQueue",
            lambda ctx: _InterruptingQueue(make_results(ctx), after=1),
        )
        with pytest.raises(KeyboardInterrupt):
            sim.run()
        assert not self._our_segments(), "interrupted run leaked shm segments"
