"""Warm worker rings: reuse, equivalence with the cold path, poisoning.

The load-bearing property is bit-identical committed output: a warm
ring re-running a job on recycled processes must produce exactly what
a cold :class:`ProcessTimeWarpSimulator` spawn produces — same final
values, same capture history, same committed event count.  Everything
the job server layers on top (caching, pooling) assumes it.
"""

from __future__ import annotations

import os
import queue

import pytest

from repro.circuit.netlists import load_s27
from repro.errors import ConfigError, SimulationError
from repro.partition.registry import get_partitioner
from repro.sim.kernel import SequentialSimulator
from repro.sim.stimulus import RandomStimulus
from repro.warped.machine import VirtualMachine
from repro.warped.parallel import ring as ring_mod
from repro.warped.parallel.backend import ProcessTimeWarpSimulator
from repro.warped.parallel.ring import RingFailure, WorkerRing

TRANSPORTS = ("queue", "shm")


@pytest.fixture(scope="module")
def world():
    circuit = load_s27()
    stimulus = RandomStimulus(
        circuit, num_cycles=12, period=100, seed=7, activity=0.5
    )
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    machine = VirtualMachine(
        num_nodes=2, gvt_interval=128, optimism_window=100
    )
    sequential = SequentialSimulator(circuit, stimulus).run()
    return circuit, assignment, stimulus, machine, sequential


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_warm_ring_matches_cold_and_sequential(world, transport):
    circuit, assignment, stimulus, machine, sequential = world
    cold = ProcessTimeWarpSimulator(
        circuit, assignment, stimulus, machine,
        timeout=60, transport=transport,
    ).run()
    with WorkerRing(2, transport=transport) as ring:
        pids = dict(ring.worker_pids)
        first = ring.run_job(circuit, assignment, stimulus, machine, timeout=60)
        second = ring.run_job(circuit, assignment, stimulus, machine, timeout=60)
        # Reuse, not respawn: same OS processes served both jobs.
        assert ring.worker_pids == pids
        assert ring.jobs_run == 2
    for result in (first, second):
        assert result.final_values == sequential.final_values
        assert result.committed_captures == sequential.committed_captures
        assert result.events_committed == cold.events_committed
        assert result.backend == "process"
        assert result.transport == transport


def test_many_repeat_jobs_on_shm(world):
    """Regression: the job-arming race.

    Job specs arrive over per-node queues, so one node used to start
    simulating — and sending — while a peer was still waiting for its
    own spec; the peer's arming drain then discarded live messages and
    the GVT ring could never balance (livelock).  The shm transport
    hit this on most runs.  Ten back-to-back jobs on one ring flush
    the race out if the arming barrier ever regresses.
    """
    circuit, assignment, stimulus, machine, sequential = world
    with WorkerRing(2, transport="shm") as ring:
        for _ in range(10):
            result = ring.run_job(
                circuit, assignment, stimulus, machine, timeout=30
            )
            assert result.final_values == sequential.final_values


def test_single_node_ring(world):
    circuit, _, stimulus, _, sequential = world
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 1)
    machine = VirtualMachine(num_nodes=1, gvt_interval=128)
    with WorkerRing(1) as ring:
        result = ring.run_job(circuit, assignment, stimulus, machine, timeout=30)
    assert result.final_values == sequential.final_values


def test_ring_validates_job(world):
    circuit, assignment, stimulus, machine, _ = world
    with WorkerRing(2) as ring:
        with pytest.raises(SimulationError, match="this ring"):
            ring.run_job(
                circuit,
                get_partitioner("Multilevel", seed=3).partition(circuit, 4),
                stimulus,
                VirtualMachine(num_nodes=4),
                timeout=30,
            )
        with pytest.raises(ConfigError, match="checkpoint"):
            ring.run_job(
                circuit, assignment, stimulus,
                VirtualMachine(
                    num_nodes=2, checkpoint_interval=50, gvt_interval=128
                ),
                timeout=30,
            )
        with pytest.raises(ConfigError, match="aggressive"):
            ring.run_job(
                circuit, assignment, stimulus,
                VirtualMachine(num_nodes=2, cancellation="lazy"),
                timeout=30,
            )
        # Validation failures must not poison the ring.
        assert ring.alive
        result = ring.run_job(circuit, assignment, stimulus, machine, timeout=30)
        assert result.num_nodes == 2


def test_last_report_of_a_dead_worker_is_read(world, monkeypatch):
    """Node 1 reports its injected error and exits before the parent
    looks: the first poll of the control pipe comes back empty only once
    node 1 is dead.  The parent must still read the traceback the pipe
    holds instead of calling the node lost without a word."""
    circuit, assignment, stimulus, machine, _ = world
    ring = WorkerRing(2)
    real_get = ring_mod._ControlQueue.get
    polls = []

    def get(self, timeout=None):
        polls.append(timeout)
        if len(polls) == 1:
            ring._workers[1].join(timeout=30)
            raise queue.Empty
        return real_get(self, timeout)

    monkeypatch.setattr(ring_mod._ControlQueue, "get", get)
    try:
        with pytest.raises(RingFailure, match="node 1 failed") as exc:
            ring.run_job(
                circuit, assignment, stimulus, machine, timeout=30,
                fault_spec="1:raise",
            )
    finally:
        ring.close()
    assert "injected fault in node 1" in str(exc.value)
    assert "Traceback" in str(exc.value)
    assert exc.value.failed == {1} and exc.value.restartable
    assert not ring.alive


class _RecordingQueue:
    """A job queue that keeps every job message it is sent."""

    def __init__(self, inner, sent: list) -> None:
        self.inner = inner
        self.sent = sent

    def put(self, item) -> None:
        if item is not None:  # not the STOP sentinel
            self.sent.append(item)
        self.inner.put(item)

    def close(self) -> None:
        self.inner.close()


def _record_rings(monkeypatch) -> list:
    """Every ring forked from now on, as ``(ring, job messages)``."""
    rings = []
    fork = WorkerRing._fork

    def recording_fork(self, seed):
        fork(self, seed)
        sent = []
        rings.append((self, sent))
        self._job_queues = [_RecordingQueue(q, sent) for q in self._job_queues]

    monkeypatch.setattr(WorkerRing, "_fork", recording_fork)
    return rings


def test_cold_run_forks_its_world(world, monkeypatch):
    """A run is a ring that lives for one job, forked with the job's
    world in every worker's table: no job message carries a world (a
    shipped 400 KB world per node queue is what this pins out)."""
    circuit, assignment, stimulus, machine, sequential = world
    rings = _record_rings(monkeypatch)
    sim = ProcessTimeWarpSimulator(
        circuit, assignment, stimulus, machine, timeout=60
    )
    result = sim.run()
    assert result.final_values == sequential.final_values
    ((ring, sent),) = rings
    assert len(sent) == 2 and all(shipped is None for _, shipped, _, _ in sent)
    assert ring.world_stats == {"ships": 0, "hits": 1, "evictions": 0}
    assert sim.worker_pids == ring.worker_pids
    assert sim.worker_exitcodes == {0: 0, 1: 0}


def test_restart_forks_fresh_processes(monkeypatch):
    """A failed attempt is a poisoned ring; the next attempt is a fresh
    ring — new processes, forked with the world, resuming the epoch."""
    circuit = load_s27()
    stimulus = RandomStimulus(circuit, num_cycles=20, period=20, seed=5)
    sequential = SequentialSimulator(circuit, stimulus).run()
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    machine = VirtualMachine(
        num_nodes=2, gvt_interval=32, checkpoint_interval=60
    )
    rings = _record_rings(monkeypatch)
    monkeypatch.setenv("REPRO_TW_FAULT", "1:exit-at:60")
    sim = ProcessTimeWarpSimulator(
        circuit, assignment, stimulus, machine, timeout=60, max_restarts=2
    )
    result = sim.run()
    assert result.restarts == 1
    assert result.final_values == sequential.final_values
    (first, first_sent), (second, second_sent) = rings
    assert not set(first.worker_pids.values()) & set(
        second.worker_pids.values()
    )
    assert not first.alive and sim.worker_pids == second.worker_pids
    for _, shipped, _, record in first_sent + second_sent:
        assert shipped is None
    assert [record["attempt"] for *_, record in second_sent] == [1, 1]
    assert all(record["payload"] is not None for *_, record in second_sent)


def test_timeout_poisons_ring(world):
    circuit, assignment, stimulus, machine, _ = world
    ring = WorkerRing(2).start()
    try:
        with pytest.raises(SimulationError, match="timed out"):
            ring.run_job(
                circuit, assignment, stimulus, machine, timeout=0.0001
            )
        assert not ring.alive
        with pytest.raises(SimulationError, match="dead"):
            ring.run_job(circuit, assignment, stimulus, machine, timeout=30)
    finally:
        ring.close()


def test_kill_tears_ring_down(world):
    circuit, assignment, stimulus, machine, _ = world
    ring = WorkerRing(2).start()
    try:
        assert ring.alive
        ring.kill()
        assert not ring.alive
        with pytest.raises(SimulationError, match="dead"):
            ring.run_job(circuit, assignment, stimulus, machine, timeout=30)
    finally:
        ring.close()


def test_close_is_idempotent_and_joins_workers(world):
    ring = WorkerRing(2).start()
    workers = list(ring._workers)
    ring.close()
    ring.close()
    assert all(not w.is_alive() for w in workers)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
def test_fifty_jobs_then_close_leak_no_fds(world):
    """A ring's pipes (inboxes, job and control channels, worker
    sentinels) are all given back: the parent's open-fd count after 50
    jobs and ``close()`` is what it was before ``start()``."""
    circuit, assignment, stimulus, machine, sequential = world
    # multiprocessing's resource tracker starts on first use and keeps
    # one fd for the life of the process: get that out of the way.
    WorkerRing(2, transport="queue").start().close()
    before = len(os.listdir("/proc/self/fd"))
    ring = WorkerRing(2, transport="queue").start()
    for _ in range(50):
        result = ring.run_job(circuit, assignment, stimulus, machine, timeout=30)
        assert result.final_values == sequential.final_values
    ring.close()
    assert len(os.listdir("/proc/self/fd")) == before


def _vm_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_ring_worker_rss_stays_flat_across_jobs(medium_circuit, tmp_path, traced):
    """Workers suspend the cyclic collector for each job's run and get
    it back between jobs: whatever one job leaves behind must be
    reclaimed before it piles up.  (A traced ``NodeLoop`` sits in a
    reference cycle with its timed handler, so its whole engine is
    collector-only garbage — the case suspension could leak.)"""
    circuit = medium_circuit
    stimulus = RandomStimulus(circuit, num_cycles=10, period=100, seed=7)
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=128, optimism_window=100)
    trace_path = str(tmp_path / "job.trace.jsonl") if traced else None
    with WorkerRing(2, transport="queue") as ring:
        pids = list(ring.worker_pids.values())
        rss = {}
        for job in range(1, 61):
            ring.run_job(
                circuit, assignment, stimulus, machine,
                timeout=30, trace_path=trace_path,
            )
            if job in (20, 60):
                rss[job] = [_vm_rss_kb(pid) for pid in pids]
    for after_20, after_60 in zip(rss[20], rss[60]):
        assert after_60 <= after_20 * 1.05, rss
