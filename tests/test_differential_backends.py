"""Differential equivalence: process vs. virtual vs. sequential.

The repo's THE-invariant — optimism never changes simulation results —
extended across execution substrates: for every tested circuit,
partitioner, and node count, the real-multiprocess backend, the
deterministic virtual-machine backend, and the sequential oracle must
agree on the quiescent signal values AND the committed DFF capture
history.  The default matrix covers s27 and a generated sequential
circuit over all six partitioning algorithms and k ∈ {1, 2, 4}; a
``slow``-marked stress matrix adds a larger circuit and optimism
windows.
"""

from __future__ import annotations

import pytest

from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.netlists import load_s27
from repro.harness.config import ALGORITHMS
from repro.harness.regression import check_engines
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine

NODE_COUNTS = (1, 2, 4)
#: The virtual kernel and the process backend once per wire transport:
#: the queue and shm substrates race messages completely differently
#: (pickled batches over pipes vs. fixed-width records in locked
#: rings), yet rollback must erase every trace of that.
BACKENDS = ("timewarp", "process", "process-shm")


def _setup(circuit, *, cycles, period, seed):
    return circuit, RandomStimulus(
        circuit, num_cycles=cycles, period=period, seed=seed
    )


@pytest.fixture(scope="module")
def s27_case():
    return _setup(load_s27(), cycles=18, period=20, seed=3)


@pytest.fixture(scope="module")
def generated_case():
    spec = GeneratorSpec(
        name="diffgen",
        num_inputs=6,
        num_outputs=6,
        num_gates=110,
        num_dffs=12,
        depth=7,
        seed=97,
    )
    return _setup(generate_circuit(spec), cycles=12, period=30, seed=23)


def _assert_backends_agree(case, algorithm, k, *, window=None, gvt_interval=64):
    circuit, stimulus = case
    k = min(k, circuit.num_gates)
    assignment = get_partitioner(algorithm, seed=3).partition(circuit, k)
    machine = VirtualMachine(
        num_nodes=k, gvt_interval=gvt_interval, optimism_window=window
    )
    assert check_engines(circuit, assignment, stimulus, machine, BACKENDS) == []


@pytest.mark.parametrize("k", NODE_COUNTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_s27_all_partitioners(s27_case, algorithm, k):
    _assert_backends_agree(s27_case, algorithm, k)


@pytest.mark.parametrize("k", NODE_COUNTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_generated_circuit_all_partitioners(generated_case, algorithm, k):
    _assert_backends_agree(generated_case, algorithm, k)


# ----------------------------------------------------------------------
# Adaptive-migration equivalence: rehoming LPs at GVT epochs reroutes
# in-flight traffic, forwards stale deliveries, and ships pending
# events across nodes — none of which may leave a trace in the
# committed results, on either backend, over either wire transport.
# The virtual and process backends take migration decisions from
# entirely different clocks (modelled busy time vs. real CPU time), so
# their *decisions* differ freely; their committed results must not.
# ----------------------------------------------------------------------
def _skewed(circuit, k):
    """80% of gates on node 0 — guarantees a hot/cold imbalance."""
    from repro.partition import PartitionAssignment

    n = circuit.num_gates
    cut = int(n * 0.8)
    assignment = [0 if i < cut else 1 + (i % (k - 1)) for i in range(n)]
    return PartitionAssignment(circuit, k, assignment, algorithm="skewed")


@pytest.mark.parametrize("k", (2, 4))
def test_migration_matches_oracle(s27_case, k):
    circuit, stimulus = s27_case
    machine = VirtualMachine(
        num_nodes=k, gvt_interval=16,
        migration_threshold=1.2, migration_fraction=0.25,
    )
    assert check_engines(
        circuit, _skewed(circuit, k), stimulus, machine, BACKENDS
    ) == []


# ----------------------------------------------------------------------
# Crash-recovery equivalence: a run that loses a worker mid-flight and
# restarts from its last checkpoint epoch must still match the oracle
# bit-for-bit — recovery is allowed to cost time, never correctness.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ("queue", "shm"))
@pytest.mark.parametrize("k", (2, 4))
def test_recovery_matches_oracle(s27_case, monkeypatch, k, transport):
    circuit, stimulus = s27_case
    sequential = SequentialSimulator(circuit, stimulus).run()
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, k)
    machine = VirtualMachine(
        num_nodes=k, gvt_interval=32, checkpoint_interval=60
    )
    virtual = TimeWarpSimulator(circuit, assignment, stimulus, machine).run()

    # Fire well inside the victim's share of the run: on s27 node 1
    # commits ≈100 events at k=2 but only ≈40 at k=4, and a threshold
    # it reaches only by rolling back would make ``restarts`` depend on
    # the schedule (the assertion on it guards a fault that never fires).
    victim = virtual.node_stats[1]
    committed = victim.events_processed - victim.events_rolled_back
    exit_at = min(60, committed // 2)
    monkeypatch.setenv("REPRO_TW_FAULT", f"1:exit-at:{exit_at}")
    process = ProcessTimeWarpSimulator(
        circuit, assignment, stimulus, machine, max_restarts=3,
        transport=transport,
    ).run()

    assert process.restarts >= 1
    assert not process.degraded
    assert virtual.final_values == sequential.final_values
    assert process.final_values == virtual.final_values
    assert process.committed_captures == sequential.committed_captures
    assert process.events_committed == virtual.events_committed


# ----------------------------------------------------------------------
# Stress matrix (excluded by default; run with `pytest -m slow`)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stress_case():
    spec = GeneratorSpec(
        name="diffstress",
        num_inputs=8,
        num_outputs=8,
        num_gates=420,
        num_dffs=32,
        depth=11,
        seed=5,
    )
    return _setup(generate_circuit(spec), cycles=35, period=50, seed=41)


@pytest.mark.slow
@pytest.mark.parametrize("window", [None, 50])
@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stress_matrix(stress_case, algorithm, k, window):
    _assert_backends_agree(
        stress_case, algorithm, k, window=window, gvt_interval=256
    )
