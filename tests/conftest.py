"""Shared fixtures: reference netlists and generated circuits."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.netlists import S27_BENCH, load_s27
from repro.warped.lp import LogicalProcess
from repro.warped.queues import NodeQueue

__all__ = ["S27_BENCH"]  # re-exported for scripts that import conftest


@pytest.fixture(scope="session")
def s27():
    """The real s27 netlist as a frozen CircuitGraph."""
    return load_s27()


@pytest.fixture(scope="session")
def small_circuit():
    """A ~150-gate generated sequential circuit (fast tests)."""
    spec = GeneratorSpec(
        name="small",
        num_inputs=6,
        num_outputs=8,
        num_gates=150,
        num_dffs=10,
        depth=8,
        seed=42,
    )
    return generate_circuit(spec)


@pytest.fixture(scope="session")
def medium_circuit():
    """A ~600-gate generated circuit (integration tests)."""
    spec = GeneratorSpec(
        name="medium",
        num_inputs=12,
        num_outputs=16,
        num_gates=600,
        num_dffs=40,
        depth=14,
        seed=43,
    )
    return generate_circuit(spec)


@pytest.fixture(scope="session")
def combinational_circuit():
    """A DFF-free circuit (pure combinational paths)."""
    spec = GeneratorSpec(
        name="comb",
        num_inputs=8,
        num_outputs=6,
        num_gates=120,
        num_dffs=0,
        depth=7,
        seed=44,
    )
    return generate_circuit(spec)


@pytest.fixture
def cancel_spy(monkeypatch):
    """Count how the virtual kernel resolves each cancellation.

    ``annihilate`` counts :meth:`NodeQueue.annihilate` calls (one per
    cancelled send), ``pending`` those that found the copy still
    queued; of the rest, :meth:`LogicalProcess.holds` splits
    ``processed`` (roll the LP back) from ``stashed`` (annihilate on
    arrival).
    """
    counts = Counter()
    annihilate, holds = NodeQueue.annihilate, LogicalProcess.holds

    def spy_annihilate(queue, msg):
        found = annihilate(queue, msg)
        counts["annihilate"] += 1
        counts["pending"] += found
        return found

    def spy_holds(lp, msg):
        held = holds(lp, msg)
        counts["processed" if held else "stashed"] += 1
        return held

    monkeypatch.setattr(NodeQueue, "annihilate", spy_annihilate)
    monkeypatch.setattr(LogicalProcess, "holds", spy_holds)
    return counts
