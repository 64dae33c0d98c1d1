"""Ablation studies (DESIGN.md A1-A5).

These probe the design choices inside the multilevel algorithm and the
machine model, beyond what the paper reports — the directions its
Section 6 lists as ongoing work.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.harness.config import ALGORITHMS
from repro.harness.experiment import ExperimentRunner
from repro.partition.metrics import partition_quality
from repro.partition.multilevel.multilevel import MultilevelPartitioner
from repro.utils.tables import format_table


def ablation_coarsen_threshold(
    runner: ExperimentRunner,
    circuit_name: str = "s9234",
    k: int = 8,
    thresholds: tuple[int, ...] = (16, 32, 64, 128, 256),
) -> str:
    """A1: coarsening-threshold sweep (levels, cut, runtime)."""
    circuit = runner.circuit(circuit_name)
    rows = []
    for threshold in thresholds:
        partitioner = MultilevelPartitioner(
            seed=runner.config.partition_seed, coarsen_threshold=threshold
        )
        assignment = partitioner.partition(circuit, k)
        quality = partition_quality(assignment)
        rows.append(
            (
                threshold,
                len(partitioner.last_level_sizes),
                partitioner.last_level_sizes[-1],
                quality.edge_cut,
                f"{quality.load_imbalance:.3f}",
                f"{partitioner.last_runtime * 1e3:.1f}",
            )
        )
    return format_table(
        ["threshold", "levels", "coarsest", "edge cut", "imbalance", "ms"],
        rows,
        title=f"A1: coarsening threshold sweep ({circuit.name}, k={k})",
    )


def ablation_refiner(
    runner: ExperimentRunner,
    circuit_name: str = "s9234",
    k: int = 8,
) -> str:
    """A2: refinement algorithm comparison (greedy vs KL vs FM vs none)."""
    circuit = runner.circuit(circuit_name)
    rows = []
    for refiner in ("none", "greedy", "kl", "fm"):
        partitioner = MultilevelPartitioner(
            seed=runner.config.partition_seed, refiner=refiner
        )
        assignment = partitioner.partition(circuit, k)
        quality = partition_quality(assignment)
        rows.append(
            (
                refiner,
                quality.edge_cut,
                f"{quality.cut_fraction:.3f}",
                f"{quality.load_imbalance:.3f}",
                f"{quality.concurrency:.3f}",
                f"{partitioner.last_runtime * 1e3:.1f}",
            )
        )
    return format_table(
        ["refiner", "edge cut", "cut frac", "imbalance", "concurrency", "ms"],
        rows,
        title=f"A2: refinement algorithms ({circuit.name}, k={k})",
    )


def ablation_quality(
    runner: ExperimentRunner,
    circuit_name: str = "s9234",
    k: int = 8,
) -> str:
    """A3: static partition quality of all six algorithms."""
    circuit = runner.circuit(circuit_name)
    rows = []
    for algorithm in ALGORITHMS:
        assignment = runner.partition(circuit_name, algorithm, k)
        quality = partition_quality(assignment)
        rows.append(
            (
                algorithm,
                quality.edge_cut,
                f"{quality.cut_fraction:.3f}",
                f"{quality.load_imbalance:.3f}",
                f"{quality.concurrency:.3f}",
                quality.message_channels,
            )
        )
    return format_table(
        ["algorithm", "edge cut", "cut frac", "imbalance", "concurrency",
         "channels"],
        rows,
        title=f"A3: static partition quality ({circuit.name}, k={k})",
    )


def ablation_scaling(
    sizes: tuple[int, ...] = (500, 1000, 2000, 4000, 8000),
    k: int = 8,
    seed: int = 11,
) -> str:
    """A4: multilevel runtime vs circuit size (the linear-time claim).

    The paper argues O(N_E); this sweep measures wall-clock per edge
    over doubling circuit sizes — a roughly flat ``us/edge`` column
    supports linearity. The last three columns split the wall-clock by
    phase (:attr:`MultilevelPartitioner.last_phase_seconds`).
    """
    rows = []
    for num_gates in sizes:
        spec = GeneratorSpec(
            name=f"scale{num_gates}",
            num_inputs=max(4, num_gates // 150),
            num_outputs=max(4, num_gates // 120),
            num_gates=num_gates,
            num_dffs=max(2, num_gates // 25),
            depth=max(8, num_gates // 120),
            seed=seed,
        )
        circuit = generate_circuit(spec)
        partitioner = MultilevelPartitioner(seed=seed)
        start = time.perf_counter()
        partitioner.partition(circuit, k)
        elapsed = time.perf_counter() - start
        phases = partitioner.last_phase_seconds.values()
        rows.append(
            (
                num_gates,
                circuit.num_edges,
                f"{elapsed * 1e3:.1f}",
                f"{elapsed / circuit.num_edges * 1e6:.2f}",
                *(f"{seconds * 1e3:.1f}" for seconds in phases),
            )
        )
    return format_table(
        ["gates", "edges", "ms", "us/edge", "coarsen ms", "initial ms",
         "refine ms"],
        rows,
        title=f"A4: multilevel runtime scaling (k={k})",
    )


def ablation_window(
    runner: ExperimentRunner,
    circuit_name: str = "s9234",
    k: int = 8,
    windows: tuple[float | None, ...] = (None, 4.0, 2.0, 1.0, 0.5),
) -> str:
    """A5: optimism-window sweep for the multilevel partition."""
    rows = []
    for window in windows:
        record = runner.record(
            circuit_name, "Multilevel", k,
            optimism_window=replace(
                runner.config, window_periods=window
            ).optimism_window,
        )
        rows.append(
            (
                "unbounded" if window is None else f"{window:g}",
                f"{record.execution_time:.2f}",
                record.rollbacks,
                record.events_rolled_back,
                f"{record.efficiency:.3f}",
            )
        )
    return format_table(
        ["window (periods)", "time (s)", "rollbacks", "rolled-back ev",
         "efficiency"],
        rows,
        title=f"A5: optimism window sweep (Multilevel, {circuit_name}, k={k})",
    )
