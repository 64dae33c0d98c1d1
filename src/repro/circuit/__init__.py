"""Gate-level circuit substrate.

A circuit is a directed graph of logic gates (:class:`CircuitGraph`);
edges are the signals that interconnect gates, exactly as in Section 3 of
the paper. This subpackage provides the graph, the ISCAS'89 ``.bench``
reader/writer, levelization, a parametric synthetic generator, and
synthetic stand-ins for the three ISCAS'89 benchmarks the paper
evaluates (see DESIGN.md for the substitution rationale).
"""

from repro.circuit.gate import (
    FALSE,
    TRUE,
    UNKNOWN,
    GateType,
    evaluate_gate,
    logic_not,
)
from repro.circuit.graph import CircuitGraph, Gate
from repro.circuit.bench_parser import parse_bench, parse_bench_file, write_bench
from repro.circuit.levelize import levelize
from repro.circuit.stats import CircuitStats, circuit_stats
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuit.iscas89 import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    BenchmarkSpec,
    all_benchmarks,
    load_benchmark,
)
from repro.circuit.library import (
    binary_counter,
    decoder,
    lfsr,
    ripple_carry_adder,
    shift_register,
)
from repro.circuit.netlists import S27_BENCH, load_s27
from repro.circuit.validate import validate_circuit

__all__ = [
    "BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "S27_BENCH",
    "BenchmarkSpec",
    "all_benchmarks",
    "binary_counter",
    "decoder",
    "lfsr",
    "load_s27",
    "ripple_carry_adder",
    "shift_register",
    "CircuitGraph",
    "CircuitStats",
    "FALSE",
    "Gate",
    "GateType",
    "GeneratorSpec",
    "TRUE",
    "UNKNOWN",
    "circuit_stats",
    "evaluate_gate",
    "generate_circuit",
    "levelize",
    "load_benchmark",
    "logic_not",
    "parse_bench",
    "parse_bench_file",
    "validate_circuit",
    "write_bench",
]
