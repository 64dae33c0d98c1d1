"""Bit-identity of the Multilevel partitioner and the circuit generator.

Speed work on phase 3 (greedy refinement from kept gain tables),
contraction and the generator's gate-type draws must not move a single
gate. Two digests pin their output as it stood before that work:

- every Multilevel assignment over a grid of circuits, k, seeds and
  coarsening schemes, plus the activity-weighted variant;
- the generated netlists (every gate's name, type, delay, output flag,
  fanin and fanout, in index order).

A Hypothesis test then runs the optimized ``greedy_refine``,
``CoarseGraph.contract`` and ``CoarseGraph.from_circuit`` against the
frozen copies in ``tests/reference/seed_multilevel.py`` on random
graphs, partitions and rng seeds, requiring identical partitions, move
counts and coarse graphs, dict order included.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.iscas89 import all_benchmarks, load_benchmark
from repro.partition.extra_activity import ActivityMultilevelPartitioner
from repro.partition.multilevel import CoarseGraph, MultilevelPartitioner
from repro.partition.multilevel.refine_greedy import greedy_refine
from tests.reference import seed_multilevel as ref

#: sha256 of every assignment of ``_assignment_grid`` (see below).
ASSIGNMENT_DIGEST = (
    "fda4fb97251d45907e2b6e7a39630c77c9d907101d2ee2d9316f219c3cb8afa0"
)
#: sha256 of every netlist of ``_netlist_grid``.
NETLIST_DIGEST = (
    "2fcde0689910f180b474d1b6b9e990bbbc65db6afffd9890bafb4861adcc4dea"
)

_CIRCUITS = (("s27", 1.0), ("s298", 1.0), ("s1196", 1.0), ("s5378", 0.2))


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _assignment_grid() -> list:
    rows = []
    for name, scale in _CIRCUITS:
        circuit = load_benchmark(name, scale=scale)
        for k in (2, 4, 8):
            for seed in (0, 2000):
                for coarsening in ("fanout", "hem"):
                    partitioner = MultilevelPartitioner(
                        seed=seed, coarsening=coarsening
                    )
                    assignment = partitioner.partition(circuit, k)
                    rows.append(
                        [name, k, seed, coarsening, list(assignment.assignment)]
                    )
    for name, scale in (("s298", 1.0), ("s5378", 0.2)):
        circuit = load_benchmark(name, scale=scale)
        assignment = ActivityMultilevelPartitioner(seed=1).partition(circuit, 4)
        rows.append([name, 4, 1, "activity", list(assignment.assignment)])
    # the paper-scale Table 2 circuit, as the end-to-end benchmark cuts it
    circuit = load_benchmark("s9234")
    for k in (2, 8):
        assignment = MultilevelPartitioner(seed=2000).partition(circuit, k)
        rows.append(["s9234", k, 2000, "fanout", list(assignment.assignment)])
    return rows


def _netlist(circuit) -> list:
    return [
        [
            gate.name,
            gate.gate_type.value,
            gate.delay,
            bool(gate.is_output),
            list(gate.fanin),
            list(gate.fanout),
        ]
        for gate in circuit.gates
    ]


def _netlist_grid() -> list:
    rows = []
    for name in sorted(all_benchmarks()):
        for seed in (0, 2000):
            rows.append(_netlist(load_benchmark(name, scale=0.05, seed=seed)))
    rows.append(_netlist(load_benchmark("s5378", scale=0.2, seed=7)))
    rows.append(_netlist(load_benchmark("s9234")))
    spec = GeneratorSpec(
        name="typed", num_inputs=6, num_outputs=5, num_gates=300,
        num_dffs=12, depth=9, seed=3, delay_model="random",
    )
    rows.append(_netlist(generate_circuit(spec)))
    return rows


def test_multilevel_assignments_are_pinned():
    assert _sha(_assignment_grid()) == ASSIGNMENT_DIGEST


def test_generated_netlists_are_pinned():
    assert _sha(_netlist_grid()) == NETLIST_DIGEST


# ---------------------------------------------------------------------------
# optimized vs frozen, on random graphs

relaxed = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph(
    n: int,
    edges: list[tuple[int, int, int]],
    weights: list[int] | None = None,
    inputs: list[bool] | None = None,
) -> CoarseGraph:
    """A graph built edge by edge by the frozen code."""
    graph = CoarseGraph(n)
    if weights is not None:
        graph.weight = list(weights)
        graph.total_weight = sum(weights)
    if inputs is not None:
        graph.contains_input = list(inputs)
    for u, v, w in edges:
        ref.add_edge(graph, u, v, w)
    return graph


@st.composite
def coarse_graphs(draw):
    """A random weighted graph.

    Small weights and few vertices make equal gains, equal loads and
    vertices adjacent to several partitions common — the cases where
    the refiner's tie rule and dict orders matter.
    """
    n = draw(st.integers(2, 24))
    weights = draw(
        st.one_of(
            st.just([1] * n),
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
        )
    )
    inputs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=4 * n)
    )
    return _graph(n, edges, weights, inputs)


@st.composite
def refine_cases(draw):
    """(graph, k, initial partition) for one refinement call."""
    graph = draw(coarse_graphs())
    k = draw(st.integers(2, min(6, graph.n)))
    start = draw(st.lists(st.integers(0, k - 1), min_size=graph.n, max_size=graph.n))
    return graph, k, start


#: A call the kept ``external`` table alone resolves wrongly: a vertex
#: ends up between two destinations of equal gain and equal load, and
#: only ``move_gains`` order names the one the frozen code picks.
TIE_CASE = (
    _graph(4, [(0, 3, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (0, 2, 1)]),
    3,
    [1, 2, 0, 0],
)


def _snapshot(graph: CoarseGraph) -> dict:
    """Every field of *graph*, dict insertion order made explicit."""
    return {
        "n": graph.n,
        "weight": list(graph.weight),
        "contains_input": list(graph.contains_input),
        "fanout": [list(adj.items()) for adj in graph.fanout],
        "neighbors": [list(adj.items()) for adj in graph.neighbors],
        "members": [list(m) for m in graph.members],
        "seeds": list(graph.seeds),
        "total_weight": graph.total_weight,
    }


@relaxed
@given(
    case=refine_cases(),
    seed=st.integers(0, 2**32 - 1),
    slack=st.sampled_from([0.0, 0.05, 0.5, 10.0]),
    max_iterations=st.sampled_from([1, 2, 8]),
)
@example(case=TIE_CASE, seed=807, slack=0.5, max_iterations=8)
def test_greedy_refine_matches_frozen(case, seed, slack, max_iterations):
    graph, k, start = case
    max_weight = graph.total_weight / k * (1.0 + slack)
    want, got = list(start), list(start)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want_moves = ref.greedy_refine(
        graph, want, k, want_rng,
        max_weight=max_weight, max_iterations=max_iterations,
    )
    got_moves = greedy_refine(
        graph, got, k, got_rng,
        max_weight=max_weight, max_iterations=max_iterations,
    )
    assert got == want
    assert got_moves == want_moves
    # the same number of draws: the next phase sees the same stream
    assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


@relaxed
@given(graph=coarse_graphs(), data=st.data())
def test_contract_matches_frozen(graph, data):
    labels = data.draw(
        st.lists(st.integers(0, graph.n - 1), min_size=graph.n, max_size=graph.n)
    )
    order = data.draw(st.permutations(range(graph.n)))
    groups: dict[int, list[int]] = {}
    for v in order:
        groups.setdefault(labels[v], []).append(v)
    groups_list = list(groups.values())
    assert _snapshot(graph.contract(groups_list)) == _snapshot(
        ref.contract(graph, groups_list)
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**31),
    num_gates=st.integers(12, 80),
    weighted=st.booleans(),
)
def test_from_circuit_matches_frozen(seed, num_gates, weighted):
    spec = GeneratorSpec(
        name="ident", num_inputs=3, num_outputs=2, num_gates=num_gates,
        num_dffs=2, depth=4, seed=seed,
    )
    circuit = generate_circuit(spec)
    edge_weights = vertex_weights = None
    if weighted:
        rng = np.random.default_rng(seed)
        edge_weights = [int(w) for w in rng.integers(0, 5, circuit.num_gates)]
        vertex_weights = [int(w) for w in rng.integers(0, 5, circuit.num_gates)]
    assert _snapshot(
        CoarseGraph.from_circuit(circuit, edge_weights, vertex_weights)
    ) == _snapshot(ref.from_circuit(circuit, edge_weights, vertex_weights))
