"""The paper's claims: each verdict stated once and checked once.

Every verdict the paper's evaluation (Section 5) draws from one of its
artifacts — Table 1, Table 2, Figures 4-6 — and the one E1 derives
from Table 2 is a :class:`Claim` in :data:`CLAIMS`: an id, its
artifact, the claim in words, the smallest circuit scale it applies
at, and one check that reads the shared :class:`ExperimentRunner` and
returns whether the claim holds, with evidence.

The artifact benches assert the claims of their artifact
(``benchmarks/conftest.py::assert_claims``); ``repro-sim report``
prints every claim and exits 1 when one that applies fails.
EXPERIMENTS.md cites the ids.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.harness.config import (
    ALGORITHMS,
    FIGURE_NODE_COUNTS,
    TABLE2_NODE_COUNTS,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.extensions import speedup_rows
from repro.harness.figures import fig4_series, fig5_series, fig6_series
from repro.harness.table1 import PAPER_TABLE1, table1_rows
from repro.harness.table2 import winners_by_row

#: Below this scale too few gates land on each node for the paper's
#: timing claims (Table 2, Figure 4); their artifacts still render.
TIMING_SCALE = 0.1


@dataclass(frozen=True)
class Claim:
    id: str
    artifact: str
    text: str
    #: runner -> (holds?, evidence)
    check: Callable[[ExperimentRunner], tuple[bool, str]]
    min_scale: float = 0.0


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    #: None when the claim does not apply at the runner's scale.
    holds: bool | None
    evidence: str

    @property
    def mark(self) -> str:
        return {True: "PASS", False: "FAIL", None: "n/a"}[self.holds]


def _col(nodes: int) -> int:
    return FIGURE_NODE_COUNTS.index(nodes)


def _table1_counts(runner: ExperimentRunner) -> tuple[bool, str]:
    scale = runner.config.scale
    ok, shown = True, []
    for circuit, inputs, gates, outputs in table1_rows(runner):
        base = circuit.split("@")[0]
        p_in, p_gates, p_out = PAPER_TABLE1[base]
        if scale == 1.0:
            got, want = (inputs, gates, outputs), (p_in, p_gates, p_out)
        else:
            got, want = gates, max(8, round(p_gates * scale))
        ok &= got == want
        miss = "" if got == want else f" != {want}"
        shown.append(f"{base} {got}{miss}")
    unit = "(in, gates, out)" if scale == 1.0 else "gates"
    return ok, f"{unit}: " + ", ".join(shown)


def _ml_halves_sequential(runner: ExperimentRunner) -> tuple[bool, str]:
    ok, shown = True, []
    for circuit in TABLE2_NODE_COUNTS:
        seq = runner.sequential_time(circuit)
        ml = runner.record(circuit, "Multilevel", 8).execution_time
        ok &= ml < 0.5 * seq
        shown.append(f"{circuit} {ml / seq:.2f}x")
    return ok, "8-node time / sequential: " + ", ".join(shown)


def _ml_wins_rows(runner: ExperimentRunner) -> tuple[bool, str]:
    ok, rows, lost = True, 0, []
    for circuit, node_counts in TABLE2_NODE_COUNTS.items():
        # Strict on the figure circuit (the paper's own s9234@4 row,
        # Cluster by 6 %, would fail it); 15 % elsewhere, where the
        # paper has DFS ahead on s15850@6 (906 s vs 944 s).
        tolerance = 1.0 if circuit == "s9234" else 1.15
        for nodes in node_counts:
            if nodes < 4:
                continue
            rows += 1
            times = {
                a: runner.record(circuit, a, nodes).execution_time
                for a in ALGORITHMS
            }
            best = min(times, key=times.get)
            ok &= times["Multilevel"] <= times[best] * tolerance
            if best != "Multilevel":
                lost.append(
                    f"{circuit}@{nodes} {best}, Multilevel "
                    f"{times['Multilevel'] / times[best]:.2f}x"
                )
    evidence = f"Multilevel fastest in {rows - len(lost)}/{rows} rows"
    return ok, "; ".join([evidence, *lost])


def _topological_never_wins(runner: ExperimentRunner) -> tuple[bool, str]:
    winners = set(winners_by_row(runner).values())
    return "Topological" not in winners, (
        "row winners: " + ", ".join(sorted(winners))
    )


def _ml_fastest_beyond_4(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig4_series(runner)
    ok, shown = True, []
    for nodes in (5, 6, 7, 8):
        i = _col(nodes)
        rival = min(
            (a for a in ALGORITHMS if a != "Multilevel"),
            key=lambda a: series[a][i],
        )
        ml, best = series["Multilevel"][i], series[rival][i]
        ok &= ml <= best
        shown.append(f"{nodes}: {ml:.2f} vs {rival} {best:.2f}")
    return ok, "Multilevel vs best other at " + ", ".join(shown)


def _ml_beats_sequential(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig4_series(runner)
    seq = series["Sequential"][0]
    times = {
        n: series["Multilevel"][_col(n)] for n in FIGURE_NODE_COUNTS[1:]
    }
    slowest = max(times, key=times.get)
    return all(t < seq for t in times.values()), (
        f"slowest Multilevel {times[slowest]:.2f} ({slowest} nodes) "
        f"vs sequential {seq:.2f}"
    )


def _ml_scales(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig4_series(runner)["Multilevel"]
    two, eight = series[_col(2)], series[_col(8)]
    return eight < 0.75 * two, (
        f"8 nodes {eight:.2f} / 2 nodes {two:.2f} = {eight / two:.2f}"
    )


def _nothing_on_one_node(series: dict[str, list[float]]) -> tuple[bool, str]:
    counts = {a: series[a][_col(1)] for a in ALGORITHMS}
    busy = [f"{a} {v:.0f}" for a, v in counts.items() if v]
    return not busy, ", ".join(busy) or f"all {len(counts)} strategies 0"


def _message_extremes(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig5_series(runner)
    misses = []
    for nodes in FIGURE_NODE_COUNTS[1:]:
        i = _col(nodes)
        others = [series[a][i] for a in ALGORITHMS if a != "Multilevel"]
        column = [series[a][i] for a in ALGORITHMS]
        if not (
            series["Multilevel"][i] < min(others)
            and series["Topological"][i] == max(column)
        ):
            misses.append(nodes)
    eight = _col(8)
    evidence = (
        f"8 nodes: Multilevel {series['Multilevel'][eight]:.0f}, "
        f"Topological {series['Topological'][eight]:.0f}"
    )
    if misses:
        evidence += f"; fails at nodes {misses}"
    return not misses, evidence


def _rollbacks_grow(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig6_series(runner)
    two, eight = _col(2), _col(8)
    return all(series[a][eight] > series[a][two] for a in ALGORITHMS), (
        "2 -> 8 nodes: "
        + ", ".join(
            f"{a} {series[a][two]:.0f}->{series[a][eight]:.0f}"
            for a in ALGORITHMS
        )
    )


def _cluster_over_random(runner: ExperimentRunner) -> tuple[bool, str]:
    series = fig6_series(runner)
    ok, shown = True, []
    for nodes in (6, 8):
        i = _col(nodes)
        cluster, random = series["Cluster"][i], series["Random"][i]
        ok &= cluster > random
        shown.append(f"{nodes}: {cluster:.0f} vs {random:.0f}")
    return ok, "Cluster vs Random at " + ", ".join(shown)


def _speedup_shape(runner: ExperimentRunner) -> tuple[bool, str]:
    by_circuit: dict[str, list[tuple[int, float, float]]] = {}
    for circuit, nodes, _time, speedup, efficiency in speedup_rows(runner):
        by_circuit.setdefault(circuit, []).append((nodes, speedup, efficiency))
    ok, shown = True, []
    for circuit, points in by_circuit.items():
        points.sort()
        speedups = [s for _, s, _ in points]
        efficiencies = [e for _, _, e in points]
        ok &= speedups == sorted(speedups)
        ok &= efficiencies[-1] < efficiencies[0]
        shown.append(
            f"{circuit} " + "/".join(f"{s:.2f}" for s in speedups)
            + f"x, efficiency {efficiencies[0]:.2f}->{efficiencies[-1]:.2f}"
        )
    return ok, "; ".join(shown)


CLAIMS: tuple[Claim, ...] = (
    Claim("T1", "Table 1",
          "The generated circuits have the published inputs, gates and "
          "outputs at full scale; below it, gates = max(8, round(paper "
          "gates x scale))",
          _table1_counts),
    Claim("T2a", "Table 2",
          "Multilevel on 8 nodes runs in under half the sequential time, "
          "on every circuit",
          _ml_halves_sequential, TIMING_SCALE),
    Claim("T2b", "Table 2",
          "In every row with 4 or more nodes Multilevel is the fastest "
          "strategy on s9234 and within 15% of the fastest elsewhere",
          _ml_wins_rows, TIMING_SCALE),
    Claim("T2c", "Table 2",
          "Topological is never the fastest strategy of a row",
          _topological_never_wins, TIMING_SCALE),
    Claim("F4a", "Figure 4",
          "On s9234 Multilevel is the fastest strategy at 5, 6, 7 and 8 "
          "nodes, with no slack",
          _ml_fastest_beyond_4, TIMING_SCALE),
    Claim("F4b", "Figure 4",
          "On s9234 Multilevel beats the sequential simulator at every "
          "node count from 2 on",
          _ml_beats_sequential, TIMING_SCALE),
    Claim("F4c", "Figure 4",
          "On s9234 Multilevel on 8 nodes takes under 3/4 of its 2-node "
          "time",
          _ml_scales, TIMING_SCALE),
    Claim("F5a", "Figure 5",
          "On s9234 no strategy sends a message on a single node",
          lambda runner: _nothing_on_one_node(fig5_series(runner))),
    Claim("F5b", "Figure 5",
          "On s9234, at every node count from 2 on, Multilevel sends "
          "strictly the fewest messages and Topological the most",
          _message_extremes),
    Claim("F6a", "Figure 6",
          "On s9234 no strategy rolls back on a single node",
          lambda runner: _nothing_on_one_node(fig6_series(runner))),
    Claim("F6b", "Figure 6",
          "On s9234 every strategy rolls back more on 8 nodes than on 2",
          _rollbacks_grow),
    Claim("F6c", "Figure 6",
          "On s9234 the low-concurrency Cluster partition rolls back more "
          "than Random at 6 and 8 nodes",
          _cluster_over_random),
    Claim("E1", "E1",
          "Multilevel's speedup over sequential grows with the node count, "
          "and its parallel efficiency falls from the fewest to the most "
          "nodes, on every circuit",
          _speedup_shape),
)


def evaluate(
    runner: ExperimentRunner, artifact: str | None = None
) -> list[Verdict]:
    """A verdict on every claim, or on every claim of *artifact*."""
    verdicts = []
    for claim in CLAIMS:
        if artifact is not None and claim.artifact != artifact:
            continue
        if runner.config.scale < claim.min_scale:
            verdicts.append(Verdict(
                claim, None, f"applies from scale {claim.min_scale:g}"
            ))
        else:
            verdicts.append(Verdict(claim, *claim.check(runner)))
    return verdicts
