"""Shared pieces of the end-to-end benchmark: the metric contract,
seed derivation, robust statistics, the oracle check and the host probe.

``BENCHMARK.json`` at the repository root is the single statement of
which metrics exist, their units and bounds; this module loads it so
the runner, the child interpreters and the tests cannot drift from it.
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"



@functools.cache
def contract() -> dict:
    """The parsed ``BENCHMARK.json`` (read once, treated as read-only)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names() -> tuple[str, ...]:
    return tuple(w["name"] for w in contract()["workloads"])


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in contract()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    return {m["name"]: m for m in contract()["per_layer"]}


#: Counters of the deterministic engines (sequential simulator, virtual
#: Time Warp kernel, partitioner) on the run's first stimulus.  The same
#: ``--seed`` must reproduce them bit for bit: ``--agree`` compares them
#: exactly, and a change meant only to make the host faster must leave
#: every one of them untouched.
EXACT = frozenset(
    {
        "circuit.gates",
        "sim.sequential_events",
        "partition.edge_cut",
        "partition.load_imbalance",
        "partition.concurrency",
        "kernel.events_processed",
        "kernel.events_rolled_back",
        "kernel.rollbacks",
        "kernel.app_messages",
        "kernel.anti_messages",
        "kernel.gvt_rounds",
        "kernel.peak_history",
        "kernel.efficiency",
        "kernel.modelled_s",
        "kernel.modelled_utilization_min",
    }
)

#: The netlist is the paper's fixed benchmark circuit (its synthetic
#: stand-in, generated once from this seed) and the engine workloads'
#: partition is one fixed run of the partitioner: both are the system's
#: configuration.  ``--seed`` drives what a user varies between jobs —
#: the stimulus vectors, and the order and seeds of the served mix.
#: (Measured: over generator seeds the s9234 stand-in's sequential time
#: ranges 0.46-1.0 s, over Multilevel seeds its modelled speed-up
#: 2.6-3.05; neither is another sample of the same workload.)
CIRCUIT_SEED = 2000
PARTITION_SEED = 2000


def sub_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one named input of the run."""
    return random.Random(f"e2e/{seed}/{label}").randrange(2**31)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def digest(values) -> dict:
    """What the protocol asks every timing to be reported with."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def matches_oracle(final_values, committed_captures, oracle) -> bool:
    """Committed result == the sequential simulator's, value for value.

    *committed_captures* may come back from JSON (lists, not tuples).
    """
    return list(final_values) == list(oracle.final_values) and [
        tuple(capture) for capture in committed_captures or ()
    ] == [tuple(capture) for capture in oracle.committed_captures or ()]


class Tally:
    """Operations attempted / failed, and whether any output was wrong.

    A *failed* operation produced no result in time (error, timeout,
    non-2xx) and is left out of every timing; a *wrong* one produced a
    result that disagrees with the oracle or the expected cache class —
    it is counted as failed too and makes the whole run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)

    def wrong(self, note: str) -> None:
        self.fail(note)
        self.correct = False

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# host probe
# ----------------------------------------------------------------------
def _spin() -> float:
    """Seconds one fixed piece of pure-python work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0


class HostProbe:
    """Tells a noisy host from a noisy program.

    The same fixed spin is timed between repeats; when its spread is
    wide the host, not the code under test, moved.
    """

    def __init__(self) -> None:
        self.load1_start = os.getloadavg()[0]
        self.spins: list[float] = []

    def spin(self) -> None:
        self.spins.extend(_spin() for _ in range(3))

    def metrics(self) -> dict[str, float]:
        return {
            "host.cpus": float(os.cpu_count() or 1),
            "host.load1_start": self.load1_start,
            "host.load1_end": os.getloadavg()[0],
            "host.spin_ms": median(self.spins) * 1e3,
            "host.spin_spread": spread(self.spins),
        }


def peak_rss_mb() -> float:
    """High-water RSS of this interpreter and of everything it reaped."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )
