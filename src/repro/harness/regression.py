"""Serialisable kernel-regression cases and their replay machinery.

A *case* is a plain JSON-able dict that pins one complete simulation
configuration: generator spec, stimulus, partitioner, node count,
machine policies, and the engines to run.  The fuzzer
(``tools/fuzz_kernels.py``) writes a case file for every failure it
finds; ``tests/test_regression_corpus.py`` replays every file committed
under ``tests/corpus/`` — so once a fuzz finding is fixed, the exact
configuration that exposed it keeps running in CI forever.

``run_case`` is the single replay path both of them share: it rebuilds
the world from the case, runs every requested engine, and returns a
list of human-readable mismatch descriptions (empty = the case is
clean).  Engine crashes propagate as exceptions; callers that must not
die (the fuzzer) catch them.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.circuit import GeneratorSpec, generate_circuit
from repro.conservative import ConservativeSimulator
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import (
    ProcessTimeWarpSimulator,
    TimeWarpSimulator,
    VirtualMachine,
)

#: Machine knobs the process backend honours (the rest model policies
#: it does not implement and are dropped when building its machine).
_PROCESS_MACHINE_KEYS = (
    "optimism_window",
    "gvt_interval",
    "migration_threshold",
    "migration_fraction",
)


def run_case(case: dict) -> list[str]:
    """Replay *case*; returns mismatch descriptions (empty = clean)."""
    spec = GeneratorSpec(**case["spec"])
    circuit = generate_circuit(spec)
    stimulus = RandomStimulus(circuit, **case["stimulus"])
    sequential = SequentialSimulator(circuit, stimulus).run()
    k = case["k"]
    assignment = get_partitioner(
        case["partitioner"], seed=case.get("partitioner_seed", 0)
    ).partition(circuit, k)
    machine_kwargs = dict(case.get("machine", {}))
    failures: list[str] = []

    def check(engine: str, result) -> None:
        why = sequential.disagreement(result)
        if why is not None:
            failures.append(f"{engine}: {why}")

    process_committed: dict[str, int] = {}
    for engine in case.get("engines", ("timewarp",)):
        if engine == "timewarp":
            machine = VirtualMachine(num_nodes=k, **machine_kwargs)
            result = TimeWarpSimulator(circuit, assignment, stimulus, machine).run()
        elif engine in ("process", "process-shm"):
            machine = VirtualMachine(
                num_nodes=k,
                **{
                    key: value
                    for key, value in machine_kwargs.items()
                    if key in _PROCESS_MACHINE_KEYS
                },
            )
            result = ProcessTimeWarpSimulator(
                circuit, assignment, stimulus, machine,
                transport="shm" if engine == "process-shm" else None,
            ).run()
            process_committed[engine] = result.events_committed
        elif engine in ("served", "served-shm"):
            # The warm-ring path the job server executes on: a ring
            # started empty that is shipped the world, where a process
            # run forks its ring with it.  Running it through the
            # differential layer holds warm-pool results to the exact
            # committed output of every other engine.
            from repro.warped.parallel.ring import WorkerRing

            machine = VirtualMachine(
                num_nodes=k,
                **{
                    key: value
                    for key, value in machine_kwargs.items()
                    if key in _PROCESS_MACHINE_KEYS
                },
            )
            with WorkerRing(
                k, transport="shm" if engine == "served-shm" else None
            ) as ring:
                result = ring.run_job(circuit, assignment, stimulus, machine)
            process_committed[engine] = result.events_committed
        elif engine == "conservative":
            result = ConservativeSimulator(
                circuit, assignment, stimulus, VirtualMachine(num_nodes=k)
            ).run()
        else:
            raise ValueError(f"unknown engine {engine!r} in case")
        check(engine, result)
    if len(process_committed) >= 2:
        # Cross-engine determinism: rollback makes the *committed*
        # event count interleaving-independent, so every process-family
        # engine (cold queue/shm, warm served rings) must agree on it
        # exactly — any drift means an engine lost, duplicated, or
        # misdecoded a message.
        counts = sorted(process_committed.items())
        reference_engine, reference_n = counts[0]
        for engine, n in counts[1:]:
            if n != reference_n:
                failures.append(
                    f"engines diverged: {reference_engine} committed "
                    f"{reference_n} events, {engine} {n}"
                )
    return failures


def load_case(path: str | Path) -> dict:
    """Read one case file."""
    return json.loads(Path(path).read_text())


def write_case(case: dict, directory: str | Path, stem: str) -> Path:
    """Write *case* as ``<directory>/<stem>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path
