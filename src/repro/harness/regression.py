"""Serialisable kernel-regression cases and their replay machinery.

A *case* is a plain JSON-able dict that pins one complete simulation
configuration: generator spec, stimulus, partitioner, node count,
machine policies, and the engines to run.  The fuzzer
(``tools/fuzz_kernels.py``) writes a case file for every failure it
finds; ``tests/test_regression_corpus.py`` replays every file committed
under ``tests/corpus/`` — so once a fuzz finding is fixed, the exact
configuration that exposed it keeps running in CI forever.

``run_case`` is the single replay path both of them share: it rebuilds
the job from the case and hands it to ``check_engines``, the one check
that runs engines against the sequential oracle (the differential and
property tests call it directly).  Both return a list of
human-readable mismatch descriptions (empty = clean).  Engine crashes
propagate as exceptions; callers that must not die (the fuzzer) catch
them.
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


def check_engines(
    circuit,
    assignment,
    stimulus,
    machine: VirtualMachine,
    engines,
    *,
    timeout: float = 120.0,
) -> list[str]:
    """Run the sequential oracle once and every engine named in
    *engines* on one job; returns mismatch descriptions (empty = every
    engine agrees).

    Engines are ``timewarp``, ``process``, ``process-shm``, ``served``,
    ``served-shm`` and ``conservative``; a name may repeat.  The plain
    process and served engines take the default wire; the process
    engines drop the machine knobs they do not implement.  Each engine
    must match the oracle (final values, then committed captures), the
    ``-shm`` engines must report the shm wire, and all engines must
    commit the same number of events: rollback makes the committed
    count schedule-independent, so any drift means an engine lost,
    duplicated or misdecoded a message.
    """
    oracle = SequentialSimulator(circuit, stimulus).run()
    process_machine = VirtualMachine(
        num_nodes=machine.num_nodes,
        **{key: getattr(machine, key) for key in _PROCESS_MACHINE_KEYS},
    )
    failures: list[str] = []
    # (engine, committed events) of the first engine run.
    first: tuple[str, int] | None = None
    for engine in engines:
        wire = "shm" if engine.endswith("-shm") else None
        if engine == "timewarp":
            result = TimeWarpSimulator(circuit, assignment, stimulus, machine).run()
        elif engine == "conservative":
            result = ConservativeSimulator(
                circuit, assignment, stimulus, machine
            ).run()
        elif engine in ("process", "process-shm"):
            result = ProcessTimeWarpSimulator(
                circuit, assignment, stimulus, process_machine,
                transport=wire, timeout=timeout,
            ).run()
        elif engine in ("served", "served-shm"):
            # The warm-ring path the job server executes on: a ring
            # started empty that is shipped the world, where a process
            # run forks its ring with it.
            from repro.warped.parallel.ring import WorkerRing

            with WorkerRing(machine.num_nodes, transport=wire) as ring:
                result = ring.run_job(
                    circuit, assignment, stimulus, process_machine,
                    timeout=timeout,
                )
        else:
            raise ValueError(f"unknown engine {engine!r}")
        why = oracle.disagreement(result)
        if why is not None:
            failures.append(f"{engine}: {why}")
        if wire is not None and result.transport != wire:
            failures.append(f"{engine}: ran on the {result.transport} wire")
        n = result.events_committed
        if first is None:
            first = (engine, n)
        elif n != first[1]:
            failures.append(
                f"engines diverged: {first[0]} committed {first[1]} "
                f"events, {engine} {n}"
            )
    return failures


def run_case(case: dict) -> list[str]:
    """Replay *case*; returns mismatch descriptions (empty = clean)."""
    circuit = generate_circuit(GeneratorSpec(**case["spec"]))
    k = case["k"]
    assignment = get_partitioner(
        case["partitioner"], seed=case.get("partitioner_seed", 0)
    ).partition(circuit, k)
    return check_engines(
        circuit,
        assignment,
        RandomStimulus(circuit, **case["stimulus"]),
        VirtualMachine(num_nodes=k, **case.get("machine", {})),
        case.get("engines", ("timewarp",)),
    )


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
