"""The cached experiment runner behind every table and figure."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.circuit.graph import CircuitGraph
from repro.circuit.iscas89 import load_benchmark
from repro.conservative import ConservativeResult, ConservativeSimulator
from repro.errors import ConfigError
from repro.harness.config import ExperimentConfig
from repro.obs import TraceWriter
from repro.partition.assignment import PartitionAssignment
from repro.partition.registry import get_partitioner
from repro.sim.kernel import SequentialResult, SequentialSimulator
from repro.sim.stimulus import RandomStimulus
from repro.warped.kernel import TimeWarpSimulator
from repro.warped.machine import VirtualMachine
from repro.warped.parallel import ProcessTimeWarpSimulator
from repro.warped.stats import TimeWarpResult

#: Machine fields that key a cached run.
_POLICY_FIELDS = tuple(
    field.name for field in fields(VirtualMachine) if field.name != "num_nodes"
)


@dataclass(frozen=True)
class RunRecord:
    """One cell of the paper's evaluation: a (circuit, algo, nodes) run."""

    circuit: str
    algorithm: str
    nodes: int
    execution_time: float
    app_messages: int
    rollbacks: int
    events_processed: int
    events_rolled_back: int
    efficiency: float

    @classmethod
    def from_result(cls, result: TimeWarpResult) -> "RunRecord":
        return cls(
            circuit=result.circuit_name,
            algorithm=result.algorithm,
            nodes=result.num_nodes,
            execution_time=result.execution_time,
            app_messages=result.app_messages,
            rollbacks=result.rollbacks,
            events_processed=result.events_processed,
            events_rolled_back=result.events_rolled_back,
            efficiency=result.efficiency,
        )

    @classmethod
    def mean_of(cls, results: "list[TimeWarpResult]") -> "RunRecord":
        """Average over repetitions — the paper's five-run methodology.

        Counters are reported as (rounded) means so the figures keep
        integer-like semantics.
        """
        n = len(results)
        first = results[0]
        return cls(
            circuit=first.circuit_name,
            algorithm=first.algorithm,
            nodes=first.num_nodes,
            execution_time=sum(r.execution_time for r in results) / n,
            app_messages=round(sum(r.app_messages for r in results) / n),
            rollbacks=round(sum(r.rollbacks for r in results) / n),
            events_processed=round(
                sum(r.events_processed for r in results) / n
            ),
            events_rolled_back=round(
                sum(r.events_rolled_back for r in results) / n
            ),
            efficiency=sum(r.efficiency for r in results) / n,
        )


class ExperimentRunner:
    """Runs and memoizes the simulations behind the paper's artifacts.

    A single runner instance shares circuits, stimuli, partitions and
    completed runs across artifacts — Figures 4-6 reuse the s9234 rows
    of Table 2 instead of resimulating, exactly as the paper's numbers
    come from one set of experiments.
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig.from_env()
        self._circuits: dict[str, CircuitGraph] = {}
        self._stimuli: dict[tuple[str, int], RandomStimulus] = {}
        self._sequential: dict[tuple[str, int], SequentialResult] = {}
        self._partitions: dict[tuple[str, str, int], PartitionAssignment] = {}
        self._runs: dict[tuple, TimeWarpResult | ConservativeResult] = {}
        #: Trace files written so far, in execution order.
        self.trace_files: list[str] = []

    # ------------------------------------------------------------------
    def _next_trace_path(self) -> str | None:
        """Distinct trace file per run: the base path, then numbered."""
        base = self.config.trace_path
        if base is None:
            return None
        path = base if not self.trace_files else f"{base}.{len(self.trace_files)}"
        self.trace_files.append(path)
        return path

    # ------------------------------------------------------------------
    def circuit(self, name: str) -> CircuitGraph:
        """The benchmark circuit at the configured scale (cached)."""
        if name not in self._circuits:
            scale = self.config.scale
            self._circuits[name] = load_benchmark(
                name, scale=scale, seed=self.config.circuit_seed
            )
        return self._circuits[name]

    def stimulus(self, name: str, rep: int = 0) -> RandomStimulus:
        """The workload for circuit *name*, repetition *rep* (cached)."""
        key = (name, rep)
        if key not in self._stimuli:
            self._stimuli[key] = RandomStimulus(
                self.circuit(name),
                num_cycles=self.config.num_cycles,
                period=self.config.period,
                activity=self.config.activity,
                seed=self.config.stimulus_seed + 7919 * rep,
            )
        return self._stimuli[key]

    def sequential(self, name: str, rep: int = 0) -> SequentialResult:
        """The sequential-baseline run for circuit *name* (cached).

        When repetitions > 1, the Table 2 "Seq Time" column uses the
        repetition mean, like every other cell.
        """
        key = (name, rep)
        if key not in self._sequential:
            self._sequential[key] = SequentialSimulator(
                self.circuit(name), self.stimulus(name, rep)
            ).run()
        return self._sequential[key]

    def sequential_time(self, name: str) -> float:
        """Mean sequential execution time over the repetitions."""
        reps = self.config.repetitions
        return sum(
            self.sequential(name, rep).execution_time for rep in range(reps)
        ) / reps

    def partition(self, name: str, algorithm: str, k: int) -> PartitionAssignment:
        """The k-way partition of *name* under *algorithm* (cached)."""
        key = (name, algorithm, k)
        if key not in self._partitions:
            partitioner = get_partitioner(
                algorithm, seed=self.config.partition_seed
            )
            self._partitions[key] = partitioner.partition(self.circuit(name), k)
        return self._partitions[key]

    def machine(self, nodes: int, **policy) -> VirtualMachine:
        """The configured machine on *nodes* nodes; any
        :class:`VirtualMachine` field in *policy* overrides the config."""
        config = self.config
        settings = dict(
            gvt_interval=config.gvt_interval,
            optimism_window=config.optimism_window,
            checkpoint_interval=config.checkpoint_interval,
            migration_threshold=config.migration_threshold,
            migration_fraction=config.migration_fraction,
        )
        settings.update(policy)
        return VirtualMachine(num_nodes=nodes, **settings)

    def simulate(
        self,
        name: str,
        assignment: PartitionAssignment,
        rep: int = 0,
        *,
        kernel: str = "timewarp",
        trace_path: str | None = None,
        **policy,
    ) -> TimeWarpResult | ConservativeResult:
        """Run *assignment* of circuit *name* on :meth:`machine` and
        check it against the sequential oracle (not memoized).

        *kernel* is ``"timewarp"`` (the configured backend) or
        ``"conservative"`` (CMB, virtual backend only).
        """
        if kernel not in ("timewarp", "conservative"):
            raise ConfigError(
                f"kernel must be 'timewarp' or 'conservative', got {kernel!r}"
            )
        if kernel == "conservative" and self.config.backend == "process":
            raise ConfigError(
                "the conservative kernel runs on the virtual backend only "
                "(the process backend is Time Warp only)"
            )
        job = (
            self.circuit(name),
            assignment,
            self.stimulus(name, rep),
            self.machine(assignment.k, **policy),
        )
        if kernel == "conservative":
            result = ConservativeSimulator(*job).run()
        elif self.config.backend == "process":
            result = ProcessTimeWarpSimulator(
                *job,
                trace_path=trace_path,
                status_path=self.config.status_path,
                max_restarts=self.config.max_restarts,
                transport=self.config.transport,
            ).run()
        elif trace_path is not None:
            with TraceWriter(trace_path) as tracer:
                result = TimeWarpSimulator(*job, tracer=tracer).run()
        else:
            result = TimeWarpSimulator(*job).run()
        # Correctness oracle: neither optimism nor any policy may change
        # the committed results.
        why = self.sequential(name, rep).disagreement(result)
        if why is not None:
            raise AssertionError(
                f"{kernel} run of {name} ({assignment.algorithm} "
                f"x{assignment.k}, rep {rep}, {policy}): {why}"
            )
        return result

    def run(
        self,
        name: str,
        algorithm: str,
        nodes: int,
        rep: int = 0,
        *,
        kernel: str = "timewarp",
        **policy,
    ) -> TimeWarpResult | ConservativeResult:
        """One oracle-checked cell (cached by its resolved machine, so a
        policy equal to the config's own value is the Table 2 cell)."""
        machine = self.machine(nodes, **policy)
        key = (
            name, algorithm, nodes, rep, kernel,
            *(getattr(machine, field) for field in _POLICY_FIELDS),
        )
        if key not in self._runs:
            self._runs[key] = self.simulate(
                name,
                self.partition(name, algorithm, nodes),
                rep,
                kernel=kernel,
                trace_path=(
                    self._next_trace_path() if kernel == "timewarp" else None
                ),
                **policy,
            )
        return self._runs[key]

    def record(
        self, name: str, algorithm: str, nodes: int, **policy
    ) -> RunRecord:
        """The (repetition-averaged) Time Warp cell for one configuration."""
        reps = self.config.repetitions
        if reps == 1:
            return RunRecord.from_result(
                self.run(name, algorithm, nodes, **policy)
            )
        return RunRecord.mean_of([
            self.run(name, algorithm, nodes, rep, **policy)
            for rep in range(reps)
        ])

    def sweep(
        self,
        name: str,
        algorithms: tuple[str, ...],
        node_counts: tuple[int, ...],
    ) -> list[RunRecord]:
        """All (algorithm, nodes) cells for one circuit."""
        return [
            self.record(name, algorithm, nodes)
            for algorithm in algorithms
            for nodes in node_counts
        ]
