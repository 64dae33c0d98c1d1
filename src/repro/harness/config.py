"""Experiment configuration (and the scaled-by-default policy).

Full-size ISCAS'89 circuits with hundreds of cycles are slow in pure
Python; by default experiments run faithfully-structured scaled
circuits (DESIGN.md §5). Environment overrides:

- ``REPRO_FULL=1`` — paper-scale circuits and cycle counts;
- ``REPRO_SCALE=0.25`` — explicit circuit scale;
- ``REPRO_CYCLES=200`` — explicit stimulus cycle count;
- ``REPRO_BACKEND=process`` — run Time Warp on real OS processes
  instead of the modelled virtual machine;
- ``REPRO_TW_TRANSPORT=shm`` — process-backend wire transport
  (``queue`` or ``shm`` shared-memory rings);
- ``REPRO_TRACE=path.jsonl`` — record a JSONL trace of every run
  (rollbacks, GVT rounds, queue depths; see :mod:`repro.obs`);
- ``REPRO_STATUS=path`` — live per-node status snapshots (process
  backend; ``tools/tw_top.py`` tails them);
- ``REPRO_TW_CKPT=interval`` — periodic consistent checkpoints every
  *interval* virtual time units (process backend: crash-recovery
  epochs; virtual backend: periodic state saving);
- ``REPRO_TW_RESTARTS=n`` — per-node restart budget for the process
  backend (needs ``REPRO_TW_CKPT``);
- ``REPRO_TW_MIGRATE=ratio`` — adaptive LP migration threshold (> 1):
  at each GVT epoch the busiest node sheds LPs toward the idlest when
  its busy window exceeds *ratio* times the idlest's (both backends);
- ``REPRO_TW_MIGRATE_FRACTION=f`` — max fraction of the busiest
  node's LPs moved per migration epoch (default 0.05);
- ``REPRO_METRICS=1`` — collect and print harness-level metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.warped.machine import TimeWarpCostModel
from repro.warped.parallel.transport import TRANSPORT_NAMES
from repro.sim.cost_model import SequentialCostModel

#: Circuits of the paper's Table 1, with the node counts Table 2 reports
#: (s15850 lacks the 2-node row: the paper reports that configuration
#: exhausted memory).
TABLE2_NODE_COUNTS: dict[str, tuple[int, ...]] = {
    "s5378": (2, 4, 6, 8),
    "s9234": (2, 4, 6, 8),
    "s15850": (4, 6, 8),
}

#: Node axis of Figures 4-6 (s9234).
FIGURE_NODE_COUNTS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

#: Partitioner order used in the paper's Table 2 columns.
ALGORITHMS: tuple[str, ...] = (
    "Random",
    "DFS",
    "Cluster",
    "Topological",
    "Multilevel",
    "ConePartition",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment sweep depends on."""

    scale: float = 0.12
    num_cycles: int = 60
    period: int = 100
    activity: float = 0.5
    circuit_seed: int = 2000
    stimulus_seed: int = 7
    partition_seed: int = 3
    #: Optimism window in clock periods (None = unthrottled Time Warp).
    window_periods: float | None = 1.0
    #: Independent repetitions per cell (distinct stimulus seeds), with
    #: the mean reported — the paper "repeated five times and the
    #: average was used". 1 keeps the default artifacts fast.
    repetitions: int = 1
    gvt_interval: int = 512
    #: Time Warp execution substrate: "virtual" runs the deterministic
    #: modelled machine (the paper-reproduction default), "process" runs
    #: one OS process per node and reports measured wall-clock.
    backend: str = "virtual"
    #: Wire transport of the process backend: "queue" (one pipe per
    #: node carrying pickled batches) or "shm" (shared-memory rings of
    #: struct-packed records).  Ignored by the virtual backend.
    transport: str = "queue"
    #: JSONL trace destination (None disables tracing).  Every run the
    #: harness executes appends a distinct file derived from this base
    #: (first run gets the exact path; see ExperimentRunner.trace_path).
    trace_path: str | None = None
    #: Live-status base path (process backend only): workers refresh
    #: per-node JSON snapshots ``<base>.node<i>`` every GVT round for
    #: ``tools/tw_top.py`` to tail.  None disables the snapshots.
    status_path: str | None = None
    #: Periodic consistent-checkpoint interval in virtual time units
    #: (None disables).  On the process backend this drives the
    #: crash-recovery epochs; on the virtual backend it selects the
    #: kernel's periodic state-saving policy.
    checkpoint_interval: int | None = None
    #: Per-node restart budget for the process backend (0 = fail-stop;
    #: > 0 needs ``checkpoint_interval``).
    max_restarts: int = 0
    #: Where the process backend keeps its checkpoint epoch files
    #: (None = a temporary directory per run).
    checkpoint_dir: str | None = None
    #: Adaptive LP migration: at each GVT epoch, when the busiest
    #: node's busy window exceeds this ratio times the idlest node's,
    #: loosely-attached hot LPs migrate toward the idlest node.  Must
    #: be > 1; None disables migration (static partitions, as in the
    #: paper).  Honoured by both backends.
    migration_threshold: float | None = None
    #: At most this fraction of the busiest node's LPs moves per
    #: migration epoch.
    migration_fraction: float = 0.05
    #: Collect counters/timers in the harness (printed by the CLI).
    metrics_enabled: bool = False
    tw_costs: TimeWarpCostModel = field(default_factory=TimeWarpCostModel)
    seq_costs: SequentialCostModel = field(default_factory=SequentialCostModel)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.num_cycles < 2:
            raise ConfigError("need at least 2 cycles (cycle 0 is reset)")
        if self.window_periods is not None and self.window_periods <= 0:
            raise ConfigError("window_periods must be positive or None")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.backend not in ("virtual", "process"):
            raise ConfigError(
                f"backend must be 'virtual' or 'process', got {self.backend!r}"
            )
        if self.transport not in TRANSPORT_NAMES:
            raise ConfigError(
                f"transport must be one of {sorted(TRANSPORT_NAMES)}, "
                f"got {self.transport!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive or None")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.max_restarts > 0 and self.checkpoint_interval is None:
            raise ConfigError(
                "max_restarts needs checkpoint_interval: restarts resume "
                "from periodic checkpoint epochs"
            )
        if (
            self.migration_threshold is not None
            and self.migration_threshold <= 1.0
        ):
            raise ConfigError(
                "migration_threshold must be > 1 (or None): a ratio at or "
                "below 1 would migrate on every epoch"
            )
        if not 0.0 < self.migration_fraction <= 1.0:
            raise ConfigError("migration_fraction must be in (0, 1]")

    @property
    def optimism_window(self) -> int | None:
        if self.window_periods is None:
            return None
        return max(1, round(self.window_periods * self.period))

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentConfig":
        """Default config, honouring the ``REPRO_*`` environment knobs.

        Precedence is uniform across every knob: an explicit override
        (keyword argument — e.g. a CLI flag or a served job's config)
        always wins, the environment only supplies defaults.  The
        specific knobs (``REPRO_SCALE``/``REPRO_CYCLES``) are applied
        before the blanket ``REPRO_FULL`` so they beat its paper-scale
        defaults too.
        """
        if "REPRO_SCALE" in os.environ:
            overrides.setdefault("scale", float(os.environ["REPRO_SCALE"]))
        if "REPRO_CYCLES" in os.environ:
            overrides.setdefault("num_cycles", int(os.environ["REPRO_CYCLES"]))
        if os.environ.get("REPRO_FULL") == "1":
            overrides.setdefault("scale", 1.0)
            overrides.setdefault("num_cycles", 400)
        if "REPRO_REPS" in os.environ:
            overrides.setdefault("repetitions", int(os.environ["REPRO_REPS"]))
        if "REPRO_BACKEND" in os.environ:
            overrides.setdefault("backend", os.environ["REPRO_BACKEND"])
        if "REPRO_TW_TRANSPORT" in os.environ:
            overrides.setdefault(
                "transport", os.environ["REPRO_TW_TRANSPORT"]
            )
        if "REPRO_TRACE" in os.environ:
            overrides.setdefault("trace_path", os.environ["REPRO_TRACE"])
        if "REPRO_STATUS" in os.environ:
            overrides.setdefault("status_path", os.environ["REPRO_STATUS"])
        if "REPRO_TW_CKPT" in os.environ:
            overrides.setdefault(
                "checkpoint_interval", int(os.environ["REPRO_TW_CKPT"])
            )
        if "REPRO_TW_RESTARTS" in os.environ:
            overrides.setdefault(
                "max_restarts", int(os.environ["REPRO_TW_RESTARTS"])
            )
        if "REPRO_TW_MIGRATE" in os.environ:
            overrides.setdefault(
                "migration_threshold", float(os.environ["REPRO_TW_MIGRATE"])
            )
        if "REPRO_TW_MIGRATE_FRACTION" in os.environ:
            overrides.setdefault(
                "migration_fraction",
                float(os.environ["REPRO_TW_MIGRATE_FRACTION"]),
            )
        if os.environ.get("REPRO_METRICS") == "1":
            overrides.setdefault("metrics_enabled", True)
        return cls(**overrides)

    def describe(self) -> str:
        """One-line description recorded next to every artifact."""
        window = (
            "unbounded"
            if self.window_periods is None
            else f"{self.window_periods} period(s)"
        )
        suffix = (
            ""
            if self.backend == "virtual"
            else f" backend={self.backend} transport={self.transport}"
        )
        return (
            f"scale={self.scale:g} cycles={self.num_cycles} "
            f"period={self.period} activity={self.activity:g} "
            f"window={window}{suffix}"
        )
