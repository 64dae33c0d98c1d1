#!/usr/bin/env python3
"""Per-partitioner scorecard: static cut quality joined with traced
Time Warp dynamics — the analogue of the paper's Tables 2-4, with the
rollback columns *cascade-attributed* (every rollback in the trace is
chained to the straggler that rooted it, and the wasted-event totals
are asserted to reconcile exactly with the kernel's counters before a
row is printed).

    python tools/partition_report.py                       # s27 x 4 nodes
    python tools/partition_report.py --circuit s9234 --nodes 8 --scale 0.12
    python tools/partition_report.py --json scorecard.json

Runs the virtual (modelled-cluster) backend so rows are deterministic
for a fixed seed set.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.config import ALGORITHMS, ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.obs import (
    analyze_trace,
    read_trace,
    render_analysis,
    render_scorecard,
    scorecard_row,
)


def build_scorecard(
    runner: ExperimentRunner,
    circuit_name: str,
    nodes: int,
    *,
    algorithms: tuple[str, ...] = ALGORITHMS,
    trace_dir: str | None = None,
    forensics: bool = False,
    migration_threshold: float | None = None,
) -> tuple[list[dict], list[str]]:
    """One traced, oracle-checked run per partitioner on *runner*'s
    machine; returns (rows, reports).

    With ``migration_threshold`` set, every static row is followed by a
    second ``<algorithm>+adaptive`` row from the same partition rerun
    with runtime LP migration enabled, so the table reads as paired
    static/adaptive comparisons.
    """
    trace_dir = trace_dir or tempfile.mkdtemp(prefix="partition_report.")
    rows: list[dict] = []
    reports: list[str] = []
    for algorithm in algorithms:
        assignment = runner.partition(circuit_name, algorithm, nodes)
        variants = [(algorithm, None)]
        if migration_threshold is not None:
            variants.append((f"{algorithm}+adaptive", migration_threshold))
        for label, threshold in variants:
            trace_path = str(Path(trace_dir) / f"{circuit_name}.{label}.jsonl")
            result = runner.simulate(
                circuit_name, assignment, trace_path=trace_path,
                migration_threshold=threshold,
            )
            records = read_trace(trace_path)
            # scorecard_row raises AssertionError unless every rollback
            # is cascade-attributed and wasted totals reconcile exactly.
            row = scorecard_row(result, assignment, records)
            row["algorithm"] = label
            rows.append(row)
            if forensics:
                reports.append(render_analysis(
                    analyze_trace(
                        records, circuit=runner.circuit(circuit_name),
                        assignment=assignment,
                        cost_model=runner.config.tw_costs,
                    ),
                    title=f"{circuit_name} / {label} x{nodes}",
                ))
    return rows, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s27",
                        choices=["s27", "s5378", "s9234", "s15850"])
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="circuit scale (s27 ships full-size only)")
    parser.add_argument("--cycles", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7,
                        help="stimulus seed (fixed => deterministic rows)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="keep the per-partitioner traces here")
    parser.add_argument("--forensics", action="store_true",
                        help="print the full per-run forensics report too")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the rows as JSON (- for stdout)")
    parser.add_argument("--adaptive", type=float, default=None, metavar="R",
                        help="add an <algorithm>+adaptive row per "
                             "partitioner, rerun with runtime LP "
                             "migration at busy-window ratio R")
    parser.add_argument("--migration-fraction", type=float, default=0.05,
                        metavar="F",
                        help="LP fraction shed per adaptive decision")
    args = parser.parse_args(argv)
    if args.trace_dir is not None:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    runner = ExperimentRunner(ExperimentConfig(
        scale=args.scale, num_cycles=args.cycles, stimulus_seed=args.seed,
        window_periods=None, gvt_interval=64,
        migration_fraction=args.migration_fraction,
    ))
    rows, reports = build_scorecard(
        runner, args.circuit, args.nodes,
        trace_dir=args.trace_dir, forensics=args.forensics,
        migration_threshold=args.adaptive,
    )
    title = f"{args.circuit} x{args.nodes} nodes, {args.cycles} cycles"
    print(render_scorecard(rows, title=title))
    for report in reports:
        print()
        print(report)
    if args.json is not None:
        payload = json.dumps(rows, indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
