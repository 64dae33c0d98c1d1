#!/usr/bin/env python3
"""Run the pinned hot-path workloads and maintain the BENCH trajectory.

The repo root accumulates ``BENCH_<n>.json`` files — one per recorded
performance point, numbered monotonically (``BENCH_1.json`` is the
first). Each file holds the events/sec and peak-history measurements
of every workload/engine pair from ``benchmarks/bench_hotpath.py``,
so the sequence is the project's performance trajectory over time.

    # measure and print, no files touched
    python tools/bench_runner.py

    # gate: compare against the newest committed BENCH_<n>.json and
    # exit 1 if any engine lost more than 20% events/sec
    python tools/bench_runner.py --check

    # record: write the next BENCH_<n+1>.json (optionally --check first)
    python tools/bench_runner.py --record

    # CI smoke subset
    python tools/bench_runner.py --check --workloads s27 synthetic-s5378

Comparison is per workload/engine on ``events_per_sec``; pairs missing
from the baseline (new workloads) pass vacuously. The threshold is
deliberately loose (20%) because absolute throughput varies across
hosts — the gate catches order-of-magnitude mistakes and steady decay,
not single-digit noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")
SCHEMA_VERSION = 1


def trajectory(root: Path = REPO_ROOT) -> list[tuple[int, Path]]:
    """All ``BENCH_<n>.json`` files under *root*, sorted by n."""
    entries = []
    for path in root.iterdir():
        match = BENCH_PATTERN.match(path.name)
        if match:
            entries.append((int(match.group(1)), path))
    return sorted(entries)


def next_bench_path(root: Path = REPO_ROOT) -> Path:
    """Path of the next trajectory entry (``BENCH_1.json`` if none)."""
    entries = trajectory(root)
    n = entries[-1][0] + 1 if entries else 1
    return root / f"BENCH_{n}.json"


def compare_runs(
    baseline: dict, current: dict, threshold: float
) -> list[str]:
    """Regression descriptions (empty = clean).

    A workload/engine pair regresses when its current events/sec falls
    below ``(1 - threshold)`` of the baseline's. Pairs absent from the
    baseline are skipped — a new workload cannot regress.
    """
    failures: list[str] = []
    for workload, engines in current.get("workloads", {}).items():
        base_engines = baseline.get("workloads", {}).get(workload, {})
        for engine, record in engines.items():
            base = base_engines.get(engine)
            if base is None:
                continue
            base_rate = base["events_per_sec"]
            rate = record["events_per_sec"]
            if rate < (1.0 - threshold) * base_rate:
                failures.append(
                    f"{workload}/{engine}: {rate:,.0f} ev/s is "
                    f"{(1.0 - rate / base_rate) * 100:.1f}% below the "
                    f"baseline {base_rate:,.0f} ev/s "
                    f"(threshold {threshold * 100:.0f}%)"
                )
    return failures


def workload_modules() -> list:
    """Benchmark modules contributing workloads, in listing order.

    Each exposes ``WORKLOADS`` (name -> workload with an ``engines``
    tuple) and ``run_workload(workload, repeats=...)`` returning the
    per-engine measurement records.
    """
    import bench_hotpath

    return [bench_hotpath]


def all_workloads() -> dict:
    """name -> (module, workload) across every benchmark module."""
    table = {}
    for module in workload_modules():
        for name, workload in module.WORKLOADS.items():
            if name in table:
                raise SystemExit(f"duplicate workload name {name!r}")
            table[name] = (module, workload)
    return table


def measure(names: list[str], repeats: int) -> dict:
    """Run the named workloads; returns a trajectory-entry payload."""
    table = all_workloads()
    workloads = {}
    for name in names:
        if name not in table:
            raise SystemExit(
                f"unknown workload {name!r}; available: {sorted(table)}"
            )
        module, workload = table[name]
        t0 = time.perf_counter()
        workloads[name] = module.run_workload(workload, repeats=repeats)
        print(
            f"  {name}: {time.perf_counter() - t0:.1f}s wall "
            f"({repeats} repeats x {len(workload.engines)} engines)",
            file=sys.stderr,
        )
    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "workloads": workloads,
    }


def render(entry: dict) -> str:
    lines = []
    for workload, engines in entry["workloads"].items():
        for engine, record in engines.items():
            peak = record.get("peak_history")
            peak_text = f"  peak_history={peak}" if peak is not None else ""
            lines.append(
                f"{workload:18s} {engine:10s} "
                f"{record['events_per_sec']:>12,.0f} ev/s "
                f"({record['events']} events in "
                f"{record['elapsed_sec']:.3f}s){peak_text}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="hot-path benchmark runner / regression gate"
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="subset to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list workloads and exit"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on regression vs the newest BENCH_<n>.json",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the measurements as the next BENCH_<n>.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed events/sec loss fraction (default 0.20)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per engine, best-of (default 3)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also dump the measurement JSON to this path",
    )
    args = parser.parse_args(argv)

    table = all_workloads()

    if args.list:
        for name, (_, workload) in sorted(table.items()):
            print(
                f"{name:18s} {workload.circuit}@{workload.scale} "
                f"k={workload.k} engines={','.join(workload.engines)}"
            )
        return 0

    names = args.workloads or sorted(table)
    entry = measure(names, args.repeats)
    print(render(entry))

    if args.output is not None:
        args.output.write_text(json.dumps(entry, indent=2) + "\n")

    status = 0
    if args.check:
        entries = trajectory()
        if not entries:
            print("check: no BENCH_<n>.json baseline yet — passing")
        else:
            n, baseline_path = entries[-1]
            baseline = json.loads(baseline_path.read_text())
            failures = compare_runs(baseline, entry, args.threshold)
            if failures:
                print(f"REGRESSION vs {baseline_path.name}:")
                for failure in failures:
                    print(f"  {failure}")
                status = 1
            else:
                print(f"check: no regression vs {baseline_path.name}")

    if args.record and status == 0:
        path = next_bench_path()
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        print(f"recorded {path.name}")

    return status


if __name__ == "__main__":
    raise SystemExit(main())
