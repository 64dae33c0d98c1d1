#!/usr/bin/env python3
"""End-to-end benchmark of the repository: one command, every metric.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --trace-out spans.json
    python3 benchmarks/e2e/run.py --agree              # two sets must agree
    python3 benchmarks/e2e/run.py --smoke              # seconds, not minutes

Each workload runs in a fresh child interpreter (``child.py``) with every
``REPRO_*`` variable scrubbed.  Without ``--trace`` a workload is run
twice: untraced for the end-to-end metrics, then traced for the per-layer
ones.  With ``--workload`` and ``--trace`` (how the driver calls it) there
is one run, and the last line of standard output is the contract's JSON
object.  The exit code is non-zero when any committed result disagreed
with the sequential oracle.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

from common import (
    EXACT,
    HERE,
    ROOT,
    SRC,
    contract,
    end_to_end,
    per_layer,
    workload_names,
)

DEFAULT_SEED = 2000
#: The driver allows a run 180 s; the child is stopped before that.
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 2
NOISY_SPIN_SPREAD = 0.10


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not: the program was wrong)."""


def run_child(
    workload: str, *, seed: int, seconds: float, trace: int, smoke: bool, workdir: str
) -> dict:
    """Run one workload in its own interpreter and return its result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        TMPDIR=workdir,  # nothing is written outside the checkout
    )
    out = os.path.join(workdir, f"{workload}.{trace}.json")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", workdir, "--out", out,
    ]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(
        command, env=env, cwd=str(ROOT), stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child stops what it starts; this sweeps its session in case
        # it was killed half-way (the server and ring workers live there).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code is None:
        raise BenchmarkError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise BenchmarkError(f"{workload}: child exited with code {code}")
    with open(out) as fh:
        return json.load(fh)


def contract_line(result: dict, trace: int) -> str:
    """The one JSON object the driver reads from the last line."""
    spec, values = (
        (per_layer(), result["per_layer"]) if trace else (end_to_end(), result["end_to_end"])
    )
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": values[name], "unit": spec[name]["unit"]}
                for name in spec
            },
        }
    )


def render(name: str, result: dict, *, layers: bool) -> str:
    """Every metric of one workload by name, value and unit."""
    lines = [
        f"== {name}  seed {result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  "
        f"{result['wall_s']:.1f} s  attempted {result['attempted']}  "
        f"failed {result['failed']}  correct {result['correct']}"
    ]
    for metric, spec in end_to_end().items():
        line = f"  {metric:36s} {result['end_to_end'][metric]:>14.6g} {spec['unit']}"
        stats = result["detail"].get(
            {"speedup_vs_sequential": "speedup"}.get(metric, metric)
        )
        if isinstance(stats, dict) and "q1" in stats:
            line += f"   [q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}  n {stats['n']}]"
        lines.append(line)
    if layers:
        for metric, spec in per_layer().items():
            lines.append(
                f"  {metric:36s} {result['per_layer'][metric]:>14.6g} {spec['unit']}"
            )
    lines.extend(f"  note: {note}" for note in result["notes"])
    return "\n".join(lines)


def header(args, results: dict, started: float, load_start: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    passes = [p for by_trace in results.values() for p in by_trace.values()]
    first = {name: by_trace[min(by_trace)] for name, by_trace in results.items()}
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": {
            name: p["detail"].get("repeats", p["detail"].get("jobs"))
            for name, p in first.items()
        },
        "workload_wall_s": {
            name: sum(p["wall_s"] for p in by_trace.values())
            for name, by_trace in results.items()
        },
        "wall_s": time.time() - started,
        "noisy_host": any(
            p["per_layer"]["host.spin_spread"] > NOISY_SPIN_SPREAD for p in passes
        ),
    }


def run_set(args, workloads, traces, workdir) -> dict:
    """{workload: {trace: result}}, workloads run serially."""
    results: dict[str, dict[int, dict]] = {}
    for name in workloads:
        for trace in traces:
            result = run_child(
                name, seed=args.seed, seconds=args.seconds, trace=trace,
                smoke=args.smoke, workdir=workdir,
            )
            results.setdefault(name, {})[trace] = result
            print(render(name, result, layers=bool(trace)), flush=True)
    return results


def disagreements(first: dict, second: dict) -> list[str]:
    """Where two sets of runs of one commit differ by more than the
    benchmark's own bounds (exactly, for simulated-time numbers)."""
    problems = []
    for name in first:
        a = first[name][min(first[name])]["end_to_end"]
        b = second[name][min(second[name])]["end_to_end"]
        for metric, spec in end_to_end().items():
            if metric == "modelled_speedup":
                if a[metric] != b[metric]:
                    problems.append(f"{name} {metric}: {a[metric]!r} != {b[metric]!r}")
            elif abs(a[metric] - b[metric]) > spec["bound"] * abs(a[metric]):
                problems.append(
                    f"{name} {metric}: {a[metric]:.6g} vs {b[metric]:.6g} "
                    f"(bound {spec['bound']:.0%})"
                )
        if 1 in first[name]:
            a, b = first[name][1]["per_layer"], second[name][1]["per_layer"]
            problems.extend(
                f"{name} {metric}: {a[metric]!r} != {b[metric]!r}"
                for metric in sorted(EXACT)
                if a[metric] != b[metric]
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--trace-out", metavar="FILE")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS

    started, load_start = time.time(), os.getloadavg()[0]
    workloads = (args.workload,) if args.workload else workload_names()
    if args.trace is not None:
        traces = (args.trace,)
    else:
        # The smoke run is one traced pass: it checks that everything
        # runs and is right, not how fast it is.
        traces = (1,) if args.smoke else (0, 1)
    workdir = str(HERE / ".work" / str(os.getpid()))
    os.makedirs(workdir)
    try:
        results = run_set(args, workloads, traces, workdir)
        problems = []
        if args.agree:
            problems = disagreements(results, run_set(args, workloads, traces, workdir))
            for problem in problems:
                print(f"DISAGREE {problem}")
            print(f"agree: {'no' if problems else 'yes'}")
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is using it
            pass

    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(
                {
                    name: by_trace[1]["spans"]
                    for name, by_trace in results.items()
                    if 1 in by_trace
                },
                fh,
            )
    correct = all(p["correct"] for by_trace in results.values() for p in by_trace.values())
    if args.workload and args.trace is not None:
        print(contract_line(results[args.workload][args.trace], args.trace))
    else:
        for by_trace in results.values():
            for result in by_trace.values():
                del result["spans"]
        print(
            json.dumps(
                {
                    "header": header(args, results, started, load_start),
                    "workloads": {
                        name: {str(trace): r for trace, r in by_trace.items()}
                        for name, by_trace in results.items()
                    },
                }
            )
        )
    return 0 if correct and not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
