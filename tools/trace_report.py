#!/usr/bin/env python3
"""Print the analysis of a JSONL simulation trace (see ``repro.obs``):

    python tools/trace_report.py artifacts/s27.trace.jsonl
    python tools/trace_report.py --compare old.jsonl new.jsonl

Works on a merged trace or on a single worker shard; see DESIGN.md §7
for the record schema.  The report is ``render_analysis`` of
``analyze_trace``, the same one ``run --analyze`` prints.  ``--compare``
diffs two runs' analyses and exits nonzero when the second run grew by
more than 20% in rollbacks, rollback depth p90, GVT latency p90 or GVT
rounds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro.obs import analyze_trace, read_trace, render_analysis
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import analyze_trace, read_trace, render_analysis

#: Relative growth beyond which --compare flags a metric as regressed.
REGRESSION_THRESHOLD = 0.20

#: Metrics --compare watches: label -> analysis extractor.
_COMPARE_METRICS = (
    ("rollbacks", lambda a: float(a["cascade"]["rollbacks"])),
    ("rolled-back depth p90", lambda a: a["cascade"]["depth"]["p90"]),
    ("gvt latency p90 (s)", lambda a: a["gvt"]["latency"]["p90"]),
    ("gvt rounds", lambda a: float(a["gvt"]["rounds"])),
)


def compare_traces(path_a: str, path_b: str) -> tuple[str, bool]:
    """Diff two runs' analyses; returns (report, any_regression).

    A metric regresses when run B exceeds run A by more than
    ``REGRESSION_THRESHOLD`` (missing samples on either side are
    reported but never flagged — absence is not a regression).
    """
    a = analyze_trace(read_trace(path_a))
    b = analyze_trace(read_trace(path_b))
    lines = [
        f"compare: A={path_a}  B={path_b}",
        f"{'metric':<24s} {'A':>12s} {'B':>12s} {'delta':>9s}",
    ]
    regressed = False
    for label, extract in _COMPARE_METRICS:
        va, vb = extract(a), extract(b)
        if va is None or vb is None:
            lines.append(f"{label:<24s} {'-':>12s} {'-':>12s} {'n/a':>9s}")
            continue
        if va > 0:
            delta = (vb - va) / va
            delta_s = f"{delta:+8.1%}"
        else:
            delta = float("inf") if vb > 0 else 0.0
            delta_s = "   +inf%" if vb > 0 else "   +0.0%"
        flag = ""
        if delta > REGRESSION_THRESHOLD:
            regressed = True
            flag = "  << REGRESSION"
        lines.append(f"{label:<24s} {va:>12.4g} {vb:>12.4g} {delta_s:>9s}{flag}")
    lines.append(
        "verdict: REGRESSED (>{:.0%} growth)".format(REGRESSION_THRESHOLD)
        if regressed
        else "verdict: OK (within {:.0%})".format(REGRESSION_THRESHOLD)
    )
    return "\n".join(lines), regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="+", help="JSONL trace file(s)")
    parser.add_argument("--compare", action="store_true",
                        help="diff exactly two traces (A then B); exit 1 "
                        "when B regressed >20%% on rollbacks/GVT latency")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.trace) != 2:
            parser.error("--compare takes exactly two trace files: A B")
        report, regressed = compare_traces(args.trace[0], args.trace[1])
        print(report)
        return 1 if regressed else 0
    for path in args.trace:
        print(render_analysis(analyze_trace(read_trace(path)), title=path))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `trace_report.py t.jsonl | head`
        sys.exit(0)
