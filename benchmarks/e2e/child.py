"""One workload, in an interpreter of its own.

``run.py`` starts this file once per workload run, with every
``REPRO_*`` variable scrubbed from the environment, so that no run
inherits imports, caches, heap shape or knobs from another.  The result
— metrics, counts, notes and (in a traced run) the spans — is written as
one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, per_layer, workload_names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from engines import ENGINE_WORKLOADS, run_engine_workload
    from servemix import run_serve_workload

    run = (
        run_engine_workload
        if args.workload in ENGINE_WORKLOADS
        else run_serve_workload
    )
    result = run(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=args.workdir,
    )
    # The contract wants every per-layer metric from every workload: a
    # layer that does no work on this one reports 0.  A name the contract
    # does not know is a bug here, not a metric.
    known = per_layer()
    unknown = sorted(set(result["per_layer"]) - set(known))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    result["per_layer"] = {
        name: float(result["per_layer"].get(name, 0.0)) for name in known
    }
    result.update(workload=args.workload, seed=args.seed, trace=args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
