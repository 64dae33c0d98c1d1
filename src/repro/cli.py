"""Command-line interface: ``repro-sim`` / ``python -m repro``.

Subcommands::

    repro-sim table1                  # Table 1 at the current scale
    repro-sim table2                  # Table 2 (all circuits)
    repro-sim fig4|fig5|fig6          # the s9234 figures
    repro-sim report [--output f.md]  # all artifacts + claim verdicts;
                                      # exit 1 if a claim that applies fails
    repro-sim ablations               # A1-A5
    repro-sim run --circuit s9234 --algorithm Multilevel --nodes 8
    repro-sim partition --circuit s9234 --k 8    # static quality only
    repro-sim serve --port 8472       # async job server (README: Serving)

Scale/cycle environment overrides (REPRO_FULL, REPRO_SCALE,
REPRO_CYCLES) apply to every subcommand.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from repro.errors import ConfigError
from repro.harness.config import ALGORITHMS, ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.warped.parallel.transport import TRANSPORT_NAMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags every run subcommand takes.  Each one that configures a
    run stores into its :class:`ExperimentConfig` field (``dest``) and
    is ``None`` when absent, so :func:`_runner` copies them by name."""
    parser.add_argument("--scale", type=float, default=None,
                        help="circuit scale (default: env or 0.12)")
    parser.add_argument("--cycles", type=int, default=None,
                        dest="num_cycles", metavar="N",
                        help="stimulus cycles (default: env or 60)")
    parser.add_argument("--backend", default=None,
                        choices=["virtual", "process"],
                        help="Time Warp substrate: modelled virtual machine "
                        "or real OS processes (default: virtual)")
    parser.add_argument("--transport", default=None,
                        choices=TRANSPORT_NAMES,
                        help="process backend wire transport: one pipe per "
                        "node carrying pickled batches, or shared-memory "
                        "rings of fixed-width records (default: env or "
                        "queue)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        dest="trace_path",
                        help="record a JSONL trace of every Time Warp run "
                        "(rollbacks, GVT rounds, queue depths); summarize "
                        "with tools/trace_report.py")
    parser.add_argument("--analyze", action="store_true",
                        help="after the run(s), print the trace forensics "
                        "report (rollback cascades, committed timelines, "
                        "wall-time attribution); requires --trace")
    parser.add_argument("--live-status", default=None, metavar="PATH",
                        dest="status_path",
                        help="process backend: write per-node live-status "
                        "snapshots to PATH.node<i> every GVT round (watch "
                        "with tools/tw_top.py)")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        dest="checkpoint_interval", metavar="VT",
                        help="periodic consistent checkpoints every VT "
                        "virtual time units (process backend: crash-recovery "
                        "epochs; virtual backend: periodic state saving)")
    parser.add_argument("--max-restarts", type=int, default=None,
                        dest="max_restarts", metavar="N",
                        help="process backend: survive up to N crashes per "
                        "node by restarting from the last checkpoint epoch "
                        "(requires --checkpoint-interval)")
    parser.add_argument("--migration-threshold", type=float, default=None,
                        dest="migration_threshold", metavar="R",
                        help="adaptive LP migration: at each GVT epoch move "
                        "loosely-attached hot LPs to the idlest node when "
                        "the busiest node's busy window exceeds R times the "
                        "idlest's (R > 1; both backends)")
    parser.add_argument("--migration-fraction", type=float, default=None,
                        dest="migration_fraction", metavar="F",
                        help="max fraction of the busiest node's LPs moved "
                        "per migration epoch (default 0.05)")


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(ExperimentConfig)
        if getattr(args, field.name, None) is not None
    }
    config = ExperimentConfig.from_env(**overrides)
    if (
        getattr(args, "circuit", None) == "s27"
        and "scale" not in overrides
        and config.scale != 1.0
    ):
        # The s27 netlist ships at full size only; unless the user pinned
        # a scale explicitly, lift the scaled-by-default policy for it.
        config = replace(config, scale=1.0)
    return ExperimentRunner(config)


def _serve(args: argparse.Namespace) -> int:
    """Run the job server until interrupted."""
    import asyncio
    import shutil
    import tempfile

    from repro.serve.app import run_server
    from repro.serve.jobs import JobManager

    status_dir = args.status_dir or tempfile.mkdtemp(prefix="repro-serve-")
    manager = JobManager(
        transport=args.transport,
        max_concurrency=args.max_jobs,
        status_dir=status_dir,
    )
    try:
        asyncio.run(run_server(manager, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    finally:
        manager.close()
        if args.status_dir is None:  # the server made it: remove it
            shutil.rmtree(status_dir, ignore_errors=True)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Multilevel partitioning for parallel logic simulation "
        "(IPPS 2000 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "table2", "fig4", "fig5", "fig6", "ablations"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_common(p)

    report_p = sub.add_parser(
        "report",
        help="full reproduction report (markdown); exits 1 when a claim "
        "that applies at this scale fails",
    )
    _add_common(report_p)
    report_p.add_argument("--output", default=None,
                          help="write to file instead of stdout")

    run_p = sub.add_parser("run", help="one parallel simulation")
    _add_common(run_p)
    run_p.add_argument("--circuit", default="s9234",
                       choices=["s27", "s5378", "s9234", "s15850"])
    run_p.add_argument("--algorithm", default="Multilevel", choices=ALGORITHMS)
    run_p.add_argument("--nodes", type=int, default=8)
    run_p.add_argument("--kernel", default="timewarp",
                       choices=["timewarp", "conservative"],
                       help="synchronization protocol")

    part_p = sub.add_parser("partition", help="static partition quality")
    _add_common(part_p)
    part_p.add_argument("--circuit", default="s9234",
                        choices=["s27", "s5378", "s9234", "s15850"])
    part_p.add_argument("--k", type=int, default=8)
    part_p.add_argument("--all", action="store_true",
                        help="include the related-work strategies")

    serve_p = sub.add_parser(
        "serve",
        help="simulation-as-a-service: async HTTP job server with warm "
        "worker pools and partition/result caching",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8472,
                         help="listen port (0 picks an ephemeral port)")
    serve_p.add_argument("--transport", default=None,
                         choices=TRANSPORT_NAMES,
                         help="wire transport of the worker rings "
                         "(default: env or queue)")
    serve_p.add_argument("--max-jobs", type=int, default=2,
                         dest="max_jobs", metavar="N",
                         help="jobs executing concurrently (default 2)")
    serve_p.add_argument("--status-dir", default=None, dest="status_dir",
                         help="directory for per-job live-status "
                         "snapshots (default: a temp dir; SSE streams "
                         "read these)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse *argv* (default: sys.argv) and run one subcommand."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    runner = _runner(args)
    if getattr(args, "analyze", False) and runner.config.trace_path is None:
        parser.error("--analyze requires --trace (there is no trace to read)")
    status = 0

    if args.command == "table1":
        from repro.harness.table1 import generate_table1

        print(generate_table1(runner))
    elif args.command == "table2":
        from repro.harness.table2 import generate_table2

        print(generate_table2(runner))
    elif args.command in ("fig4", "fig5", "fig6"):
        from repro.harness import figures

        print(getattr(figures, f"generate_{args.command}")(runner))
    elif args.command == "ablations":
        from repro.harness import ablations

        print(ablations.ablation_quality(runner))
        print()
        print(ablations.ablation_coarsen_threshold(runner))
        print()
        print(ablations.ablation_refiner(runner))
        print()
        print(ablations.ablation_scaling())
        print()
        print(ablations.ablation_window(runner))
    elif args.command == "report":
        from repro.harness.claims import evaluate
        from repro.harness.report import generate_report

        report = generate_report(runner)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"wrote {args.output}")
        else:
            print(report)
        # The runs are cached: grading again costs no simulation.
        failed = [v.claim.id for v in evaluate(runner) if v.holds is False]
        if failed:
            print(f"claims that fail: {', '.join(failed)}", file=sys.stderr)
            status = 1
    elif args.command == "run":
        seq = runner.sequential(args.circuit)
        try:
            result = runner.run(
                args.circuit, args.algorithm, args.nodes, kernel=args.kernel
            )
        except ConfigError as exc:
            parser.error(str(exc))
        print(f"sequential: {seq.execution_time:.2f}s "
              f"({seq.events_processed} events)")
        print(result.summary())
        if getattr(result, "backend", "virtual") == "process":
            # Real OS processes measure real time; the sequential
            # baseline is still the modelled clock, so a ratio would
            # compare incommensurable units.
            print(f"process backend: measured wall-clock over "
                  f"{result.num_nodes} OS processes")
        else:
            speedup = seq.execution_time / result.execution_time
            print(f"speedup over sequential: {speedup:.2f}x")
    elif args.command == "partition":
        from repro.partition.metrics import partition_quality

        names = ALGORITHMS
        if args.all:
            from repro.partition.registry import all_partitioners

            names = tuple(all_partitioners())
        for algorithm in names:
            assignment = runner.partition(args.circuit, algorithm, args.k)
            q = partition_quality(assignment)
            print(
                f"{algorithm:14s} cut={q.edge_cut:6d} "
                f"frac={q.cut_fraction:.3f} imb={q.load_imbalance:.3f} "
                f"conc={q.concurrency:.3f}"
            )
    if runner.trace_files:
        noun = "file" if len(runner.trace_files) == 1 else "files"
        print(f"trace {noun}: {', '.join(runner.trace_files)}")
    if getattr(args, "analyze", False) and runner.trace_files:
        from repro.obs import analyze_trace, render_analysis
        from repro.obs.tracer import read_trace

        # The run subcommand knows which circuit/partition produced the
        # trace, unlocking the critical-path estimate; sweep commands
        # interleave many configurations, so they get trace-only
        # forensics.
        circuit = assignment = cost_model = None
        if args.command == "run" and args.kernel == "timewarp":
            circuit = runner.circuit(args.circuit)
            assignment = runner.partition(
                args.circuit, args.algorithm, args.nodes
            )
            if runner.config.backend == "virtual":
                cost_model = runner.machine(args.nodes).cost_model
        for path in runner.trace_files:
            print()
            print(render_analysis(
                analyze_trace(
                    read_trace(path), circuit=circuit,
                    assignment=assignment, cost_model=cost_model,
                ),
                title=path,
            ))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
