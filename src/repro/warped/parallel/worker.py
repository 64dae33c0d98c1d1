"""What a forked node process runs.

A :class:`~repro.warped.parallel.ring.WorkerRing` forks its workers
into :func:`worker_main`, which runs job after job until :data:`STOP`.
A job message carries a :class:`JobSpec` (the job) and a
:class:`NodeAttempt` (how this node starts it); :func:`_run_node`, the
per-job body, runs a :class:`~repro.warped.parallel.loop.NodeLoop` to
quiescence and reports the DONE payload on the control channel.

Fault injection for tests: ``REPRO_TW_FAULT`` is a comma-separated
list of ``node:mode[:arg]`` clauses applied inside the matching worker
— ``raise`` (throw at startup, exercising the ERROR wire path),
``exit`` (``os._exit(arg)``, silent death), ``hang`` (sleep *arg*
seconds), ``flood`` (stuff ~4k messages into node *arg*'s inbox via
``put_nowait`` — dropping, never blocking, once the inbox is full —
and exit without reporting),
``exit-at`` (``os._exit`` after *arg* locally processed events — the
mid-run crash the recovery tests inject), and ``late-report`` (sleep
*arg* seconds between finishing and reporting — a slow report is not a
death).  Clauses fire on the first attempt only, so a respawned worker
runs clean; suffix the mode with ``*`` (e.g.
``1:exit-at*:200``) to re-arm it on every attempt, which is how the
restart-budget-exhaustion path is exercised.  Malformed clauses raise
:class:`~repro.errors.ConfigError` naming the offending clause.
"""

from __future__ import annotations

import gc
import os
import queue as queue_mod
import stat
import time
import traceback
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.obs.tracer import TraceWriter, shard_path
from repro.sim.stimulus import Stimulus
from repro.warped.parallel.loop import NodeLoop
from repro.warped.parallel.node import NodeEngine
from repro.warped.parallel.protocol import DONE, ERROR, GVT
from repro.warped.parallel.transport import drain_queue
from repro.warped.stats import NodeStats
from repro.warped.world import World

#: Sentinel telling a worker to exit its job loop.
STOP = None
#: How long a worker waits at the arming barrier for its peers.  A
#: peer can be late only if it is wedged or dead, and the parent's
#: collection loop notices a death within a fraction of a second and
#: terminates the ring — so this is a backstop, not a tuning knob.
_ARM_PATIENCE = 60.0


# ----------------------------------------------------------------------
# fault injection (test hook)
# ----------------------------------------------------------------------
#: Recognised REPRO_TW_FAULT modes (an unknown mode is a ConfigError —
#: a typo must fail loudly, not silently skip the injection).
_FAULT_MODES = frozenset(
    {"raise", "exit", "hang", "flood", "exit-at", "late-report"}
)


def node_faults(
    node: int, attempt: int = 0, spec: str | None = None
) -> list[tuple[str, str | None]]:
    """Parse fault clauses addressed to *node* from *spec*.

    Each clause is ``node:mode[:arg]``; a ``*`` suffix on the mode
    re-arms the fault on every restart attempt (by default a clause
    fires only on attempt 0, so a respawned worker runs clean).
    Malformed clauses — no mode, a non-integer node, an unknown mode —
    raise :class:`ConfigError` naming the clause.

    *spec* ``None`` falls back to ``REPRO_TW_FAULT`` — a convenience
    for the parent process and direct tests only.  Workers never read
    the environment: the resolved spec travels inside the
    :class:`JobSpec` the parent ships them, so two simulators running
    concurrently in one parent (a job server) cannot cross-contaminate
    through ambient process state.
    """
    if spec is None:
        spec = os.environ.get("REPRO_TW_FAULT", "")
    faults: list[tuple[str, str | None]] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or not parts[1]:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has no mode "
                "(expected node:mode[:arg])"
            )
        try:
            target = int(parts[0])
        except ValueError:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has a non-integer "
                "node (expected node:mode[:arg])"
            ) from None
        mode = parts[1]
        persistent = mode.endswith("*")
        if persistent:
            mode = mode[:-1]
        if mode not in _FAULT_MODES:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has unknown mode "
                f"{mode!r} (one of {sorted(_FAULT_MODES)})"
            )
        if target != node:
            continue
        if attempt > 0 and not persistent:
            continue  # faults are one-shot unless re-armed with '*'
        faults.append((mode, parts[2] if len(parts) > 2 else None))
    return faults


def _apply_startup_faults(
    node: int, inboxes, faults: list[tuple[str, str | None]]
) -> None:
    """Run *node*'s startup fault clauses (``exit`` and ``flood`` end
    the process here, ``flood`` with exit code 0 and no report)."""
    for mode, arg in faults:
        if mode == "raise":
            raise RuntimeError(f"injected fault in node {node}")
        if mode == "exit":
            os._exit(int(arg or 3))
        if mode == "hang":
            time.sleep(float(arg or 3600.0))
        if mode == "flood":
            dest = int(arg or 0)
            dropped = 0
            for _ in range(4096):
                try:
                    # Never block: an inbox nobody drains would
                    # otherwise deadlock the injector against its own
                    # flood.  Dropping is fine — the point is a full
                    # inbox, which the successful puts already achieve.
                    inboxes[dest].put_nowait((GVT, 0, 0))
                except queue_mod.Full:
                    dropped += 1
            if dropped:  # pragma: no cover - depends on inbox bound
                print(
                    f"flood injector: dropped {dropped} messages against "
                    f"a full inbox {dest}",
                    flush=True,
                )
            os._exit(0)


# ----------------------------------------------------------------------
# the job message
# ----------------------------------------------------------------------
@dataclass
class JobSpec:
    """Everything one node needs to execute one simulation job.

    The parent materializes every knob — including the fault-injection
    spec and the live-status run id — before dispatching, so workers
    never consult ambient process environment.  That is what lets two
    jobs run concurrently inside one parent (a job server) without
    cross-contaminating: each ring's workers see exactly the spec their
    job shipped, nothing shared.

    A spec carries no circuit.  It *names* a
    :class:`~repro.warped.world.World` the worker already holds (forked
    into a ring that its first job started, or shipped once and kept
    resident) and brings only what is the job's own: a
    :meth:`~repro.sim.stimulus.Stimulus.detached` stimulus and the
    machine knobs — about a kilobyte on the wire.
    """

    #: Key of the world in the worker's table (see :func:`_run_node`).
    world: str
    #: Detached: table, cycle count and period, no circuit reference.
    stimulus: Stimulus
    optimism_window: int | None
    gvt_interval: int
    max_events: int
    trace_base: str | None = None
    status_base: str | None = None
    #: Run id stamped into every live-status snapshot so a dashboard
    #: reading a reused ``--live-status`` base can tell this run's
    #: snapshots from a previous (possibly wider) run's leftovers.
    run_id: str = ""
    #: Resolved fault-injection clauses ("" = none).  Parsed from
    #: ``REPRO_TW_FAULT`` once, in the parent, at simulator
    #: construction — never re-read inside a worker.
    fault_spec: str = ""
    migration_threshold: float | None = None
    migration_fraction: float = 0.05


@dataclass(frozen=True)
class NodeAttempt:
    """What one node's job message carries beyond the job: which
    attempt of a supervised run this is and how that attempt starts.

    The default — a first attempt without checkpoints — is what every
    plain ring job runs.  A
    :class:`~repro.warped.parallel.backend.ProcessTimeWarpSimulator`
    run makes one per node for each ring it starts; on a restart the
    record carries the node's checkpoint of the restore epoch and the
    messages that were in flight to it across that cut.
    """

    #: Attempt number: gates one-shot faults and suffixes trace shards.
    number: int = 0
    #: Wall-clock origin of every trace record of the run, shared by its
    #: attempts so one merged trace orders them all.
    trace_epoch: float = 0.0
    #: Checkpoint every time the GVT crosses a multiple of this many
    #: virtual-time units, into *ckpt_dir* (None = checkpointing off).
    ckpt_interval: int | None = None
    ckpt_dir: str | None = None
    #: This node's checkpoint file of the restore epoch (None = start
    #: from the initial schedule).
    restore: dict | None = None
    #: Floor of the computation ids the resumed GVT ring starts from.
    cid_base: int = 0
    #: In-flight MSGs to this node across the restore cut, in channel
    #: order.
    replays: tuple = ()


def _close_inherited_sockets() -> None:
    """Close every socket fd this forked worker inherited.

    Ring workers are forked from whatever process owns the pool — in
    ``repro.serve`` that is a live HTTP server, so the fork snapshots
    the listening socket and any open client connections.  A worker
    never needs a socket (its plumbing is pipes and shared memory),
    but its inherited copies keep those connections half-open: the
    server can close its end and the client still sees no FIN while a
    long-lived pooled worker holds the fd.  Closing them at birth
    restores normal connection teardown.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # pragma: no cover - raced or invalid fd
            continue


def worker_main(
    node: int, inboxes, job_queue, barrier, results, worlds: dict[str, World]
) -> None:
    """Persistent worker: execute jobs until the STOP sentinel.

    *worlds* is the table the worker was forked with: the world of the
    job that started the ring, or nothing.  A job message is ``(spec,
    shipped, dropped, attempt)``: the parent's residency decisions ride
    with the job they precede — drop the worlds keyed *dropped*, install
    *shipped* (the job's world, or None when it is already here) under
    ``spec.world`` — and are applied before anything else, so the table
    here is always the parent's; *attempt* is this node's
    :class:`NodeAttempt`.  Every iteration then re-arms this node's
    transport channel (draining remnants a poisoned previous job might
    have left), waits at the arming barrier and runs the per-job body.
    Any failure reports ERROR and ends the worker — ring integrity is
    unknown after a mid-job error, so the whole ring dies with it.

    The arming *barrier* between drain and run is load-bearing: job
    specs arrive over per-node queues, so one node can receive the job
    and start simulating while a peer is still blocked waiting for its
    own copy.  The early starter's first remote messages would land in
    the late peer's inbox only to be thrown away by that peer's arming
    drain — messages the sender's GVT clerk counts as sent, so no GVT
    round could ever balance and the job would livelock.  No node may
    send until every node has drained and armed.
    """
    _close_inherited_sockets()
    try:
        while True:
            item = job_queue.get()
            if item is STOP:
                break
            spec, shipped, dropped, attempt = item
            for key in dropped:
                del worlds[key]
            if shipped is not None:
                worlds[spec.world] = shipped
            # Re-arm the transport: a healthy previous job quiesced with
            # empty channels (GVT == T_END proves it), but drain anyway
            # so one poisoned job can never leak messages into the next.
            drain_queue(inboxes[node])
            barrier.wait(timeout=_ARM_PATIENCE)
            _run_node(node, spec, worlds, inboxes, results, attempt)
    except BaseException:  # noqa: BLE001 - ship the diagnosis, then die
        results.put((ERROR, node, traceback.format_exc()))
        return
    # Clean shutdown: everything sent is already in its pipe, so skip
    # interpreter teardown of the fork-copied heap.
    os._exit(0)


def _run_node(
    node: int,
    spec: JobSpec,
    worlds: dict[str, World],
    inboxes,
    result_queue,
    attempt: NodeAttempt = NodeAttempt(),
) -> None:
    """Execute one job on this node: fire its startup faults, look its
    world up, build the engine, run to quiescence, report the DONE
    payload.

    *worlds* is the ring worker's resident table.  Which worlds are
    resident is the parent's decision alone, so a miss here is a
    protocol violation — reported, never papered over with a rebuild
    (the spec carries no circuit to rebuild from).  *attempt* says how
    this node starts: from the initial schedule, or from its checkpoint
    of a restore epoch and the messages in flight across that cut.
    """
    faults = node_faults(node, attempt.number, spec.fault_spec)
    _apply_startup_faults(node, inboxes, faults)
    start = time.perf_counter()
    world = worlds.get(spec.world)
    if world is None:
        raise SimulationError(
            f"node {node} was sent a job on world {spec.world!r} but does "
            f"not hold it (resident: {sorted(worlds)})"
        )
    tracer = None
    if spec.trace_base is not None:
        tracer = TraceWriter(
            shard_path(spec.trace_base, node, attempt.number),
            node=node, epoch=attempt.trace_epoch, attempt=attempt.number,
        )
    try:
        engine = NodeEngine(
            world, node, spec.stimulus.attach(world.circuit),
            optimism_window=spec.optimism_window, max_events=spec.max_events,
            tracer=tracer,
            migration_enabled=spec.migration_threshold is not None,
        )
        loop = NodeLoop(
            node, world.k, engine, inboxes,
            gvt_interval=spec.gvt_interval, tracer=tracer,
            status_path=spec.status_base,
            run_id=spec.run_id,
            ckpt_interval=attempt.ckpt_interval,
            ckpt_dir=attempt.ckpt_dir,
            attempt=attempt.number,
            control=result_queue,
            migration_threshold=spec.migration_threshold,
            migration_fraction=spec.migration_fraction,
        )
        for mode, arg in faults:
            if mode == "exit-at":
                loop.exit_at = int(arg or 500)
        if attempt.restore is not None:
            # Restart: adopt the restore epoch instead of the initial
            # schedule (schedule_initial would double-inject stimulus
            # the restored queues already carry).
            payload = attempt.restore
            engine.restore_state(payload["engine"])
            loop.restore_loop(payload["loop"], cid_base=attempt.cid_base)
            # Re-publish the restore epoch under this attempt: the
            # state just restored IS that epoch, so the write is an
            # idempotent overwrite of the same cid — and it puts a
            # ckpt record (and its restore cost) in this attempt's own
            # trace shard, which the newest-attempt-only shard merge
            # would otherwise lose whenever no new checkpoint interval
            # is crossed between the restore point and quiescence.
            loop.write_checkpoint(payload["cid"], payload["gvt"])
            # The messages in flight across the cut, in channel order,
            # as the MSGs the wire would have delivered.  Handled here,
            # after the arming barrier: whatever they make this node
            # send cannot fall to a peer's arming drain.
            for item in attempt.replays:
                loop.handle(item)
        else:
            engine.schedule_initial()
            if loop.recovery:
                # Epoch 0: a complete restore point exists before any
                # event is processed, so a crash at *any* moment —
                # including before the first GVT-crossing checkpoint —
                # leaves something to restart from.
                loop.write_checkpoint(0, 0)
        # The loop allocates heavily (messages, history records, key
        # tuples) but never creates reference cycles: everything dies
        # by refcount.  Generational GC passes over the live history are
        # pure overhead, so — the kernel's argument verbatim — they are
        # suspended for the run and restored on every exit path (a ring
        # worker gets its collector back between jobs).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        setup = time.perf_counter() - start
        try:
            loop.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        engine.check_quiescent()
        engine.flush_committed()
        wall = time.perf_counter() - start
        counters = engine.counters
        stats = NodeStats(
            node=node,
            num_lps=len(engine.lps),
            events_processed=counters["events"],
            events_rolled_back=counters["rolled_back"],
            rollbacks=counters["rollbacks"],
            messages_sent_remote=counters["app_messages"],
            messages_sent_local=counters["local_messages"],
            anti_messages_sent=counters["anti_messages"],
            wall_time=wall,
            busy_time=loop.busy,
        )
        if tracer is not None:
            # Measured attribution: compute is the event-processing
            # batch clock (local rollbacks and the batch's wire flush
            # included), transport the timed wire handler (ingest +
            # remote-triggered rollbacks) less the GVT applications
            # inside it, gvt those applications (fossil sweep, clerk
            # compaction, checkpoint trigger), park the blocking
            # receives, setup everything before the loop (engine build,
            # initial schedule or restore), idle the remainder (polling
            # laps, token folds).
            tracer.emit(
                "node_summary",
                busy=loop.busy,
                wall=wall,
                events=stats.events_processed,
                rollbacks=stats.rollbacks,
                rolled_back=stats.events_rolled_back,
                antis=stats.anti_messages_sent,
                sent_remote=stats.messages_sent_remote,
                sent_local=stats.messages_sent_local,
                gvt_rounds=loop.gvt_rounds_seen,
                num_lps=stats.num_lps,
                parks=loop.parks,
                slices=loop.slices,
                sweeps=loop.sweeps,
                setup=setup,
                attr={
                    "compute": loop.busy,
                    "transport": loop.recv_busy,
                    "gvt": loop.gvt_busy,
                    "park": loop.park,
                    "setup": setup,
                    "idle": max(
                        0.0,
                        wall - loop.busy - loop.recv_busy - loop.gvt_busy
                        - loop.park - setup,
                    ),
                },
            )
    finally:
        if tracer is not None:
            tracer.close()
    for mode, arg in faults:
        if mode == "late-report":
            # A sibling can report long before this node's payload
            # appears; the parent must wait, not call the node lost.
            time.sleep(float(arg or 1.5))
    result_queue.put(
        (
            DONE,
            node,
            {
                "stats": stats,
                "counters": engine.counters,
                "final_values": engine.final_values(),
                "captures": dict(engine.capture_log),
                "peak_history": engine.peak_history,
                "gvt_rounds": loop.gvt_computations,
            },
        )
    )
