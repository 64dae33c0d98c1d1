"""Trace forensics: cascades, critical path, wall-time attribution.

``repro.obs.tracer`` records what happened; this module is the one
reader that answers *why* a run was slow.  Over one merged JSONL trace
(or a single worker shard):

- **trace digests** (:func:`trace_digests`) — record-kind counts, GVT
  rounds with their latency and ring-trip distributions, and the inbox
  depth sampled at each GVT application;
- **rollback forensics** (:func:`cascade_summary`) — the cascade
  forest of :mod:`repro.obs.causality` reduced to actionable numbers:
  per-rollback depth, per-node rollback counts, cascade
  depth/width/wasted-event distributions, the straggler sources and
  victim LPs burning the most committed work, and the partition cut
  edges that carried the triggering messages;
- **committed timelines** (:func:`commit_timelines`) — per-LP
  committed-event counts and virtual-time spans from ``commit``
  records;
- **critical path** (:func:`critical_path`) — a reduced estimate of
  the longest chain of causally-dependent committed events, weighted
  by each LP's committed work, with its partition crossings counted
  (needs the circuit; partition optional);
- **attribution** (:func:`wall_time_attribution`) — per-node wall
  clock split into compute / rollback waste / GVT / transport / park /
  setup / idle, beside each node's events, rollbacks and busy time,
  from the enriched ``node_summary`` records.

:func:`analyze_trace` bundles them and :func:`render_analysis` prints
the bundle (``run --analyze``, ``tools/trace_report.py`` and
``tools/partition_report.py --forensics`` all print it);
:func:`scorecard_row` / :func:`render_scorecard` join a run's analysis with the static
partition quality into the per-partitioner scorecard
``tools/partition_report.py`` emits (directly comparable to the
paper's Tables 2-4).
"""

from __future__ import annotations

from repro.obs.causality import Cascade, build_cascades
from repro.obs.metrics import summarize

#: Attribution categories in render order.
ATTR_KEYS = (
    "compute", "rollback", "gvt", "send", "recv",
    "transport", "migration", "park", "setup", "idle",
)


# ----------------------------------------------------------------------
# trace digests
# ----------------------------------------------------------------------
def trace_digests(records: list[dict]) -> dict:
    """Record-kind counts plus the GVT-round and inbox-depth digests."""
    kinds: dict[str, int] = {}
    latencies: list[float] = []
    trips: list[float] = []
    inbox: list[float] = []
    for record in records:
        kind = record.get("kind")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "gvt_round":
            if record.get("latency") is not None:
                latencies.append(float(record["latency"]))
            if record.get("trips") is not None:
                trips.append(float(record["trips"]))
        elif kind == "inbox_depth" and record.get("depth") is not None:
            inbox.append(float(record["depth"]))
    return {
        "records": len(records),
        "kinds": kinds,
        "gvt": {
            "rounds": kinds.get("gvt_round", 0),
            "latency": summarize(latencies),
            "trips": summarize(trips),
        },
        "inbox_depth": summarize(inbox),
    }


# ----------------------------------------------------------------------
# rollback forensics
# ----------------------------------------------------------------------
def cascade_summary(cascades: list[Cascade], *, top: int = 5) -> dict:
    """Aggregate a cascade forest into distributions and top offenders."""
    by_root_src: dict[int, int] = {}
    by_victim: dict[int, dict] = {}
    by_node: dict[int, int] = {}
    depths: list[float] = []
    cut_edges: dict[tuple[int, int], int] = {}
    remote_rollbacks = 0
    for cascade in cascades:
        src = cascade.root.cause_src
        if src is not None:
            by_root_src[int(src)] = by_root_src.get(int(src), 0) + cascade.wasted
        for member in cascade.members:
            bucket = by_victim.setdefault(
                member.lp, {"rollbacks": 0, "wasted": 0}
            )
            bucket["rollbacks"] += 1
            bucket["wasted"] += member.depth
            by_node[member.node] = by_node.get(member.node, 0) + 1
            depths.append(float(member.depth))
            if member.remote_cause:
                remote_rollbacks += 1
        for edge, count in cascade.boundary_edges().items():
            cut_edges[edge] = cut_edges.get(edge, 0) + count
    rollbacks = sum(c.width for c in cascades)
    return {
        "cascades": len(cascades),
        "rollbacks": rollbacks,
        "wasted_total": sum(c.wasted for c in cascades),
        "remote_rollbacks": remote_rollbacks,
        "node_rollbacks": by_node,
        "depth": summarize(depths),
        "chain_depth": summarize([float(c.chain_depth) for c in cascades]),
        "width": summarize([float(c.width) for c in cascades]),
        "wasted": summarize([float(c.wasted) for c in cascades]),
        "top_straggler_sources": sorted(
            by_root_src.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top],
        "top_victims": sorted(
            by_victim.items(), key=lambda kv: (-kv[1]["wasted"], kv[0])
        )[:top],
        "top_cut_edges": sorted(
            cut_edges.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top],
    }


# ----------------------------------------------------------------------
# committed timelines & critical path
# ----------------------------------------------------------------------
def commit_timelines(records: list[dict]) -> dict[int, dict]:
    """Per-LP committed-event count and virtual-time span."""
    timelines: dict[int, dict] = {}
    for record in records:
        if record.get("kind") != "commit":
            continue
        lp = int(record["lp"])
        bucket = timelines.setdefault(
            lp, {"committed": 0, "t_lo": None, "t_hi": None,
                 "node": int(record.get("node", -1))}
        )
        bucket["committed"] += int(record.get("n", 0))
        t_lo = record.get("t_lo")
        if t_lo is not None and (bucket["t_lo"] is None or t_lo < bucket["t_lo"]):
            bucket["t_lo"] = t_lo
        t_hi = record.get("t_hi", t_lo)
        if t_hi is None:
            t_hi = t_lo
        if t_hi is not None and (bucket["t_hi"] is None or t_hi > bucket["t_hi"]):
            bucket["t_hi"] = t_hi
    return timelines


def critical_path(
    records: list[dict],
    circuit,
    *,
    assignment=None,
    cost_model=None,
) -> dict:
    """Reduced critical-path estimate over committed work.

    Longest path through the circuit's acyclic view (edges into DFFs
    cut, exactly :func:`repro.circuit.levelize.levelize`'s view), where
    each gate weighs its committed-event count — the longest chain of
    causally-dependent committed events the run cannot parallelize.
    With *assignment*, counts how often that chain crosses partitions;
    with *cost_model*, converts it to a lower-bound execution time
    (``events * event_cost + crossings * (send + recv overhead)``).
    """
    from repro.circuit.levelize import levelize, levels_to_buckets

    timelines = commit_timelines(records)
    weight = [0] * circuit.num_gates
    for lp, bucket in timelines.items():
        if 0 <= lp < circuit.num_gates:
            weight[lp] = bucket["committed"]
    best = list(weight)
    prev = [-1] * circuit.num_gates
    gates = circuit.gates
    for bucket in levels_to_buckets(levelize(circuit)):
        for v in bucket:
            gate = gates[v]
            if gate.gate_type.is_sequential or gate.gate_type.is_source:
                continue  # inbound edges are cut in the acyclic view
            for u in gate.fanin:
                if best[u] + weight[v] > best[v]:
                    best[v] = best[u] + weight[v]
                    prev[v] = u
    if not best:
        return {"events": 0, "path": [], "crossings": 0, "est_seconds": None}
    end = max(range(len(best)), key=best.__getitem__)
    path = []
    v = end
    while v != -1:
        path.append(v)
        v = prev[v]
    path.reverse()
    crossings = 0
    if assignment is not None:
        part = assignment.assignment
        crossings = sum(
            1 for u, v in zip(path, path[1:]) if part[u] != part[v]
        )
    est = None
    if cost_model is not None:
        est = best[end] * cost_model.event_cost + crossings * (
            cost_model.send_overhead + cost_model.recv_overhead
        )
    return {
        "events": best[end],
        "path": path,
        "crossings": crossings,
        "est_seconds": est,
    }


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def recovery_summary(records: list[dict]) -> dict:
    """Checkpoint/restart accounting from ``ckpt``/``restart`` records.

    Checkpoint totals come from the surviving (newest-attempt) shard
    records; each parent-emitted ``restart`` record contributes its
    replayed-message count and measured downtime, so the report can say
    how much wall clock crash recovery cost the run.
    """
    ckpts = 0
    ckpt_bytes = 0
    ckpt_secs = 0.0
    restarts = []
    for record in records:
        kind = record.get("kind")
        if kind == "ckpt":
            ckpts += 1
            ckpt_bytes += int(record.get("bytes", 0))
            ckpt_secs += float(record.get("secs", 0.0))
        elif kind == "restart":
            restarts.append(record)
    return {
        "checkpoints": ckpts,
        "checkpoint_bytes": ckpt_bytes,
        "checkpoint_seconds": ckpt_secs,
        "restarts": len(restarts),
        "replayed": sum(int(r.get("replayed", 0)) for r in restarts),
        "downtime": sum(float(r.get("downtime", 0.0)) for r in restarts),
        "restart_records": restarts,
    }


# ----------------------------------------------------------------------
# adaptive migration
# ----------------------------------------------------------------------
def migration_summary(records: list[dict]) -> dict:
    """Adaptive-repartitioning accounting from ``migr`` records.

    Each record is one migration event: the shedding node, the
    adopter, how many LPs moved, how many pending events travelled
    with them, and the GVT the decision was taken at.  The per-edge
    table (``src -> dst``) shows where load kept flowing — a single
    dominant edge means one statically overloaded node, a cycle means
    thrash.
    """
    migrations = 0
    lps_moved = 0
    pending_moved = 0
    edges: dict[tuple[int, int], int] = {}
    events = []
    for record in records:
        if record.get("kind") != "migr":
            continue
        migrations += 1
        lps = int(record.get("lps", 0))
        lps_moved += lps
        pending_moved += int(record.get("pending", 0))
        edge = (int(record.get("src", -1)), int(record.get("dst", -1)))
        edges[edge] = edges.get(edge, 0) + lps
        events.append(record)
    return {
        "migrations": migrations,
        "lps_moved": lps_moved,
        "pending_moved": pending_moved,
        "edges": edges,
        "events": events,
    }


# ----------------------------------------------------------------------
# wall-time attribution
# ----------------------------------------------------------------------
def wall_time_attribution(records: list[dict]) -> dict:
    """Per-node wall-clock split from enriched ``node_summary`` records."""
    nodes: dict[int, dict] = {}
    for record in records:
        if record.get("kind") != "node_summary":
            continue
        node = int(record.get("node", -1))
        attr = dict(record.get("attr") or {})
        nodes[node] = {
            "events": int(record.get("events", 0)),
            "rollbacks": int(record.get("rollbacks", 0)),
            "wall": float(record.get("wall", 0.0)),
            "busy": float(record.get("busy", 0.0)),
            "attr": attr,
        }
    totals: dict[str, float] = {}
    for bucket in nodes.values():
        for key, value in bucket["attr"].items():
            if value is not None:
                totals[key] = totals.get(key, 0.0) + float(value)
    return {"nodes": nodes, "totals": totals}


# ----------------------------------------------------------------------
# the bundle
# ----------------------------------------------------------------------
def analyze_trace(
    records: list[dict],
    *,
    circuit=None,
    assignment=None,
    cost_model=None,
    top: int = 5,
) -> dict:
    """Full forensics bundle over one merged trace.

    ``circuit``/``assignment``/``cost_model`` unlock the critical-path
    estimate and its partition crossings; without them the analysis is
    trace-only (cascades, timelines, attribution).
    """
    cascades = build_cascades(records)
    committed = commit_timelines(records)
    analysis = {
        **trace_digests(records),
        "cascade": cascade_summary(cascades, top=top),
        "cascades": cascades,
        "commits": {
            "lps": len(committed),
            "committed_total": sum(b["committed"] for b in committed.values()),
            "timelines": committed,
        },
        "attribution": wall_time_attribution(records),
        "recovery": recovery_summary(records),
        "migration": migration_summary(records),
        "critical_path": None,
    }
    if circuit is not None:
        analysis["critical_path"] = critical_path(
            records, circuit, assignment=assignment, cost_model=cost_model
        )
    return analysis


def _fmt_seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}s"


def _digest_line(label: str, digest: dict) -> str:
    if not digest["count"]:
        return f"  {label:<16s} (no samples)"
    return (
        f"  {label:<16s} n={digest['count']:<6d} min={digest['min']:.4g} "
        f"p50={digest['p50']:.4g} p90={digest['p90']:.4g} "
        f"max={digest['max']:.4g}"
    )


def render_analysis(analysis: dict, *, title: str = "trace") -> str:
    """Human-readable multi-section report of :func:`analyze_trace`."""
    cascade = analysis["cascade"]
    gvt = analysis["gvt"]
    lines = [
        f"forensics — {title}: {analysis['records']} records, "
        f"{cascade['rollbacks']} rollbacks, {gvt['rounds']} GVT rounds",
        "  record kinds: " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(analysis["kinds"].items())
        ),
        f"  rollbacks: {cascade['rollbacks']} in {cascade['cascades']} "
        f"cascades, {cascade['wasted_total']} events wasted "
        f"({cascade['remote_rollbacks']} rollbacks remote-caused)",
        _digest_line("rollback depth", cascade["depth"]),
        _digest_line("chain depth", cascade["chain_depth"]),
        _digest_line("cascade width", cascade["width"]),
        _digest_line("wasted/cascade", cascade["wasted"]),
        _digest_line("gvt latency (s)", gvt["latency"]),
        _digest_line("gvt ring trips", gvt["trips"]),
        _digest_line("inbox depth", analysis["inbox_depth"]),
    ]
    if cascade["top_straggler_sources"]:
        lines.append("  top straggler sources (gate: wasted events):")
        for gate, wasted in cascade["top_straggler_sources"]:
            lines.append(f"    gate {gate:<6d} {wasted}")
    if cascade["top_victims"]:
        lines.append("  top victim LPs (gate: rollbacks, wasted):")
        for gate, bucket in cascade["top_victims"]:
            lines.append(
                f"    gate {gate:<6d} {bucket['rollbacks']} rb, "
                f"{bucket['wasted']} ev"
            )
    if cascade["top_cut_edges"]:
        lines.append("  hottest cut edges (src->victim: rollbacks):")
        for (src, dst), count in cascade["top_cut_edges"]:
            lines.append(f"    {src} -> {dst}: {count}")
    commits = analysis["commits"]
    lines.append(
        f"  committed: {commits['committed_total']} events over "
        f"{commits['lps']} LPs"
    )
    recovery = analysis.get("recovery")
    if recovery and (recovery["checkpoints"] or recovery["restarts"]):
        lines.append(
            f"  recovery: {recovery['checkpoints']} checkpoints "
            f"({recovery['checkpoint_bytes']} B, "
            f"{recovery['checkpoint_seconds']:.4g}s), "
            f"{recovery['restarts']} restarts "
            f"({recovery['replayed']} messages replayed, "
            f"{recovery['downtime']:.4g}s downtime)"
        )
        for record in recovery["restart_records"]:
            if record.get("epoch") is None:
                resumed = "restarted from scratch (no complete epoch)"
            else:
                resumed = (
                    f"resumed from epoch cid={record.get('epoch')} "
                    f"gvt={record.get('gvt')}"
                )
            lines.append(
                f"    restart -> attempt {record.get('to_attempt')}: "
                f"nodes {record.get('failed')} failed, {resumed}"
            )
    migration = analysis.get("migration")
    if migration and migration["migrations"]:
        lines.append(
            f"  migration: {migration['lps_moved']} LPs rehomed over "
            f"{migration['migrations']} epochs "
            f"({migration['pending_moved']} pending events travelled)"
        )
        for (src, dst), lps in sorted(
            migration["edges"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    node {src} -> node {dst}: {lps} LPs")
    path = analysis.get("critical_path")
    if path is not None:
        lines.append(
            f"  critical path: {path['events']} committed events over "
            f"{len(path['path'])} LPs, {path['crossings']} partition "
            f"crossings, est >= {_fmt_seconds(path['est_seconds'])}"
        )
    attribution = analysis["attribution"]
    if attribution["nodes"]:
        lines.append("  per node (busy, wall and wall-time attribution in s):")
        keys = [
            k for k in ATTR_KEYS
            if any(
                bucket["attr"].get(k) is not None
                for bucket in attribution["nodes"].values()
            )
        ]
        header = (
            f"    {'node':<6s} {'events':>8s} {'rb':>6s} {'busy':>9s} "
            f"{'wall':>9s} {'util':>5s}"
            + "".join(f"{k:>10s}" for k in keys)
        )
        lines.append(header)
        for node in sorted(attribution["nodes"]):
            bucket = attribution["nodes"][node]
            wall = bucket["wall"]
            util = bucket["busy"] / wall if wall > 0 else 0.0
            row = (
                f"    {node:<6d} {bucket['events']:>8d} "
                f"{bucket['rollbacks']:>6d} {bucket['busy']:>9.4g} "
                f"{wall:>9.4g} {util:>5.0%}"
            )
            for key in keys:
                value = bucket["attr"].get(key)
                row += f"{value:>10.4g}" if value is not None else f"{'-':>10s}"
            lines.append(row)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the per-partitioner scorecard
# ----------------------------------------------------------------------
def boundary_lp_count(assignment) -> int:
    """LPs with at least one incident cut edge (the rollback frontier)."""
    part = assignment.assignment
    boundary: set[int] = set()
    for u, v in assignment.circuit.edges():
        if part[u] != part[v]:
            boundary.add(u)
            boundary.add(v)
    return len(boundary)


def scorecard_row(result, assignment, records: list[dict]) -> dict:
    """Join one traced run with its static partition quality.

    Raises ``AssertionError`` if the trace's cascade accounting does
    not reconcile exactly with the kernel counters — a scorecard built
    from an unaccounted trace would be garbage.
    """
    from repro.partition.metrics import edge_cut

    cascades = build_cascades(records)
    wasted = sum(c.wasted for c in cascades)
    rollbacks = sum(c.width for c in cascades)
    if rollbacks != result.rollbacks:
        raise AssertionError(
            f"{result.algorithm}: trace holds {rollbacks} rollbacks but the "
            f"kernel reports {result.rollbacks} — unattributed rollbacks"
        )
    if wasted != result.events_rolled_back:
        raise AssertionError(
            f"{result.algorithm}: cascades waste {wasted} events but the "
            f"kernel rolled back {result.events_rolled_back} — "
            "cascade accounting does not reconcile"
        )
    cut = edge_cut(assignment)
    messages = result.app_messages + result.local_messages
    return {
        "algorithm": result.algorithm,
        "nodes": result.num_nodes,
        "edge_cut": cut,
        "boundary_lps": boundary_lp_count(assignment),
        "execution_time": result.execution_time,
        "events": result.events_processed,
        "remote_ratio": result.app_messages / messages if messages else 0.0,
        "rollbacks": result.rollbacks,
        "rolled_back": result.events_rolled_back,
        "rollbacks_per_cut_edge": result.rollbacks / cut if cut else 0.0,
        "wasted_per_cut_edge": (
            result.events_rolled_back / cut if cut else 0.0
        ),
        "cascades": len(cascades),
        "max_chain_depth": max((c.chain_depth for c in cascades), default=0),
        "efficiency": result.efficiency,
        "migrations": getattr(result, "migrations", 0),
        "reconciled": True,
    }


def render_scorecard(rows: list[dict], *, title: str = "scorecard") -> str:
    """Aligned text table of :func:`scorecard_row` dicts."""
    header = (
        f"{'algorithm':<14s} {'cut':>5s} {'bLPs':>5s} {'T(s)':>8s} "
        f"{'remote%':>8s} {'rb':>6s} {'wasted':>7s} {'rb/cut':>7s} "
        f"{'casc':>5s} {'chain':>6s} {'eff':>6s} {'migr':>5s}"
    )
    lines = [f"{title} — every rollback cascade-attributed, totals reconciled",
             header]
    for row in rows:
        lines.append(
            f"{row['algorithm']:<14s} {row['edge_cut']:>5d} "
            f"{row['boundary_lps']:>5d} {row['execution_time']:>8.2f} "
            f"{row['remote_ratio']:>7.1%} {row['rollbacks']:>6d} "
            f"{row['rolled_back']:>7d} {row['rollbacks_per_cut_edge']:>7.2f} "
            f"{row['cascades']:>5d} {row['max_chain_depth']:>6d} "
            f"{row['efficiency']:>6.2f} {row.get('migrations', 0):>5d}"
        )
    return "\n".join(lines)
