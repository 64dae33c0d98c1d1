"""Summaries over merged JSONL traces.

The digests ``tools/trace_report.py`` (the command-line summarizer)
prints.
"""

from __future__ import annotations

from repro.obs.metrics import summarize


def summarize_trace(records: list[dict]) -> dict:
    """Aggregate a record list into per-node and per-kind digests."""
    kinds: dict[str, int] = {}
    nodes: dict[int, dict] = {}

    def node_bucket(node: int) -> dict:
        if node not in nodes:
            nodes[node] = {
                "rollbacks": 0,
                "rollback_depths": [],
                "inbox_depths": [],
                "events": 0,
                "committed": 0,
                "busy": 0.0,
                "wall": 0.0,
                "gvt_rounds": 0,
            }
        return nodes[node]

    gvt_latencies: list[float] = []
    gvt_trips: list[float] = []
    gvt_rounds = 0
    for record in records:
        kind = record["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        node = int(record.get("node", -1))
        if kind == "rollback":
            bucket = node_bucket(node)
            bucket["rollbacks"] += 1
            bucket["rollback_depths"].append(float(record.get("depth", 0)))
        elif kind == "gvt_round":
            gvt_rounds += 1
            node_bucket(node)["gvt_rounds"] += 1
            if record.get("latency") is not None:
                gvt_latencies.append(float(record["latency"]))
            if record.get("trips") is not None:
                gvt_trips.append(float(record["trips"]))
        elif kind == "inbox_depth":
            node_bucket(node)["inbox_depths"].append(
                float(record.get("depth", 0))
            )
        elif kind == "commit":
            node_bucket(node)["committed"] += int(record.get("n", 0))
        elif kind == "node_summary":
            bucket = node_bucket(node)
            bucket["events"] = int(record.get("events", 0))
            bucket["busy"] = float(record.get("busy", 0.0))
            bucket["wall"] = float(record.get("wall", 0.0))
    return {
        "records": len(records),
        "kinds": kinds,
        "nodes": nodes,
        "rollbacks_total": sum(b["rollbacks"] for b in nodes.values()),
        "gvt_rounds": gvt_rounds,
        "gvt_latency": summarize(gvt_latencies),
        "gvt_trips": summarize(gvt_trips),
        "rollback_depth": summarize(
            [d for b in nodes.values() for d in b["rollback_depths"]]
        ),
        "inbox_depth": summarize(
            [d for b in nodes.values() for d in b["inbox_depths"]]
        ),
    }


def _digest_line(label: str, digest: dict) -> str:
    if not digest.get("count"):
        return f"{label:<18s} (no samples)"
    return (
        f"{label:<18s} n={digest['count']:<6d} min={digest['min']:.4g} "
        f"p50={digest['p50']:.4g} p90={digest['p90']:.4g} "
        f"max={digest['max']:.4g}"
    )


def render_trace_summary(summary: dict, *, title: str = "trace") -> str:
    """ASCII report of :func:`summarize_trace` output."""
    lines = [
        f"{title}: {summary['records']} records, "
        f"{summary['rollbacks_total']} rollbacks, "
        f"{summary['gvt_rounds']} GVT rounds",
        "record kinds: "
        + ", ".join(
            f"{kind}={count}" for kind, count in sorted(summary["kinds"].items())
        ),
        _digest_line("rollback depth", summary["rollback_depth"]),
        _digest_line("gvt latency (s)", summary["gvt_latency"]),
        _digest_line("gvt ring trips", summary["gvt_trips"]),
        _digest_line("inbox depth", summary["inbox_depth"]),
    ]
    workers = {n: b for n, b in summary["nodes"].items() if n >= 0}
    if workers:
        lines.append("per node:")
        for node in sorted(workers):
            bucket = workers[node]
            wall = bucket["wall"]
            util = bucket["busy"] / wall if wall > 0 else 0.0
            lines.append(
                f"  node {node:2d}: events={bucket['events']:<8d} "
                f"rollbacks={bucket['rollbacks']:<6d} "
                f"busy={bucket['busy']:.3f}s wall={wall:.3f}s "
                f"util={util:.0%}"
            )
    return "\n".join(lines)
