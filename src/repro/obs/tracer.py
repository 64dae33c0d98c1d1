"""JSONL trace recording and multi-process shard merging.

One trace record per line::

    {"ts": 0.001234, "node": 2, "seq": 41, "kind": "rollback", ...}

``ts`` is seconds since the run's epoch (wall clock, comparable across
processes — every shard writer shares the epoch the parent sampled at
launch).  ``node`` is the emitting node, ``-1`` for the parent or a
single-process engine.  ``seq`` is a per-writer monotonic counter —
the within-writer emission order, robust to ``ts`` collisions (the
clock's resolution is far coarser than the emit rate).  ``kind``
selects the schema of the remaining fields; DESIGN.md §7 documents
every kind.

In the process backend each worker writes its own shard
(``<base>.node<i>``, see :func:`shard_path`) so tracing never
synchronizes the workers; the parent merges the shards into ``<base>``
ordered by ``(ts, node, seq)`` once the run completes — a total,
deterministic order even when records from different writers collide
on wall time.

Every line is strict JSON: a non-finite float is refused, never
written.  Virtual times are integers; the quiescence proof (GVT ==
:data:`~repro.sim.event.T_END`) is emitted as ``"gvt": null`` with
``"final": true`` alongside.
"""

from __future__ import annotations

import json
import time

#: Compact strict JSON: a non-finite float raises, never ``Infinity``.
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def shard_path(base: str, node: int, attempt: int = 0) -> str:
    """The per-worker shard file for *node* under merged path *base*.

    Restart attempts write to distinct files (``<base>.node<i>.r<k>``
    for attempt ``k > 0``) so a crashed worker's shard survives for
    post-mortem while its replacement starts a fresh one.
    """
    if attempt:
        return f"{base}.node{node}.r{attempt}"
    return f"{base}.node{node}"


class TraceWriter:
    """Streaming JSONL writer for one process's trace records."""

    __slots__ = ("path", "node", "epoch", "attempt", "records_written", "_fh")

    def __init__(
        self,
        path: str,
        *,
        node: int = -1,
        epoch: float | None = None,
        attempt: int = 0,
    ):
        self.path = str(path)
        self.node = node
        self.epoch = time.time() if epoch is None else epoch
        #: Restart-attempt id; stamped on every record when non-zero so
        #: :func:`merge_shards` can discard a crashed lineage's records
        #: in favour of its replacement's.
        self.attempt = attempt
        self.records_written = 0
        # Line-buffered on purpose: a crashing worker leaves complete
        # records behind for post-mortem instead of an empty shard.
        self._fh = open(self.path, "w", buffering=1)

    def emit(self, kind: str, *, node: int | None = None, **fields) -> None:
        """Append one record of *kind* (extra fields go out verbatim)."""
        if self._fh is None:  # pragma: no cover - defensive
            return
        record: dict = {
            "ts": round(time.time() - self.epoch, 6),
            "node": self.node if node is None else node,
            "seq": self.records_written,
            "kind": kind,
        }
        if self.attempt:
            record["attempt"] = self.attempt
        record.update(fields)
        self._fh.write(_encode(record) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_trace(path: str) -> list[dict]:
    """All records of a JSONL trace file, in file order."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def merge_shards(
    base: str,
    shards: list[str],
    *,
    extra: list[dict] | None = None,
    keep_shards: bool = False,
) -> int:
    """Merge worker *shards* into *base*, ordered by ``(ts, node, seq)``.

    ``seq`` is the per-writer monotonic counter :class:`TraceWriter`
    stamps on every record, so records with identical wall time — from
    the same writer or from different nodes — merge deterministically;
    legacy records without a ``seq`` field fall back to their
    within-shard file order.  Missing shards are skipped — a worker
    that died before opening its file is not an error here; the backend
    reports worker death separately.

    Records carry an ``attempt`` field when a restarted worker emitted
    them (see :class:`TraceWriter`); for each node only the records of
    its **newest** attempt are merged.  A respawned worker re-executes
    — and re-traces — the work since the restore checkpoint, so keeping
    a crashed lineage's records alongside its replacement's would
    double-count that overlap.  Parent-emitted records (``node == -1``)
    never carry ``attempt`` and are always kept.

    Shards are deleted after a successful merge unless *keep_shards*.
    Returns the number of merged records.
    """
    import os

    staged: list[tuple[float, int, int, dict]] = []
    newest: dict[int, int] = {}
    for path in shards:
        try:
            records = read_trace(path)
        except FileNotFoundError:
            continue
        for order, record in enumerate(records):
            node = int(record.get("node", -1))
            newest[node] = max(newest.get(node, 0), record.get("attempt", 0))
            staged.append(
                (float(record.get("ts", 0.0)), node,
                 int(record.get("seq", order)), record)
            )
    keyed = [
        item for item in staged
        if item[3].get("attempt", 0) == newest.get(item[1], 0)
    ]
    for order, record in enumerate(extra or []):
        keyed.append(
            (float(record.get("ts", 0.0)), int(record.get("node", -1)),
             int(record.get("seq", order)), record)
        )
    keyed.sort(key=lambda item: item[:3])
    with open(base, "w") as fh:
        for _, _, _, record in keyed:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    if not keep_shards:
        for path in shards:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
    return len(keyed)
