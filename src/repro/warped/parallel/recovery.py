"""Consistent checkpoint epochs and restart replay for the process backend.

The recovery protocol is coordinated checkpointing keyed on the GVT
broadcast.  Every node applies the identical sequence of ``(cid, value)``
GVT broadcasts (the initiator applies each locally when it concludes the
computation, everyone else on receipt over a FIFO channel), so "snapshot
when the applied value crosses a multiple of the configured virtual-time
interval" fires at the *same computation id* on every node without any
extra coordination traffic.  The N per-node snapshot files written for
one cid form an **epoch**; an epoch is usable for restart once all N
files exist and load.

What a snapshot must capture beyond the engine state is the channel
bookkeeping that makes the epoch *consistent*: messages sent before the
sender's snapshot but not yet received at the receiver's snapshot are in
flight across the cut and exist nowhere in the restored ring.  Each node
therefore stamps every remote application message with a per-(src, dest)
channel sequence number, logs its own sends, and snapshots both the log
and the per-source receive cursors.  At restart the parent replays, for
each ordered pair ``(a, b)``, exactly the log entries of ``a`` whose
sequence number exceeds ``b``'s snapshotted receive cursor — no message
is lost, none is duplicated, and Time Warp's interleaving independence
does the rest (the committed results of the resumed run are bit-identical
to an uninterrupted one).

The send log stays bounded without acknowledgement traffic: a conclusive
GVT value ``v`` proves no in-flight or future message can carry a
virtual time below ``v`` (the same invariant fossil collection relies
on), so entries with ``msg.time < v`` can never fall inside a future
epoch's replay window and are pruned at every GVT application.

Restarting *only* the dead node would be unsound: message uids are
minted in processing order, which is interleaving-dependent, so a
restored node re-executing its post-snapshot work emits logically
identical messages under fresh uids — survivors that already processed
the originals would double-process them and the uid-matched annihilation
protocol would break.  The parent therefore rolls the whole ring back to
the last complete epoch (Time Warp's dual of coordinated checkpointing);
the crash of one node costs the cluster the work since that epoch and
nothing else.

Runtime LP migration composes with this by construction rather than by
extra machinery.  Snapshots capture each engine's *current* gate
residency (the ``assignment`` map and its ``owner_version``), so a
restored epoch restores whatever ownership the migrations before it had
established.  Migration decisions are only taken at checkpoint-epoch
boundaries when recovery is on, and an LP-carrying ``MIGRATE`` record is
adopted only after its epoch's GVT (and therefore its snapshot) has been
applied — an epoch can never cut a migration in half.  ``MIGRATE`` and
``MIGCMD`` records are deliberately *not* send-log-replayed: a lost
command merely skips one rebalance round, and a lost LP transfer is
impossible because the white-message balance keeps any epoch from
concluding while one is in flight.
"""

from __future__ import annotations

import os
import pickle
import re

from repro.warped.parallel.protocol import MSG

#: Checkpoint file format version (bump on layout changes).
CKPT_VERSION = 1

_CKPT_RE = re.compile(r"ck\.node(\d+)\.cid(\d+)$")


def ckpt_path(directory: str, node: int, cid: int) -> str:
    """The snapshot file of *node* for epoch *cid*."""
    return os.path.join(directory, f"ck.node{node}.cid{cid}")


def write_checkpoint(path: str, payload: dict) -> int:
    """Atomically persist one node's epoch snapshot; returns bytes written.

    Serialized immediately (the payload references live engine state) and
    published with ``os.replace`` so a crash mid-write can never leave a
    half-epoch file that :func:`latest_complete_epoch` would trust.
    """
    data = pickle.dumps(
        {"version": CKPT_VERSION, **payload}, protocol=pickle.HIGHEST_PROTOCOL
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return len(data)


def load_checkpoint(path: str) -> dict:
    """Load and validate one snapshot file."""
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("version") != CKPT_VERSION:
        raise ValueError(
            f"checkpoint {path} has version {payload.get('version')!r}, "
            f"expected {CKPT_VERSION}"
        )
    return payload


def scan_epochs(directory: str) -> dict[int, dict[int, str]]:
    """All snapshot files present, as ``{cid: {node: path}}``."""
    epochs: dict[int, dict[int, str]] = {}
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return epochs
    for name in names:
        match = _CKPT_RE.match(name)
        if match:
            node, cid = int(match.group(1)), int(match.group(2))
            epochs.setdefault(cid, {})[node] = os.path.join(directory, name)
    return epochs


def latest_complete_epoch(
    directory: str, num_nodes: int
) -> tuple[int, dict[int, dict]] | None:
    """Newest epoch with all *num_nodes* snapshots loadable, or ``None``.

    Returns ``(cid, {node: payload})``.  Epochs that are present but
    fail to load (a worker terminated mid-``os.replace`` window cannot
    cause this, but a corrupted disk can) are skipped, not fatal — an
    older complete epoch is still a valid restart point.
    """
    epochs = scan_epochs(directory)
    for cid in sorted(epochs, reverse=True):
        files = epochs[cid]
        if len(files) != num_nodes:
            continue
        try:
            payloads = {node: load_checkpoint(path) for node, path in files.items()}
        except (OSError, ValueError, pickle.UnpicklingError):
            continue
        if all(payloads[node]["cid"] == cid for node in range(num_nodes)):
            return cid, payloads
    return None


def drop_epochs_after(directory: str, cid: int) -> int:
    """Delete snapshot files of epochs newer than *cid*; returns count.

    Called before a restart: epochs written after the restart point by
    the crashed lineage are stale (the resumed ring will re-execute and
    overwrite them), and a *partially* rewritten newer epoch must never
    mix files from two lineages — their uid streams differ.
    """
    dropped = 0
    for epoch_cid, files in scan_epochs(directory).items():
        if epoch_cid > cid:
            for path in files.values():
                try:
                    os.remove(path)
                    dropped += 1
                except FileNotFoundError:  # pragma: no cover - racing cleanup
                    pass
    return dropped


def drop_epochs_before(directory: str, cid: int) -> int:
    """Delete snapshot files of epochs older than *cid*; returns count."""
    dropped = 0
    for epoch_cid, files in scan_epochs(directory).items():
        if epoch_cid < cid:
            for path in files.values():
                try:
                    os.remove(path)
                    dropped += 1
                except FileNotFoundError:  # pragma: no cover - racing cleanup
                    pass
    return dropped


def compute_replays(
    payloads: dict[int, dict]
) -> dict[int, list[tuple]]:
    """The in-flight messages of an epoch, as ``{dest: [MSG items]}``.

    For each channel ``a -> b``: the entries of ``a``'s snapshotted send
    log with sequence number beyond ``b``'s snapshotted receive cursor
    are exactly the messages sent before the cut but not received at it.
    Each is the recovery-shaped ``(MSG, color, msg, src, seq)`` item
    ``b`` would have received, so the node handles it as one.  Per-channel
    order is preserved (logs are append-ordered), which keeps the
    restored channels FIFO.
    """
    replays: dict[int, list[tuple]] = {}
    for src, payload in payloads.items():
        send_log: dict[int, list] = payload["loop"]["send_log"]
        for dest, entries in send_log.items():
            floor = payloads[dest]["loop"]["recv_seq"].get(src, 0)
            for seq, color, msg in entries:
                if seq > floor:
                    replays.setdefault(dest, []).append(
                        (MSG, color, msg, src, seq)
                    )
    return replays


def resume_cid_base(payloads: dict[int, dict]) -> int:
    """First computation id safely above every color the epoch knows.

    The resumed initiator must never reuse a computation id that any
    restored clerk has already turned red for — stale colors would
    poison the white/red accounting of the fresh ring.
    """
    highest = 0
    for payload in payloads.values():
        loop = payload["loop"]
        highest = max(highest, loop["clerk"].cur_cid, loop["next_cid"])
    return highest + 1
