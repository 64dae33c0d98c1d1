"""Wire protocol of the multiprocess backend.

Everything that crosses a process boundary is a plain tuple whose first
element is one of the tags below — cheap to pickle, trivial to dispatch
on.  Five cross a node's inbox: ``MSG``, ``TOKEN``, ``GVT``, ``MIGCMD``
and ``MIGRATE``.  Three travel node -> parent on the control queue:
``DONE``, ``ERROR`` and ``CKPT``.

GVT is computed with a Mattern-style colored token circulating the node
ring (node 0 initiates, node ``i`` forwards to ``(i+1) % n``).  Instead
of two colors we use monotonically increasing *computation ids*: every
application message carries the id of the newest GVT computation its
sender has joined.  For computation ``C``:

- messages colored ``< C`` are *white*: the token accumulates
  ``sent - received`` over them, and a round is only conclusive when
  that count is zero (every white message has landed, so its timestamp
  is visible in some node's pending minimum);
- messages colored ``== C`` are *red*: they may still be in flight
  unaccounted, so each node tracks the minimum timestamp it ever sent
  with that color and the token folds it into ``m_send``.

When a round returns to the initiator with ``count == 0``,
``min(m_clock, m_send)`` is a valid GVT lower bound; otherwise the
initiator circulates another round of the same computation.  A GVT of
:data:`~repro.sim.event.T_END` proves global quiescence (no pending
events anywhere, nothing in flight) and doubles as the shutdown signal.

Crash recovery rides on the same broadcast: when checkpointing is on,
every node snapshots its state upon *applying* a GVT value that crosses
the configured virtual-time interval, so the N per-node snapshots of one
computation id form a consistent epoch (see
:mod:`repro.warped.parallel.recovery`).  ``CKPT`` notifies the parent of
each written snapshot.  When the parent restarts the ring from an epoch,
the messages that were in flight across it ride in each node's job
message as the ``MSG`` items the wire would have delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.event import T_END

#: Wire tags (first element of every inter-process tuple).
MSG = "msg"        # ("msg", color, Message[, src, chan_seq])  node -> node
TOKEN = "token"    # ("token", GvtToken)               node -> next node
GVT = "gvt"        # ("gvt", cid, value)               node 0 -> everyone
DONE = "done"      # ("done", node, payload)           node -> parent
ERROR = "error"    # ("error", node, traceback_str)    node -> parent
#: Recovery.  With checkpointing enabled every ``MSG`` grows a
#: ``(src, chan_seq)`` tail: the sender's node id and a per-(src, dest)
#: channel sequence number, which is what lets a restart replay exactly
#: the messages that were in flight across the restore cut.
CKPT = "ckpt"      # ("ckpt", node, cid, gvt)          node -> parent
#: Adaptive-migration tags.  The token's load fold tells node 0 which
#: node ran hottest/coldest over the concluded round; node 0 orders the
#: hot node to shed LPs (``MIGCMD``, sent on the same FIFO channel as
#: the GVT broadcast so the hot node applies the GVT first), and the
#: hot node ships them in one ``MIGRATE`` blob.  A ``MIGRATE`` with
#: ``payload=None`` is an ownership announcement: the adopting node
#: broadcasts the new (gates, owner, version) triple to every other
#: node after it has adopted, so any node that learns the new owner
#: learns it only once the owner can accept forwarded traffic.
MIGCMD = "migcmd"    # ("migcmd", cid, gvt, dest)        node 0 -> hot node
MIGRATE = "migrate"  # ("migrate", color, src, cid, payload)  node -> node


@dataclass
class GvtToken:
    """One circulating GVT token (one round of one computation).

    Besides the Mattern accumulators the token carries a *load fold*:
    a running argmax/argmin over each visited node's busy window (CPU
    time spent processing events since the node's previous fold, in
    integer microseconds so the fold packs into the shm transport's
    fixed-width i64 slots) plus the event count of the argmax node.
    When the round concludes, node 0 reads the hottest and coldest
    node straight off the token — the migration decision needs no
    extra collection round.
    """

    cid: int              # computation id, strictly increasing
    m_clock: int = T_END    # min pending virtual time seen this round
    m_send: int = T_END     # min timestamp sent with color == cid
    count: int = 0          # white (color < cid) sent - received
    # -- load fold (µs busy windows; node -1 = nothing folded yet) ----
    busy_max: int = -1
    busy_max_node: int = -1
    ev_max: int = 0         # events in the argmax node's window
    busy_min: int = -1
    busy_min_node: int = -1

    def fold(self, local_min: int, red_min: int, white_balance: int) -> None:
        """Accumulate one node's contribution into the token."""
        if local_min < self.m_clock:
            self.m_clock = local_min
        if red_min < self.m_send:
            self.m_send = red_min
        self.count += white_balance

    def fold_load(self, node: int, busy_us: int, events: int) -> None:
        """Fold one node's busy window into the hot/cold running fold.

        Ties break toward the lower node id on both sides, matching
        the virtual kernel's ``(window, -i)`` hot and ``(window, i)``
        cold keys.
        """
        if busy_us > self.busy_max or (
            busy_us == self.busy_max and node < self.busy_max_node
        ):
            self.busy_max = busy_us
            self.busy_max_node = node
            self.ev_max = events
        if (
            self.busy_min_node < 0
            or busy_us < self.busy_min
            or (busy_us == self.busy_min and node < self.busy_min_node)
        ):
            self.busy_min = busy_us
            self.busy_min_node = node

    @property
    def conclusive(self) -> bool:
        """True once every white message is accounted for."""
        return self.count == 0

    @property
    def gvt(self) -> int:
        """The GVT bound this (conclusive) round establishes."""
        return min(self.m_clock, self.m_send)


@dataclass
class GvtClerk:
    """Per-node bookkeeping for the colored-token GVT protocol.

    The clerk never touches a queue: the hosting node loop reports sends
    and receives as they happen and hands over tokens with its current
    pending minimum.
    """

    node: int
    #: Newest computation id this node has joined ("turned red" for).
    cur_cid: int = 0
    #: Cumulative application messages sent/received, keyed by color.
    sent: dict[int, int] = field(default_factory=dict)
    received: dict[int, int] = field(default_factory=dict)
    #: Min timestamp ever sent with a given color.
    send_min: dict[int, int] = field(default_factory=dict)

    # -- the node loop calls these on every application message --------
    def note_send(self, timestamp: int) -> int:
        """Record an outgoing message; returns the color to stamp on it."""
        color = self.cur_cid
        self.sent[color] = self.sent.get(color, 0) + 1
        if timestamp < self.send_min.get(color, T_END):
            self.send_min[color] = timestamp
        return color

    def note_receive(self, color: int) -> None:
        """Record an incoming message stamped with *color*."""
        self.received[color] = self.received.get(color, 0) + 1

    # -- token handling ------------------------------------------------
    def white_balance(self, cid: int) -> int:
        """``sent - received`` over every color strictly below *cid*."""
        return sum(
            n for color, n in self.sent.items() if color < cid
        ) - sum(n for color, n in self.received.items() if color < cid)

    def fold_token(self, token: GvtToken, local_min: int) -> None:
        """Join *token*'s computation and add this node's contribution."""
        if token.cid > self.cur_cid:
            self.cur_cid = token.cid  # turn red for this computation
        token.fold(
            local_min,
            self.send_min.get(token.cid, T_END),
            self.white_balance(token.cid),
        )

    def forget_before(self, cid: int) -> None:
        """Drop counters no future computation can consult.

        Colors below ``cid - 1`` are settled once computation ``cid``
        completes (their white balances summed to zero); folding them
        into a single floor color keeps the dicts O(1) over a long run.
        """
        floor = cid - 1
        for table in (self.sent, self.received):
            old = sum(n for color, n in table.items() if color < floor)
            for color in [c for c in table if c < floor]:
                del table[color]
            if old:
                table[floor] = table.get(floor, 0) + old
        for color in [c for c in self.send_min if c < floor]:
            del self.send_min[color]
