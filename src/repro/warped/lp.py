"""Logical processes: one per gate, with incremental state saving.

An LP owns local copies of its input signal values (updated only by
messages — LPs never read each other's state directly), its output
value, and a processed-event history. Every ``process`` call appends an
undo record capturing exactly the state it overwrote, so rollback is a
reverse replay of records (incremental state saving, as WARPED does for
small states).

Input copies live in a list parallel to ``gate.fanin`` (one slot per
fanin position, with a src→slots map for updates) rather than a dict:
the evaluator consumes the slot list directly, so the per-event path
has no dict lookups and no per-evaluation list rebuild.

History is committed by two module functions both Time Warp executives
call: :func:`fossil_sweep` at every GVT, :func:`flush_committed` at
quiescence.  Rollback is two more: :func:`unwind` undoes an LP's newest
history, :func:`trace_rollback` writes the rollback's trace record.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter

from repro.circuit.gate import FALSE, UNKNOWN, GateType, eval_func
from repro.circuit.graph import Gate
from repro.errors import SimulationError
from repro.sim.event import CAPTURE, SIG, STIM, EventKey
from repro.warped.messages import Message, fan_out

#: Key smaller than every real event key.
MIN_KEY: EventKey = (-1, -1, -1, -1)

#: Bisection keys of a history (a list of :class:`ProcessedRecord`,
#: keys strictly increasing) and of its checkpoint list.
_record_key = attrgetter("msg.key")
_record_time = attrgetter("msg.time")
_checkpoint_key = itemgetter(0)


def gate_static(gate: Gate) -> tuple:
    """(src→slots map, unique sink list, eval fn, comb flag, initial out,
    gate index, gate delay).

    Index and delay ride along so the per-event paths read them from LP
    slots instead of chasing the (dict-based) Gate dataclass.
    """
    fanin = gate.fanin
    if len(set(fanin)) == len(fanin):
        # A slot is stored as a bare int when the driver feeds exactly
        # one input position (the overwhelming majority) and as a tuple
        # of positions when a gate is wired to the same driver twice —
        # the per-event update path branches on the type.
        src_slots: dict[int, int | tuple[int, ...]] = {
            src: position for position, src in enumerate(fanin)
        }
    else:
        slots: dict[int, list[int]] = {}
        for position, src in enumerate(fanin):
            slots.setdefault(src, []).append(position)
        src_slots = {
            src: (positions[0] if len(positions) == 1 else tuple(positions))
            for src, positions in slots.items()
        }
    gt = gate.gate_type
    return (
        src_slots,
        # Unique sinks in first-occurrence order: parallel edges
        # carry the same value change, one message copy suffices.
        list(dict.fromkeys(gate.fanout)),
        eval_func(gt, len(fanin)),
        gt not in (GateType.DFF, GateType.INPUT),
        FALSE if gt is GateType.DFF else UNKNOWN,
        gate.index,
        gate.delay,
    )


def fossil_sweep(lps, oldest_times: dict[int, int], floor_t: int, tracer) -> int:
    """Free every LP's history below virtual time *floor_t*; returns
    the number of records freed.

    *oldest_times* maps each LP holding history (gate index into *lps*)
    to the virtual time of its oldest record — the only LPs a sweep
    visits, and its skip test — and is kept up to date.  An LP that
    checkpoints delegates to :meth:`LogicalProcess.fossil_collect` (it
    must rebuild its base snapshot); the rest free a plain prefix inline:
    one bisection by time and one slice delete, whatever its length.
    Freed records are committed: with a *tracer*, one ``commit``
    timeline record per LP freed from, so the count is bounded by LPs,
    never by events.
    """
    freed = 0
    for index in [i for i, t in oldest_times.items() if t < floor_t]:
        lp = lps[index]
        processed = lp.processed
        if lp.checkpoint_interval is not None:
            n = lp.fossil_collect(floor_t)
        else:
            n = bisect_left(processed, floor_t, key=_record_time)
            del processed[:n]
        freed += n
        if tracer is not None:
            tracer.emit(
                "commit",
                node=lp.node,
                lp=index,
                n=n,
                t_lo=oldest_times[index],
                t_hi=floor_t,
            )
        if processed:
            oldest_times[index] = processed[0].msg.time
        else:
            del oldest_times[index]
    return freed


def flush_committed(lps, tracer) -> None:
    """Emit the quiescence ``commit`` flush for the LPs *lps*.

    Called once GVT reached ``T_END``: whatever history survived the last
    :func:`fossil_sweep` is committed now.  With these records the
    trace's commit-``n`` total equals ``events - rolled_back`` exactly.
    """
    if tracer is None:
        return
    for lp in lps:
        if lp.processed:
            tracer.emit(
                "commit",
                node=lp.node,
                lp=lp.gate_index,
                n=len(lp.processed),
                t_lo=lp.processed[0].msg.time,
                t_hi=None,
                final=True,
            )


def unwind(lp, to_key: EventKey, cancel_uid: int | None, queue, capture_log):
    """Roll *lp* back to just before *to_key*; returns the undone
    records, newest first, and the number of events coasted.

    A checkpointing LP restores its snapshot and coasts forward
    (:meth:`LogicalProcess.rollback_to`); any other undoes record by
    record (:meth:`LogicalProcess.undo_last`).  Every undone message
    goes back on *queue* except the positive with uid *cancel_uid*,
    which its anti-message annihilates, and every undone capture leaves
    *capture_log*.  The undone sends are the caller's to cancel.
    """
    if lp.checkpoint_interval is not None:
        records, coasted = lp.rollback_to(to_key)
        records.reverse()
    else:
        records = []
        coasted = 0
        while lp.last_key >= to_key:
            records.append(lp.undo_last())
    for record in records:
        msg = record.msg
        if msg.prio == CAPTURE:
            capture_log.pop((msg.dest, msg.n), None)
        if msg.uid != cancel_uid:
            queue.push(msg)
    return records, coasted


def trace_rollback(
    tracer, lp, rid: int, records, to_key: EventKey, cancel_uid: int | None,
    cause_msg: Message, cause_node: int,
) -> None:
    """Emit the ``rollback`` record of one :func:`unwind`: the
    triggering message (straggler positive or anti), its sender's node,
    and every send the rollback undid — the links
    :mod:`repro.obs.causality` chains into cascades.  *rid* is the
    node's rollback ordinal."""
    tracer.emit(
        "rollback",
        node=lp.node,
        rid=rid,
        lp=lp.gate_index,
        depth=len(records),
        t=to_key[0],
        cause_kind="anti" if cancel_uid is not None else "straggler",
        cause_uid=cause_msg.uid,
        cause_src=cause_msg.src,
        cause_node=cause_node,
        cause_t=cause_msg.time,
        antis=[em.uid for record in records for em in record.emissions],
    )


class ProcessedRecord:
    """History entry: the message processed plus undo information."""

    __slots__ = ("msg", "old_input", "old_output", "emissions")

    def __init__(
        self,
        msg: Message,
        old_input: int | None,
        old_output: int,
        emissions: list[Message],
    ) -> None:
        self.msg = msg
        self.old_input = old_input
        self.old_output = old_output
        self.emissions = emissions


class LogicalProcess:
    """Time Warp LP wrapping one gate."""

    __slots__ = (
        "gate",
        "node",
        "_fanin_values",
        "_src_slots",
        "_eval",
        "output_value",
        "last_key",
        "processed",
        "emission_seq",
        "checkpoint_interval",
        "checkpoints",
        "_since_checkpoint",
        "_sink_list",
        "_is_comb",
        "gate_index",
        "delay",
    )

    def __init__(
        self,
        gate: Gate,
        node: int,
        checkpoint_interval: int | None = None,
        static: tuple | None = None,
    ) -> None:
        self.gate = gate
        self.node = node
        #: src gate index -> fanin positions it drives (usually one; a
        #: gate wired to the same driver twice has several). Shared,
        #: read-only static structure — see :func:`gate_static`;
        #: :meth:`World.new_lp <repro.warped.world.World.new_lp>` passes
        #: the memoised per-circuit entry.
        (
            self._src_slots,
            self._sink_list,
            self._eval,
            self._is_comb,
            self.output_value,
            self.gate_index,
            self.delay,
        ) = static if static is not None else gate_static(gate)
        #: One value per fanin position (parallel to ``gate.fanin``).
        self._fanin_values: list[int] = [UNKNOWN] * len(gate.fanin)
        self.last_key: EventKey = MIN_KEY
        self.processed: list[ProcessedRecord] = []
        #: None = incremental state saving (per-event undo info, the
        #: default); an integer C = periodic checkpointing: a full state
        #: snapshot every C events, rollback restores the nearest
        #: snapshot and *coasts forward* (state-only replay, no sends).
        self.checkpoint_interval = checkpoint_interval
        #: (key, fanin-values snapshot, output_value) — state right
        #: AFTER processing the record with that key.
        self.checkpoints: list[tuple[EventKey, list[int], int]] = [
            (MIN_KEY, list(self._fanin_values), self.output_value)
        ]
        self._since_checkpoint = 0
        # Monotone emission counter: NEVER decremented, even on rollback.
        # A replayed emission thus mints a strictly larger n than the
        # stale copy its anti-message is chasing, keeping event keys
        # unique per destination; relative order among committed
        # emissions still follows evaluation (key) order, so final
        # results stay identical to the sequential engine's.
        self.emission_seq = 0

    @property
    def input_copy(self) -> dict[int, int]:
        """Input values keyed by driving gate (compatibility view).

        The hot path works on :attr:`_fanin_values`; this rebuilds the
        historical dict form for tests and debugging.
        """
        values = self._fanin_values
        return {
            src: values[slots if type(slots) is int else slots[0]]
            for src, slots in self._src_slots.items()
        }

    # ------------------------------------------------------------------
    def process(self, msg: Message, next_uid) -> ProcessedRecord:
        """Apply *msg*; the caller guarantees ``msg.key > self.last_key``.

        ``next_uid`` is a callable minting fresh message uids. Returns
        the history record (its ``emissions`` are the messages the
        kernel must route).
        """
        if msg.key <= self.last_key:
            raise SimulationError(
                f"LP {self.gate.name}: straggler {msg!r} reached process() "
                f"(last key {self.last_key}); kernel must roll back first"
            )
        values = self._fanin_values
        old_output = self.output_value
        old_input: int | None = None
        emissions: list[Message] = []

        prio = msg.prio
        if prio == SIG or (prio == STIM and msg.src != self.gate_index):
            # Signal (or stimulus copy) from a driving LP — the common
            # case, so it is tested first.
            slots = self._src_slots[msg.src]
            if type(slots) is int:
                old_input = values[slots]
                values[slots] = msg.value
            else:
                old_input = values[slots[0]]
                value = msg.value
                for position in slots:
                    values[position] = value
            if self._is_comb:
                nv = self._eval(values)
                if nv != old_output:
                    self.output_value = nv
                    emissions = self._emit_change(
                        msg.time + self.delay, nv, next_uid
                    )
        elif prio == CAPTURE:
            data = values[0]
            if data != old_output:
                self.output_value = data
                emissions = self._emit_change(
                    msg.time + self.delay, data, next_uid
                )
        else:
            # Own stimulus: apply, fan the SAME key out to the sinks.
            if msg.value != old_output:
                self.output_value = msg.value
                emissions = fan_out(
                    msg.time, STIM, self.gate_index, msg.n, msg.value,
                    self._sink_list, iter(next_uid, None),
                )

        record = ProcessedRecord(msg, old_input, old_output, emissions)
        self.processed.append(record)
        self.last_key = msg.key
        if self.checkpoint_interval is not None:
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.checkpoint_interval:
                self.checkpoints.append(
                    (msg.key, list(values), self.output_value)
                )
                self._since_checkpoint = 0
        return record

    def _emit_change(self, time: int, value: int, next_uid) -> list[Message]:
        """Mint the output-change copies for every sink at *time*."""
        n = self.emission_seq
        self.emission_seq = n + 1
        return fan_out(
            time, SIG, self.gate_index, n, value, self._sink_list,
            iter(next_uid, None),
        )

    def holds(self, msg: Message) -> bool:
        """Whether the copy *msg* is in this LP's history — the test an
        anti-message's rollback rests on.  History keys strictly increase,
        so one bisection by ``msg.key`` finds the only record that can
        carry it, and the uid tells a re-executed stimulus's fresh copy
        of the same key from *msg*.  (``last_key`` is no substitute: an
        anti can arrive while its positive is still in flight.)"""
        processed = self.processed
        at = bisect_left(processed, msg.key, key=_record_key)
        return at < len(processed) and processed[at].msg.uid == msg.uid

    # ------------------------------------------------------------------
    def undo_last(self) -> ProcessedRecord:
        """Pop and revert the most recent history record."""
        if not self.processed:
            raise SimulationError(
                f"LP {self.gate.name}: nothing to undo (fossil-collected?)"
            )
        record = self.processed.pop()
        self.output_value = record.old_output
        old_input = record.old_input
        if old_input is not None:
            values = self._fanin_values
            slots = self._src_slots[record.msg.src]
            if type(slots) is int:
                values[slots] = old_input
            else:
                for position in slots:
                    values[position] = old_input
        # emission_seq is deliberately NOT rewound (see __init__).
        self.last_key = self.processed[-1].msg.key if self.processed else MIN_KEY
        return record

    def apply_state_only(self, msg: Message) -> None:
        """Re-apply *msg*'s state effect without emitting (coast-forward).

        The emissions produced the first time around are still valid —
        they live in the preserved records or were already delivered —
        so replay only has to rebuild the local state.
        """
        values = self._fanin_values
        if msg.prio == CAPTURE:
            data = values[0]
            if data != self.output_value:
                self.output_value = data
        elif msg.prio == STIM and msg.src == self.gate_index:
            if msg.value != self.output_value:
                self.output_value = msg.value
        else:
            value = msg.value
            slots = self._src_slots[msg.src]
            if type(slots) is int:
                values[slots] = value
            else:
                for position in slots:
                    values[position] = value
            if self._is_comb:
                nv = self._eval(values)
                if nv != self.output_value:
                    self.output_value = nv

    def rollback_to(self, to_key: EventKey) -> tuple[list[ProcessedRecord], int]:
        """Checkpoint-mode rollback: undo every record with key >= *to_key*.

        Restores the latest snapshot strictly before *to_key* and coasts
        forward through the surviving records after it. Returns the
        undone records (newest last) and the number of coasted events
        (the re-execution work the machine model charges for).
        """
        if self.checkpoint_interval is None:
            raise SimulationError(
                "rollback_to is for checkpoint mode; use undo_last"
            )
        pos = bisect_left(self.processed, to_key, key=_record_key)
        undone = self.processed[pos:]
        del self.processed[pos:]

        while self.checkpoints and self.checkpoints[-1][0] >= to_key:
            self.checkpoints.pop()
        if not self.checkpoints:
            raise SimulationError(
                f"LP {self.gate.name}: no checkpoint before {to_key} "
                "(fossil collection must always keep a base snapshot)"
            )
        ckpt_key, snapshot, out = self.checkpoints[-1]
        self._fanin_values = list(snapshot)
        self.output_value = out
        start = bisect_right(self.processed, ckpt_key, key=_record_key)
        coasted = 0
        for record in self.processed[start:]:
            self.apply_state_only(record.msg)
            coasted += 1
        self.last_key = self.processed[-1].msg.key if self.processed else MIN_KEY
        self._since_checkpoint = len(self.processed) - start
        return undone, coasted

    def fossil_collect(self, gvt: int) -> int:
        """Drop history strictly below *gvt* (one bisection: history
        times never decrease); returns records freed."""
        processed = self.processed
        keep_from = bisect_left(processed, gvt, key=_record_time)
        if keep_from:
            if self.checkpoint_interval is not None:
                # Rebuild the committed-state base at the collection
                # boundary: restore the newest snapshot at or before the
                # last dropped record, coast through the dropped suffix,
                # and make that the new base checkpoint. Without it, a
                # later rollback could need records that no longer exist.
                boundary_key = processed[keep_from - 1].msg.key
                base_index = bisect_right(
                    self.checkpoints, boundary_key, key=_checkpoint_key
                ) - 1
                base_key, snapshot, out = self.checkpoints[base_index]
                saved_input, saved_output = self._fanin_values, self.output_value
                self._fanin_values = list(snapshot)
                self.output_value = out
                for record in processed[:keep_from]:
                    if record.msg.key > base_key:
                        self.apply_state_only(record.msg)
                boundary_snapshot = (
                    boundary_key, list(self._fanin_values), self.output_value
                )
                self._fanin_values, self.output_value = saved_input, saved_output
                kept = self.checkpoints[base_index + 1:]
                self.checkpoints = [boundary_snapshot, *kept]
            del processed[:keep_from]
        return keep_from

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LP({self.gate.name}, node={self.node}, out={self.output_value}, "
            f"last={self.last_key})"
        )
