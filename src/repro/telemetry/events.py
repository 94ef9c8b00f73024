"""Structured packet-lifecycle event log.

Every packet a switch touches produces a small, fixed vocabulary of events:

========== ============================================== ==================
kind       emitted when                                   port of record
========== ============================================== ==================
arrive     head word reaches the input latch row          ``src`` (input)
store_wave plain WRITE wave chain admitted at stage 0     ``src`` (input)
cut_through WRITE_CT wave admitted (store + depart)       ``dst`` (output)
read_wave  READ wave chain admitted for a queued packet   ``dst`` (output)
depart     tail word leaves the output link               ``dst`` (output)
drop       packet lost, with a machine-readable cause     ``src`` (input)
========== ============================================== ==================

The checked :class:`~repro.core.switch.PipelinedSwitch` emits these as the
words actually move; :class:`~repro.core.batchpath.BatchPipelinedSwitch`
derives the identical events in closed form from each wave's admission
cycle.  ``tests/core/test_telemetry_equivalence.py`` pins the two streams
to each other, which is a far finer equivalence than end-of-run totals.

Event ordering *within a cycle* is an implementation detail (the batch
kernel computes some consequences earlier than the checked model observes
them), so comparisons and exports use :meth:`EventLog.sorted_events`.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- event kinds ------------------------------------------------------------
ARRIVE = "arrive"
STORE_WAVE = "store_wave"
CUT_THROUGH = "cut_through"
READ_WAVE = "read_wave"
DEPART = "depart"
DROP = "drop"

WAVE_KINDS = (STORE_WAVE, CUT_THROUGH, READ_WAVE)

# -- drop causes ------------------------------------------------------------
# The paper's drop-tail switch loses a packet in exactly two ways, both
# "the buffer stayed full for the whole store window":
DROP_HEAD_OVERRUN = "head_overrun"  # next packet's head reuses input latch 0
DROP_QUANTUM_OVERRUN = "quantum_overrun"  # own next quantum reuses latch 0 (§3.5)
# Slot-level models reject at admission time:
DROP_BUFFER_FULL = "buffer_full"
# The knockout switch's concentrator discards losers beyond its l paths:
DROP_KNOCKOUT = "knockout"
# An admission policy (repro.policy) refused the packet at arrival:
DROP_POLICY = "policy"

#: The complete drop taxonomy, in canonical display order.  Every
#: ``DROP_*`` cause constant in this module must appear here — exporters
#: treat this tuple as the map of record, and
#: ``tests/scenario/test_contracts.py`` checks the two agree.
DROP_CAUSES = (
    DROP_HEAD_OVERRUN,
    DROP_QUANTUM_OVERRUN,
    DROP_BUFFER_FULL,
    DROP_KNOCKOUT,
    DROP_POLICY,
)

# Which port identifies an event of each kind (input or output side).
_INPUT_SIDE = frozenset((ARRIVE, STORE_WAVE, DROP))


@dataclass(frozen=True, slots=True)
class Event:
    """One lifecycle event.  ``aux`` carries the head-departure cycle on
    ``depart`` events (the tail cycle is ``cycle`` itself); -1 elsewhere."""

    cycle: int
    kind: str
    uid: int
    src: int = -1
    dst: int = -1
    cause: str = ""
    aux: int = -1

    @property
    def port(self) -> int:
        """The port this event is accounted to (input or output side)."""
        return self.src if self.kind in _INPUT_SIDE else self.dst

    def as_dict(self) -> dict[str, object]:
        d: dict[str, object] = {"cycle": self.cycle, "kind": self.kind,
                                "uid": self.uid}
        if self.src >= 0:
            d["src"] = self.src
        if self.dst >= 0:
            d["dst"] = self.dst
        if self.cause:
            d["cause"] = self.cause
        if self.aux >= 0:
            d["head"] = self.aux
        return d


class EventLog:
    """Append-only in-memory event stream."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, cycle: int, kind: str, uid: int, src: int = -1,
             dst: int = -1, cause: str = "", aux: int = -1) -> None:
        self.events.append(Event(cycle, kind, uid, src, dst, cause, aux))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def sorted_events(self) -> list[Event]:
        """Events in canonical (cycle, kind, uid) order — the comparable
        form; see the module docstring on intra-cycle ordering."""
        return sorted(self.events, key=lambda e: (e.cycle, e.kind, e.uid))

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


class NullEventLog:
    """No-op stand-in used when event collection is disabled."""

    enabled = False
    events: tuple[Event, ...] = ()

    def emit(self, cycle: int, kind: str, uid: int, src: int = -1,
             dst: int = -1, cause: str = "", aux: int = -1) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def sorted_events(self) -> list[Event]:
        return []

    def counts_by_kind(self) -> dict[str, int]:
        return {}


NULL_EVENTS = NullEventLog()
