"""Pipeline-stage spans assembled in closed form from lifecycle events.

A sampled packet's life decomposes into the stages the paper's figure 5
draws:

========== =========================================================
stage      interval (cycles, end-exclusive)
========== =========================================================
latch      head arrival -> first write-wave admission
store_wave admission t0 -> t0 + quanta*depth (the WR staircase)
cut_through admission t0 -> t0 + quanta*depth (WRITE_CT staircase)
resident   store admission -> read admission (buffered dwell)
read_wave  admission t0 -> t0 + quanta*depth (the RD staircase)
link       head departure -> tail departure + 1
drop       the drop cycle (width 1), with the taxonomy cause
========== =========================================================

Wave extents use the figure-5 law (a wave admitted at ``t0`` occupies bank
``k`` of quantum ``q`` at ``t0 + q*depth + k``), so spans need only the
admission events — exactly the stream every kernel tier emits identically.
Stages still open when the run stopped are clipped at ``horizon`` (pass
the switch's current cycle); with no horizon, open stages are omitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.telemetry.events import (
    ARRIVE,
    CUT_THROUGH,
    DEPART,
    DROP,
    READ_WAVE,
    STORE_WAVE,
    Event,
)

#: Chrome-trace process id for per-packet span tracks (inputs/banks/links
#: are 0/1/2 in repro.telemetry.export).
PID_PACKETS = 3

#: Stage names in rendering order within one start cycle.
STAGES = ("latch", "store_wave", "cut_through", "resident", "read_wave",
          "link", "drop")
_STAGE_ORDER = {s: i for i, s in enumerate(STAGES)}


@dataclass(frozen=True, slots=True)
class Span:
    """One stage of one packet: ``[start, end)`` in cycles."""

    uid: int
    stage: str
    start: int
    end: int
    src: int = -1
    dst: int = -1
    cause: str = ""

    def as_dict(self) -> dict[str, object]:
        d: dict[str, object] = {"uid": self.uid, "stage": self.stage,
                                "start": self.start, "end": self.end}
        if self.src >= 0:
            d["src"] = self.src
        if self.dst >= 0:
            d["dst"] = self.dst
        if self.cause:
            d["cause"] = self.cause
        return d


def spans_from_events(
    events: Iterable[Event], *, depth: int, quanta: int = 1,
    horizon: int | None = None,
) -> list[Span]:
    """Assemble per-packet stage spans from a (possibly sampled) stream.

    Deterministic: output is sorted by ``(uid, start, stage)``.  Feeding
    the sorted event streams of the checked and batch kernels yields
    identical span lists because the streams themselves are identical.
    """
    wave_len = quanta * depth
    by_uid: dict[int, list[Event]] = {}
    for e in events:
        by_uid.setdefault(e.uid, []).append(e)

    def clipped(start: int, end: int | None) -> tuple[int, int] | None:
        # None end = stage still open; needs a horizon to close.
        if end is None:
            if horizon is None:
                return None
            end = horizon
        if horizon is not None:
            end = min(end, horizon)
        if end <= start:
            end = start + 1
        return start, end

    spans: list[Span] = []
    for uid, evs in by_uid.items():
        arrive = store = ct = read = depart = drop = None
        for e in evs:
            if e.kind == ARRIVE:
                arrive = e
            elif e.kind == STORE_WAVE:
                store = e
            elif e.kind == CUT_THROUGH:
                ct = e
            elif e.kind == READ_WAVE:
                read = e
            elif e.kind == DEPART:
                depart = e
            elif e.kind == DROP:
                drop = e
        admission = store or ct
        if arrive is not None:
            if drop is not None:
                latch_end: int | None = drop.cycle
            elif admission is not None:
                latch_end = admission.cycle
            else:
                latch_end = None
            iv = clipped(arrive.cycle, latch_end)
            if iv is not None:
                spans.append(Span(uid, "latch", iv[0], iv[1],
                                  src=arrive.src, dst=arrive.dst))
        for wave, stage in ((store, "store_wave"), (ct, "cut_through"),
                            (read, "read_wave")):
            if wave is None:
                continue
            iv = clipped(wave.cycle, wave.cycle + wave_len)
            if iv is not None:
                spans.append(Span(uid, stage, iv[0], iv[1],
                                  src=wave.src, dst=wave.dst))
        if store is not None:
            iv = clipped(store.cycle,
                         read.cycle if read is not None else None)
            if iv is not None:
                spans.append(Span(uid, "resident", iv[0], iv[1],
                                  src=store.src, dst=store.dst))
        if depart is not None:
            head = depart.aux if depart.aux >= 0 else depart.cycle
            iv = clipped(head, depart.cycle + 1)
            if iv is not None:
                spans.append(Span(uid, "link", iv[0], iv[1],
                                  src=depart.src, dst=depart.dst))
        if drop is not None:
            iv = clipped(drop.cycle, drop.cycle + 1)
            if iv is not None:
                spans.append(Span(uid, "drop", iv[0], iv[1], src=drop.src,
                                  dst=drop.dst, cause=drop.cause))

    spans.sort(key=lambda s: (s.uid, s.start, _STAGE_ORDER[s.stage]))
    return spans


def spans_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per line, in the canonical span order."""
    return "".join(
        json.dumps(s.as_dict(), separators=(",", ":")) + "\n" for s in spans
    )


def write_spans_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w") as fh:
        fh.write(spans_jsonl(spans))


def chrome_trace_from_spans(spans: Iterable[Span]) -> dict:
    """Chrome/Perfetto trace: one thread per sampled packet, one slice per
    stage.  Complements the bank-centric view from
    :func:`repro.telemetry.export.chrome_trace_from_events` — same file
    format, different pivot (packets instead of memory banks)."""
    spans = list(spans)
    trace: list[dict] = [
        {"ph": "M", "pid": PID_PACKETS, "tid": 0, "name": "process_name",
         "args": {"name": "sampled packets (lifecycle spans)"}},
        {"ph": "M", "pid": PID_PACKETS, "tid": 0, "name": "process_sort_index",
         "args": {"sort_index": 3}},
    ]
    for uid in sorted({s.uid for s in spans}):
        trace.append({"ph": "M", "pid": PID_PACKETS, "tid": uid,
                      "name": "thread_name", "args": {"name": f"p{uid}"}})
    for s in spans:
        if s.stage == "drop":
            trace.append({
                "ph": "i", "pid": PID_PACKETS, "tid": s.uid, "ts": s.start,
                "s": "t", "name": f"drop p{s.uid} ({s.cause})", "cat": "drop",
                "args": {"uid": s.uid, "cause": s.cause, "dst": s.dst},
            })
            continue
        trace.append({
            "ph": "X", "pid": PID_PACKETS, "tid": s.uid, "ts": s.start,
            "dur": s.end - s.start, "name": s.stage, "cat": "span",
            "args": {"uid": s.uid, "src": s.src, "dst": s.dst},
        })
    trace.sort(key=lambda ev: (ev["ph"] != "M", ev.get("ts", 0),
                               ev["pid"], ev["tid"]))
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.spans", "time_unit": "cycles"},
    }
