"""Exporters: JSONL event streams, Prometheus text metrics, Chrome traces.

The Chrome-trace (Perfetto-loadable) view renders the pipelined memory the
way paper figure 5 draws it: one track per memory bank, each wave a
diagonal staircase of one-cycle slices marching across the banks.  A
correct switch therefore shows at most one slice starting per cycle on the
``M0`` track (one wave initiation per cycle) and never two slices
overlapping on any bank track (single-ported banks) —
:func:`validate_chrome_trace` checks both, so loading the file in
https://ui.perfetto.dev is visual confirmation of properties the test
suite asserts mechanically.

Trace JSON structure (the subset of the Trace Event Format we emit):

* ``M`` metadata events naming the processes (``inputs`` / ``banks`` /
  ``links``) and their threads (ports and banks);
* ``X`` complete events: 1-cycle bank slices per wave, input-latch
  residency slices per packet, head-to-tail link slices per departure;
* ``i`` instant events marking drops on the input track.

``ts``/``dur`` are in cycles (the Trace Event Format nominally uses
microseconds; 1 cycle = 1 µs makes Perfetto's timeline read in cycles).
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.telemetry.events import (
    ARRIVE,
    CUT_THROUGH,
    DEPART,
    DROP,
    READ_WAVE,
    STORE_WAVE,
    WAVE_KINDS,
    Event,
    EventLog,
)
from repro.telemetry.metrics import HistogramMetric, MetricsRegistry, full_name

PID_INPUTS, PID_BANKS, PID_LINKS = 0, 1, 2

_WAVE_NAMES = {STORE_WAVE: "WR", CUT_THROUGH: "CT", READ_WAVE: "RD"}


# -- JSONL events -----------------------------------------------------------
def events_jsonl(log: EventLog) -> str:
    """One compact JSON object per line, in canonical event order."""
    return "".join(
        json.dumps(e.as_dict(), separators=(",", ":")) + "\n"
        for e in log.sorted_events()
    )


def write_events_jsonl(log: EventLog, path) -> None:
    with open(path, "w") as fh:
        fh.write(events_jsonl(log))


# -- Prometheus text metrics ------------------------------------------------
def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline only (quotes stay literal).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (the 0.0.4 subset we need).

    Registry iteration is sorted by (name, labels), so each metric family
    is contiguous; ``# HELP`` (when registered via ``describe``) and
    ``# TYPE`` are emitted exactly once, ahead of the family's samples.
    """
    lines: list[str] = []
    seen_families: set[str] = set()
    help_for = getattr(registry, "help_for", lambda name: None)
    for m in registry:
        if m.name not in seen_families:
            seen_families.add(m.name)
            help_text = help_for(m.name)
            if help_text:
                lines.append(f"# HELP {m.name} {_escape_help(help_text)}")
            if isinstance(m, HistogramMetric):
                kind = "histogram"
            else:
                kind = "counter" if m.name.endswith("_total") else "gauge"
            lines.append(f"# TYPE {m.name} {kind}")
        if isinstance(m, HistogramMetric):
            for le, cum in m.hist.cumulative():
                le_txt = "+Inf" if math.isinf(le) else f"{le:g}"
                labels = m.labels + (("le", le_txt),)
                lines.append(f"{full_name(m.name + '_bucket', labels)} {cum}")
            lines.append(f"{full_name(m.name + '_sum', m.labels)} {m.hist.sum:g}")
            lines.append(f"{full_name(m.name + '_count', m.labels)} {m.hist.total}")
        else:
            value = m.value
            txt = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{full_name(m.name, m.labels)} {txt}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_text(registry: MetricsRegistry, path) -> None:
    with open(path, "w") as fh:
        fh.write(render_prometheus(registry))


# -- Chrome trace -----------------------------------------------------------
def _meta(pid: int, name: str, sort: int) -> list[dict]:
    return [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": name}},
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_sort_index",
         "args": {"sort_index": sort}},
    ]


def _thread_meta(pid: int, tid: int, name: str) -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def chrome_trace_from_events(
    events: Iterable[Event], *, depth: int, quanta: int = 1, n: int = 0,
    horizon: int | None = None, link_pipeline_stages: int = 0,
) -> dict:
    """Build a Chrome-trace dict from lifecycle events, in closed form.

    A wave admitted at cycle ``t0`` occupies bank ``k`` of quantum ``q`` at
    exactly ``t0 + q*depth + k`` — the figure-5 law — so bank slices need
    only the admission events.  ``horizon`` clips slices the simulation
    never reached (waves still in flight when the run stopped).

    Works identically for the checked and the batch kernel: neither needs to
    have simulated words for the view to be exact.
    """
    events = list(events)
    trace: list[dict] = []
    max_port = max((max(e.src, e.dst) for e in events), default=-1)
    n = max(n, max_port + 1)

    trace += _meta(PID_INPUTS, "inputs (latch residency)", 0)
    trace += _meta(PID_BANKS, "banks (wave pipeline)", 1)
    trace += _meta(PID_LINKS, "output links", 2)
    for i in range(n):
        trace.append(_thread_meta(PID_INPUTS, i, f"in{i}"))
        trace.append(_thread_meta(PID_LINKS, i, f"out{i}"))
    for k in range(depth):
        trace.append(_thread_meta(PID_BANKS, k, f"M{k}"))

    arrivals: dict[int, Event] = {}
    for e in events:
        if e.kind == ARRIVE:
            arrivals[e.uid] = e

    def clip(ts: int) -> bool:
        return horizon is not None and ts >= horizon

    for e in events:
        if e.kind in WAVE_KINDS:
            name = f"{_WAVE_NAMES[e.kind]} p{e.uid}"
            for q in range(quanta):
                for k in range(depth):
                    ts = e.cycle + q * depth + k
                    if clip(ts):
                        continue
                    trace.append({
                        "ph": "X", "pid": PID_BANKS, "tid": k, "ts": ts,
                        "dur": 1, "name": name, "cat": "wave",
                        "args": {"uid": e.uid, "kind": e.kind, "quantum": q,
                                 "src": e.src, "dst": e.dst},
                    })
            # Latch residency: head arrival to store-wave admission.
            arr = arrivals.get(e.uid)
            if arr is not None and e.kind in (STORE_WAVE, CUT_THROUGH):
                trace.append({
                    "ph": "X", "pid": PID_INPUTS, "tid": arr.src,
                    "ts": arr.cycle, "dur": max(e.cycle - arr.cycle, 1),
                    "name": f"p{e.uid} -> out{e.dst}", "cat": "latch",
                    "args": {"uid": e.uid, "dst": e.dst},
                })
        elif e.kind == DEPART:
            head = e.aux if e.aux >= 0 else e.cycle
            trace.append({
                "ph": "X", "pid": PID_LINKS, "tid": e.dst, "ts": head,
                "dur": e.cycle - head + 1, "name": f"p{e.uid}", "cat": "link",
                "args": {"uid": e.uid, "src": e.src, "head": head,
                         "tail": e.cycle},
            })
        elif e.kind == DROP:
            trace.append({
                "ph": "i", "pid": PID_INPUTS, "tid": e.src, "ts": e.cycle,
                "s": "t", "name": f"drop p{e.uid} ({e.cause})", "cat": "drop",
                "args": {"uid": e.uid, "cause": e.cause, "dst": e.dst},
            })

    trace.sort(key=lambda ev: (ev["ph"] != "M", ev.get("ts", 0),
                               ev["pid"], ev["tid"]))
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry",
            "depth": depth, "quanta": quanta, "n": n,
            "link_pipeline_stages": link_pipeline_stages,
            "time_unit": "cycles",
        },
    }


def chrome_trace_from_tracer(tracer) -> dict:
    """Chrome trace from a :class:`~repro.core.tracing.WaveTracer` record.

    Unlike :func:`chrome_trace_from_events` this reads the *actual* per-cycle
    stage occupancy the checked model executed — the two must agree exactly
    (tests compare them; that comparison is the figure-5 law again).
    """
    from repro.core.control import WaveOp

    sw = tracer.switch
    cfg = sw.config
    tags = {WaveOp.WRITE: "WR", WaveOp.READ: "RD", WaveOp.WRITE_CT: "CT"}
    kinds = {WaveOp.WRITE: STORE_WAVE, WaveOp.READ: READ_WAVE,
             WaveOp.WRITE_CT: CUT_THROUGH}
    trace: list[dict] = []
    trace += _meta(PID_BANKS, "banks (wave pipeline)", 1)
    for k in range(cfg.depth):
        trace.append(_thread_meta(PID_BANKS, k, f"M{k}"))
    for rec in tracer.records:
        for k, cw in enumerate(rec.stages):
            if cw is None:
                continue
            trace.append({
                "ph": "X", "pid": PID_BANKS, "tid": k, "ts": rec.cycle,
                "dur": 1, "name": f"{tags[cw.op]} p{cw.packet_uid}",
                "cat": "wave",
                "args": {"uid": cw.packet_uid, "kind": kinds[cw.op],
                         "quantum": cw.quantum, "addr": cw.addr},
            })
    trace.sort(key=lambda ev: (ev["ph"] != "M", ev.get("ts", 0),
                               ev["pid"], ev["tid"]))
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.core.tracing.WaveTracer",
                      "depth": cfg.depth, "quanta": cfg.quanta, "n": cfg.n,
                      "time_unit": "cycles"},
    }


def validate_chrome_trace(obj: dict) -> None:
    """Structural + semantic validation; raises ``ValueError`` on failure.

    Structural: the Trace Event Format subset we emit (every event has
    ``ph``/``pid``/``tid``/``name``; complete events carry integer ``ts``
    and ``dur >= 1``).  Semantic: on the bank tracks, no two slices overlap
    (single-ported banks) and at most one slice *starts* per cycle on bank
    ``M0`` (one wave initiation per cycle — the paper's §3.3 budget).
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    bank_busy: set[tuple[int, int]] = set()  # (tid, cycle)
    m0_starts: set[int] = set()
    for idx, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {idx} is not an object")
        for req in ("ph", "pid", "tid", "name"):
            if req not in ev:
                raise ValueError(f"event {idx} missing required key {req!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), int) or ev["ts"] < 0:
            raise ValueError(f"event {idx}: bad ts {ev.get('ts')!r}")
        if ph == "X":
            if not isinstance(ev.get("dur"), int) or ev["dur"] < 1:
                raise ValueError(f"event {idx}: bad dur {ev.get('dur')!r}")
            if ev["pid"] == PID_BANKS:
                tid, ts = ev["tid"], ev["ts"]
                for c in range(ts, ts + ev["dur"]):
                    if (tid, c) in bank_busy:
                        raise ValueError(
                            f"bank M{tid} double-booked at cycle {c} — "
                            f"single-ported bank conflict in the trace"
                        )
                    bank_busy.add((tid, c))
                if tid == 0:
                    if ts in m0_starts:
                        raise ValueError(
                            f"two waves initiated at cycle {ts} — violates "
                            f"the one-initiation-per-cycle budget"
                        )
                    m0_starts.add(ts)
        elif ph != "i":
            raise ValueError(f"event {idx}: unexpected phase {ph!r}")


def write_chrome_trace(trace: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
