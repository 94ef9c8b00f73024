"""Versioned checkpoint/restore for the pipelined-switch kernels.

Simics-style snapshotting (see ROADMAP): the *complete* simulation state —
switch datapath (banks, latches, arbiter/control pipeline, in-flight
quanta chains), packet-source RNG streams and tape positions, telemetry
registry/event-log/sample cursors, sanitizer evidence, and the global
packet-id counter — is serialized to one JSON document, and restoring it
yields a switch for which

    run(N)  ==  checkpoint at k; restore; run(N - k)

**bit for bit**: every statistic, Welford accumulator, latency histogram,
drop-taxonomy entry and telemetry event is identical, whether the restore
happens in the same process or a fresh one (`tests/checkpoint/` pins this
with a hypothesis property test across all three kernels).

Design rules:

* **Snapshots happen at ``run()``/``drain()`` boundaries only.**  The
  checked and fast kernels are well-defined between any two ticks; the
  batch kernel additionally requires its window logs to be flushed, which
  ``run()`` guarantees.  Mid-tick state is never serialized.
* **Refuse loudly, never approximate** (the ``FastPathUnsupportedError``
  discipline): a source type without a codec, a non-PCG64 generator, a
  switch mid-``drain`` — each raises :class:`CheckpointUnsupportedError`
  instead of producing a snapshot that would resume *almost* identically.
* **Floats travel as C99 hex literals** (``float.hex`` round-trips every
  value including ``inf``/``nan`` exactly), so order-sensitive Welford
  accumulators survive the JSON round trip bit for bit.
* **Payloads are derived, not stored**: every word-level payload is
  ``deterministic_payload(uid, ...)`` by construction, so snapshots store
  uids and re-derive payloads on restore (verified at save time).

The document layout is versioned (:data:`SNAPSHOT_FORMAT`,
:data:`SNAPSHOT_VERSION`); loaders reject unknown formats/versions rather
than guessing.  See ARCHITECTURE.md §15 for the on-disk schema and the
per-kernel support matrix.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.arbiter import Priority, WriteRequest
from repro.core.buffer_manager import PacketRecord
from repro.core.control import ControlWord, WaveOp
from repro.core.errors import ConfigError
from repro.core.fastpath import FastPipelinedSwitch
from repro.core.sources import (
    BatchRenewalSource,
    PacketSource,
    RenewalPacketSource,
    SaturatingSource,
    TracePacketSource,
    deterministic_payload,
)
from repro.core.switch import PipelinedSwitch, PipelinedSwitchConfig
from repro.drc.sanitizer import Sanitizer, SanitizerError
from repro.fileio import write_atomic
from repro.sim.packet import Packet, Word, packet_id_state, set_packet_id_state
from repro.sim.stats import Counter, Histogram, SwitchStats
from repro.telemetry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    Telemetry,
)

SNAPSHOT_FORMAT = "repro-checkpoint"
#: Version 2 added the admission-policy spec to the config codec, the
#: ``policy_drops`` counter to the collectors block, and the policy
#: runtime-state document.  Version 1 documents predate pluggable
#: admission and are still read: they can only have been produced under
#: complete sharing, so defaulting the missing fields is exact, not a
#: guess.
SNAPSHOT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


class CheckpointError(ConfigError):
    """A snapshot could not be taken or restored (bad state, bad document)."""


class CheckpointUnsupportedError(CheckpointError):
    """This object is outside the checkpoint subsystem's support matrix;
    refused rather than approximated (the ``FastPathUnsupportedError``
    discipline applied to serialization)."""


# ---------------------------------------------------------------------------
# scalar codecs
# ---------------------------------------------------------------------------

def _ff(x: float) -> str:
    """Float -> exact hex literal (``inf``/``nan`` round-trip natively)."""
    return float(x).hex()


def _df(s: str) -> float:
    return float.fromhex(s)


def _counter_doc(c: Counter) -> list:
    return [c.count, _ff(c._mean), _ff(c._m2), _ff(c.minimum), _ff(c.maximum)]


def _counter_from(doc: list, c: Counter) -> None:
    c.count = doc[0]
    c._mean = _df(doc[1])
    c._m2 = _df(doc[2])
    c.minimum = _df(doc[3])
    c.maximum = _df(doc[4])


def _hist_doc(h: Histogram, sort: bool = False) -> dict:
    items = sorted(h.counts.items()) if sort else h.counts.items()
    return {"counts": [[k, v] for k, v in items], "total": h.total}


def _hist_from(doc: dict, h: Histogram) -> None:
    h.counts = {int(k): int(v) for k, v in doc["counts"]}
    h.total = doc["total"]


def _stats_doc(s: SwitchStats, sort_hists: bool = False) -> dict:
    return {
        "n_outputs": s.n_outputs,
        "warmup": s.warmup,
        "offered": s.offered,
        "accepted": s.accepted,
        "dropped": s.dropped,
        "delivered": s.delivered,
        "delay": _counter_doc(s.delay),
        "delay_hist": _hist_doc(s.delay_hist, sort=sort_hists),
        "per_output_delivered": list(s.per_output_delivered),
        "horizon": s.horizon,
    }


def _stats_from(doc: dict, s: SwitchStats) -> None:
    s.warmup = doc["warmup"]
    s.offered = doc["offered"]
    s.accepted = doc["accepted"]
    s.dropped = doc["dropped"]
    s.delivered = doc["delivered"]
    _counter_from(doc["delay"], s.delay)
    _hist_from(doc["delay_hist"], s.delay_hist)
    s.per_output_delivered = [int(x) for x in doc["per_output_delivered"]]
    s.horizon = doc["horizon"]


def _plain(x: Any) -> Any:
    """Recursively turn numpy integers into JSON-safe Python ints."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    return x


def _rng_doc(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    if state.get("bit_generator") != "PCG64":
        raise CheckpointUnsupportedError(
            f"only PCG64 generators (numpy default_rng) are snapshot-safe, "
            f"got {state.get('bit_generator')!r}"
        )
    return _plain(state)


def _rng_from(doc: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = doc
    return rng


# ---------------------------------------------------------------------------
# word / packet / control-word codecs
# ---------------------------------------------------------------------------

def _word_doc(w: Word) -> list:
    return [w.packet_uid, w.index, w.payload]


def _word_from(doc: list) -> Word:
    return Word(doc[0], doc[1], doc[2])


def _cw_doc(w: ControlWord) -> list:
    return [w.op.value, w.addr, w.in_link, w.out_link, w.packet_uid, w.quantum]


def _cw_from(doc: list) -> ControlWord:
    op, addr, in_link, out_link, uid, quantum = doc
    return ControlWord(WaveOp(op), addr, in_link=in_link, out_link=out_link,
                       packet_uid=uid, quantum=quantum)


def _packet_doc(p: Packet, cfg: PipelinedSwitchConfig) -> list:
    expected = deterministic_payload(p.uid, cfg.packet_words, cfg.width_bits)
    if tuple(p.payload) != expected:
        raise CheckpointError(
            f"packet {p.uid} carries a non-deterministic payload; snapshots "
            f"store uids and re-derive payloads, so this state cannot be "
            f"serialized exactly"
        )
    return [p.src, p.dst, p.arrival_cycle, p.depart_first_cycle,
            p.depart_last_cycle, p.uid]


def _packet_from(doc: list, cfg: PipelinedSwitchConfig) -> Packet:
    src, dst, arrival, first, last, uid = doc
    return Packet(
        src=src, dst=dst,
        payload=deterministic_payload(uid, cfg.packet_words, cfg.width_bits),
        arrival_cycle=arrival, depart_first_cycle=first,
        depart_last_cycle=last, uid=uid,
    )


# ---------------------------------------------------------------------------
# config codec
# ---------------------------------------------------------------------------

def _config_doc(cfg: PipelinedSwitchConfig) -> dict:
    return {
        "n": cfg.n,
        "addresses": cfg.addresses,
        "width_bits": cfg.width_bits,
        "depth": cfg.depth,
        "quanta": cfg.quanta,
        "priority": cfg.priority.value,
        "cut_through": cfg.cut_through,
        "credit_flow": cfg.credit_flow,
        "credits_per_input": cfg.credits_per_input,
        "downstream_credits": cfg.downstream_credits,
        "downstream_rtt": cfg.downstream_rtt,
        "link_pipeline_stages": cfg.link_pipeline_stages,
        "policy": cfg.policy.spec,
    }


def _config_from(doc: dict) -> PipelinedSwitchConfig:
    return PipelinedSwitchConfig(
        n=doc["n"],
        addresses=doc["addresses"],
        width_bits=doc["width_bits"],
        depth=doc["depth"],
        quanta=doc["quanta"],
        priority=Priority(doc["priority"]),
        cut_through=doc["cut_through"],
        credit_flow=doc["credit_flow"],
        credits_per_input=doc["credits_per_input"],
        downstream_credits=doc["downstream_credits"],
        downstream_rtt=doc["downstream_rtt"],
        link_pipeline_stages=doc["link_pipeline_stages"],
        policy=doc.get("policy", "complete"),  # absent in version-1 docs
    )


# ---------------------------------------------------------------------------
# source codecs (type-tagged)
# ---------------------------------------------------------------------------

def _source_doc(src: PacketSource) -> dict:
    base = {"n_out": src.n_out, "packet_words": src.packet_words,
            "width_bits": src.width_bits}
    t = type(src)
    if t is RenewalPacketSource:
        base.update(type="renewal", load=_ff(src.load), rng=_rng_doc(src.rng))
        return base
    if t is BatchRenewalSource:
        base.update(
            type="renewal_tape",
            load=_ff(src.load),
            u_rng=[_rng_doc(g) for g in src._u_rng],
            d_rng=[_rng_doc(g) for g in src._d_rng],
            tape_cycle=[a.tolist() for a in src._tape_cycle],
            tape_dst=[a.tolist() for a in src._tape_dst],
            next_draw=list(src._next_draw),
        )
        return base
    if t is SaturatingSource:
        base.update(
            type="saturating",
            dests=list(src.dests) if src.dests is not None else None,
            rng=_rng_doc(src.rng),
        )
        return base
    if t is TracePacketSource:
        base.update(
            type="trace",
            schedule=[[link, [[c, d] for c, d in items]]
                      for link, items in sorted(src.schedule.items())],
            next_idx=[[link, src._next_idx[link]]
                      for link in sorted(src._next_idx)],
        )
        return base
    raise CheckpointUnsupportedError(
        f"{t.__name__} has no snapshot codec; checkpointable sources are "
        f"RenewalPacketSource, BatchRenewalSource, SaturatingSource and "
        f"TracePacketSource"
    )


def _source_from(doc: dict) -> PacketSource:
    kind = doc["type"]
    n_out = doc["n_out"]
    packet_words = doc["packet_words"]
    width_bits = doc["width_bits"]
    if kind == "renewal":
        src = RenewalPacketSource(n_out, packet_words, load=_df(doc["load"]),
                                  width_bits=width_bits, seed=0)
        src.rng = _rng_from(doc["rng"])
        return src
    if kind == "renewal_tape":
        tape = BatchRenewalSource(n_out, packet_words, load=_df(doc["load"]),
                                  width_bits=width_bits, seed=0)
        tape._u_rng = [_rng_from(d) for d in doc["u_rng"]]
        tape._d_rng = [_rng_from(d) for d in doc["d_rng"]]
        tape._tape_cycle = [np.array(a, dtype=np.int64)
                            for a in doc["tape_cycle"]]
        tape._tape_dst = [np.array(a, dtype=np.int64) for a in doc["tape_dst"]]
        tape._next_draw = [int(x) for x in doc["next_draw"]]
        return tape
    if kind == "saturating":
        src = SaturatingSource(
            n_out, packet_words,
            dests=list(doc["dests"]) if doc["dests"] is not None else None,
            width_bits=width_bits, seed=0,
        )
        src.rng = _rng_from(doc["rng"])
        return src
    if kind == "trace":
        schedule = {int(link): [(int(c), int(d)) for c, d in items]
                    for link, items in doc["schedule"]}
        src = TracePacketSource(n_out, packet_words, schedule,
                                width_bits=width_bits)
        src._next_idx = {int(link): int(idx) for link, idx in doc["next_idx"]}
        return src
    raise CheckpointError(f"unknown source type {kind!r} in snapshot")


# ---------------------------------------------------------------------------
# telemetry codec
# ---------------------------------------------------------------------------

def _telemetry_doc(tel: Telemetry | None) -> dict | None:
    if tel is None or not tel.enabled:
        return None
    if not (tel.metrics.enabled and tel.events.enabled):
        raise CheckpointUnsupportedError(
            "telemetry bundles mixing live and null channels cannot be "
            "snapshotted; use Telemetry.on() (all channels live) or "
            "Telemetry.off()"
        )
    metrics: list = []
    for m in tel.metrics:  # registry iteration is (name, labels)-sorted
        labels = [[k, v] for k, v in m.labels]
        if isinstance(m, CounterMetric):
            metrics.append([m.name, labels, "counter", m.value])
        elif isinstance(m, GaugeMetric):
            metrics.append([m.name, labels, "gauge",
                            [_ff(m.value), _ff(m.minimum), _ff(m.maximum)]])
        elif isinstance(m, HistogramMetric):
            h = m.hist
            metrics.append([m.name, labels, "histogram", {
                "edges": [_ff(e) for e in h.edges],
                "counts": list(h.counts),
                "total": h.total,
                "sum": _ff(h.sum),
                "min": _ff(h.minimum),
                "max": _ff(h.maximum),
            }])
        else:
            raise CheckpointUnsupportedError(
                f"unknown metric type {type(m).__name__} in registry"
            )
    doc: dict = {
        "sample_interval": tel.sample_interval,
        "samples": [[c, occ] for c, occ in tel.samples],
        "events": [[e.cycle, e.kind, e.uid, e.src, e.dst, e.cause, e.aux]
                   for e in tel.events.events],
        "metrics": metrics,
    }
    from repro.obs.sampling import SampledEventLog
    if isinstance(tel.events, SampledEventLog):
        doc["events_sampling"] = {"rate": _ff(tel.events.rate),
                                  "seed": tel.events.seed}
    if tel.series is not None:
        state = tel.series.state()
        # Wall stamps round-trip (so a restored ring exports the same rows)
        # but are stripped from fingerprint_doc — they are not state.
        state["walls"] = [_ff(w) for w in state["walls"]]
        doc["series"] = state
    return doc


def _telemetry_from(doc: dict | None) -> Telemetry | None:
    if doc is None:
        return None
    from repro.obs.sampling import SampledEventLog
    from repro.obs.series import SeriesRing
    events = None
    sampling = doc.get("events_sampling")
    if sampling is not None:
        events = SampledEventLog(_df(sampling["rate"]), int(sampling["seed"]))
    series = None
    series_doc = doc.get("series")
    if series_doc is not None:
        series = SeriesRing.from_state(
            {**series_doc, "walls": [_df(w) for w in series_doc["walls"]]}
        )
    tel = Telemetry.on(doc["sample_interval"], events=events, series=series)
    tel.samples = [(int(c), int(occ)) for c, occ in doc["samples"]]
    emit = tel.events.emit
    for cycle, kind, uid, src, dst, cause, aux in doc["events"]:
        emit(cycle, kind, uid, src=src, dst=dst, cause=cause, aux=aux)
    registry = tel.metrics
    for name, labels, mtype, state in doc["metrics"]:
        lab = {k: v for k, v in labels}
        if mtype == "counter":
            registry.counter(name, **lab).value = int(state)
        elif mtype == "gauge":
            g = registry.gauge(name, **lab)
            g.value = _df(state[0])
            g.minimum = _df(state[1])
            g.maximum = _df(state[2])
        elif mtype == "histogram":
            edges = tuple(_df(e) for e in state["edges"])
            hm = registry.histogram(name, edges=edges, **lab)
            hm.hist.counts = [int(c) for c in state["counts"]]
            hm.hist.total = state["total"]
            hm.hist.sum = _df(state["sum"])
            hm.hist.minimum = _df(state["min"])
            hm.hist.maximum = _df(state["max"])
        else:
            raise CheckpointError(f"unknown metric type {mtype!r} in snapshot")
    return tel


# ---------------------------------------------------------------------------
# sanitizer codec
# ---------------------------------------------------------------------------

def _sanitizer_doc(san: Sanitizer | None) -> dict | None:
    if san is None or not san.enabled:
        return None
    return {
        "halt": san.halt,
        "cycles_checked": san.cycles_checked,
        "injected": san.injected,
        "delivered": san.delivered,
        "dropped": san.dropped,
        "violations": [[v.code, v.cycle, v._message, v.context]
                       for v in san.violations],
        "bank_cycle": san._bank_cycle,
        "bank_uses": [[b, u] for b, u in sorted(san._bank_uses.items())],
        "init_cycle": san._init_cycle,
        "init_uid": san._init_uid,
        "addr_of": [[uid, [[q, a] for q, a in sorted(quanta.items())]]
                    for uid, quanta in sorted(san._addr_of.items())],
    }


def _sanitizer_from(doc: dict | None, tel: Telemetry | None) -> Sanitizer | None:
    if doc is None:
        return None
    san = Sanitizer(telemetry=tel, halt=doc["halt"])
    san.cycles_checked = doc["cycles_checked"]
    san.injected = doc["injected"]
    san.delivered = doc["delivered"]
    san.dropped = doc["dropped"]
    san.violations = [SanitizerError(code, cycle, message, **context)
                      for code, cycle, message, context in doc["violations"]]
    san._bank_cycle = doc["bank_cycle"]
    san._bank_uses = {int(b): int(u) for b, u in doc["bank_uses"]}
    san._init_cycle = doc["init_cycle"]
    san._init_uid = doc["init_uid"]
    san._addr_of = {
        int(uid): {int(q): int(a) for q, a in quanta}
        for uid, quanta in doc["addr_of"]
    }
    return san


# ---------------------------------------------------------------------------
# shared statistics block (identical collectors on all three kernels)
# ---------------------------------------------------------------------------

def _collectors_doc(sw: Any, sort_hists: bool = False) -> dict:
    return {
        "stats": _stats_doc(sw.stats, sort_hists=sort_hists),
        "ct_latency": _counter_doc(sw.ct_latency),
        "ct_latency_hist": _hist_doc(sw.ct_latency_hist, sort=sort_hists),
        "total_latency": _counter_doc(sw.total_latency),
        "stagger_extra": _counter_doc(sw.stagger_extra),
        "waves": [sw.cut_through_waves, sw.plain_read_waves, sw.write_waves,
                  sw.idle_cycles, sw.deadline_overrides, sw.overrun_drops,
                  sw.policy_drops],
        "unobstructed": sorted(sw._unobstructed),
    }


def _collectors_from(doc: dict, sw: Any) -> None:
    _stats_from(doc["stats"], sw.stats)
    _counter_from(doc["ct_latency"], sw.ct_latency)
    _hist_from(doc["ct_latency_hist"], sw.ct_latency_hist)
    _counter_from(doc["total_latency"], sw.total_latency)
    _counter_from(doc["stagger_extra"], sw.stagger_extra)
    waves = doc["waves"]
    (sw.cut_through_waves, sw.plain_read_waves, sw.write_waves,
     sw.idle_cycles, sw.deadline_overrides, sw.overrun_drops) = waves[:6]
    # Version-1 documents predate policy drops (always complete sharing).
    sw.policy_drops = waves[6] if len(waves) > 6 else 0
    sw._unobstructed = set(doc["unobstructed"])


# ---------------------------------------------------------------------------
# checked kernel
# ---------------------------------------------------------------------------

def _snap_checked(sw: PipelinedSwitch) -> dict:
    cfg = sw.config
    if type(sw.source).__name__ == "_MuteSource":
        raise CheckpointError(
            "cannot snapshot mid-drain (the source is muted); checkpoint at "
            "a run()/drain() boundary"
        )
    if any(x is not None for x in sw.out_row._next):
        raise CheckpointError(
            "output register row holds uncommitted state; snapshots are only "
            "defined at run() boundaries"
        )
    records: dict[int, PacketRecord] = {}
    for addr in sorted(sw.buffer._by_addr):
        rec = sw.buffer._by_addr[addr]
        records.setdefault(rec.uid, rec)
    body = {
        "banks": [{
            "cells": [[a, w.packet_uid, w.index, w.payload]
                      for a, w in enumerate(bank._cells) if w is not None],
            "last_access": bank._last_access_cycle,
            "reads": bank.reads,
            "writes": bank.writes,
        } for bank in sw.banks],
        "in_latches": [{
            "words": [[k, _word_doc(w)]
                      for k, w in enumerate(row._words) if w is not None],
            "live": [k for k, c in enumerate(row._consumed) if not c],
        } for row in sw.in_latches],
        "out_row": [[k, _word_doc(sw.out_row._words[k]), sw.out_row._links[k]]
                    for k in range(cfg.depth)
                    if sw.out_row._words[k] is not None],
        "control": [_cw_doc(w) if w is not None else None
                    for w in sw.control._stages],
        "arbiter": [sw.arbiter._out_rr, sw.arbiter._in_rr],
        "buffer": {
            "records": [[r.uid, r.src, r.dst, list(r.addrs), r.arrival_cycle,
                         r.write_init_cycle, r.read_init_cycle]
                        for r in (records[u] for u in sorted(records))],
            "free": list(sw.buffer._free),
            "queues": [[rec.uid for rec in q] for q in sw.buffer.queues],
            "peak": sw.buffer.peak_occupancy,
        },
        "departing": sorted(sw._departing),
        "chain": [[c, _cw_doc(w)] for c, w in sorted(sw._chain.items())],
        "sent": [_packet_doc(p, cfg)
                 for _, p in sorted(sw._sent.items())],
        "wire_pipe": [[due, k, _word_doc(w), link]
                      for due, k, w, link in sw._wire_pipe],
        "inputs": [{
            "incoming": (_packet_doc(st.incoming, cfg)
                         if st.incoming is not None else None),
            "next_word": st.next_word,
            "pending": ([st.pending.in_link, st.pending.dst, st.pending.uid,
                         st.pending.arrival_cycle]
                        if st.pending is not None else None),
            "discard": st.discard_current,
            "credits": st.credits,
        } for st in sw._inputs],
        "sinks": [{
            "uid": sink._uid,
            "words": list(sink._words),
            "last_cycle": sink._last_cycle,
            "head_cycle": sink._head_cycle,
        } for sink in sw.sinks],
        "next_wave_ok": list(sw.next_wave_ok),
        "out_credits": list(sw._out_credits),
        "credit_returns": [list(x) for x in sw._credit_returns],
        "trace_ended_at": sw.trace_ended_at,
    }
    body.update(_collectors_doc(sw))
    return body


def _restore_checked(
    doc: dict,
    cfg: PipelinedSwitchConfig,
    source: PacketSource,
    telemetry: Telemetry | None,
    sanitizer: Sanitizer | None,
) -> PipelinedSwitch:
    sw = PipelinedSwitch(cfg, source, telemetry=telemetry, sanitizer=sanitizer)
    body = doc["switch"]
    sw.cycle = doc["cycle"]
    for bank, bdoc in zip(sw.banks, body["banks"]):
        for addr, uid, index, payload in bdoc["cells"]:
            bank._cells[addr] = Word(uid, index, payload)
        bank._last_access_cycle = bdoc["last_access"]
        bank.reads = bdoc["reads"]
        bank.writes = bdoc["writes"]
    for row, rdoc in zip(sw.in_latches, body["in_latches"]):
        for k, wdoc in rdoc["words"]:
            row._words[k] = _word_from(wdoc)
        for k in rdoc["live"]:
            row._consumed[k] = False
    for k, wdoc, link in body["out_row"]:
        sw.out_row._words[k] = _word_from(wdoc)
        sw.out_row._links[k] = link
    sw.control._stages = [_cw_from(w) if w is not None else None
                          for w in body["control"]]
    sw.arbiter._out_rr, sw.arbiter._in_rr = body["arbiter"]
    # Buffer records must keep their identity aliasing: one PacketRecord
    # object per uid, shared by _by_addr, the queues and _departing
    # (release() checks ``_by_addr[a] is rec``).
    by_uid: dict[int, PacketRecord] = {}
    buf = sw.buffer
    buf._by_addr = {}
    for uid, src, dst, addrs, arrival, write_init, read_init in (
            body["buffer"]["records"]):
        rec = PacketRecord(uid=uid, src=src, dst=dst, addrs=list(addrs),
                           arrival_cycle=arrival, write_init_cycle=write_init,
                           read_init_cycle=read_init)
        by_uid[uid] = rec
        for a in rec.addrs:
            buf._by_addr[a] = rec
    buf._free = deque(body["buffer"]["free"])
    buf.queues = [deque(by_uid[u] for u in q)
                  for q in body["buffer"]["queues"]]
    buf.peak_occupancy = body["buffer"]["peak"]
    sw._departing = {u: by_uid[u] for u in body["departing"]}
    sw._chain = {c: _cw_from(w) for c, w in body["chain"]}
    sw._sent = {}
    for pdoc in body["sent"]:
        packet = _packet_from(pdoc, cfg)
        sw._sent[packet.uid] = packet
    sw._wire_pipe = [(due, k, _word_from(wdoc), link)
                     for due, k, wdoc, link in body["wire_pipe"]]
    for st, idoc in zip(sw._inputs, body["inputs"]):
        inc = idoc["incoming"]
        if inc is None:
            st.incoming = None
        else:
            # Alias the in-_sent object when present (integrity checks
            # compare the same Packet); a dropped-but-still-streaming
            # packet is absent from _sent and gets a fresh object.
            st.incoming = sw._sent.get(inc[5]) or _packet_from(inc, cfg)
        st.next_word = idoc["next_word"]
        pend = idoc["pending"]
        st.pending = (WriteRequest(in_link=pend[0], dst=pend[1], uid=pend[2],
                                   arrival_cycle=pend[3])
                      if pend is not None else None)
        st.discard_current = idoc["discard"]
        st.credits = idoc["credits"]
    for sink, sdoc in zip(sw.sinks, body["sinks"]):
        sink._uid = sdoc["uid"]
        sink._words = list(sdoc["words"])
        sink._last_cycle = sdoc["last_cycle"]
        sink._head_cycle = sdoc["head_cycle"]
    sw.next_wave_ok = list(body["next_wave_ok"])
    sw._out_credits = list(body["out_credits"])
    sw._credit_returns = [(c, j) for c, j in body["credit_returns"]]
    sw.trace_ended_at = body["trace_ended_at"]
    _collectors_from(body, sw)
    return sw


# ---------------------------------------------------------------------------
# fast (wave-level) kernel
# ---------------------------------------------------------------------------

def _snap_fast(sw: FastPipelinedSwitch) -> dict:
    if sw._muted:
        raise CheckpointError(
            "cannot snapshot mid-drain (the source is muted); checkpoint at "
            "a run()/drain() boundary"
        )
    live: set[int] = set()
    for q in sw._queues:
        live.update(item[0] for item in q)
    live.update(u for u in sw._in_uid if u >= 0)
    live.update(u for u in sw._pend_uid if u >= 0)
    live.update(item[1] for item in sw._stats_due)
    mask = sw._mask
    body = {
        "records": [[u] + [int(x) for x in sw._rec[u & mask]]
                    for u in sorted(live)],
        "next_uid": sw._next_uid,
        "free": sw._free,
        "peak": sw._peak_occ,
        "queues": [[list(item) for item in q] for q in sw._queues],
        "in_uid": list(sw._in_uid),
        "in_next": list(sw._in_next),
        "pend_uid": list(sw._pend_uid),
        "pend_dst": list(sw._pend_dst),
        "pend_arr": list(sw._pend_arr),
        "credits": list(sw._credits),
        "chain": sorted(sw._chain),
        "rr_out": sw._rr_out,
        "rr_in": sw._rr_in,
        "busy_until": sw._busy_until,
        "free_due": list(sw._free_due),
        "credit_due": [list(x) for x in sw._credit_due],
        "stats_due": [list(x) for x in sw._stats_due],
        "next_wave_ok": list(sw.next_wave_ok),
        "out_credits": list(sw._out_credits),
        "credit_returns": [list(x) for x in sw._credit_returns],
        "trace_ended_at": sw.trace_ended_at,
    }
    body.update(_collectors_doc(sw))
    return body


def _restore_fast(
    doc: dict,
    cfg: PipelinedSwitchConfig,
    source: PacketSource,
    telemetry: Telemetry | None,
    sanitizer: Sanitizer | None,
) -> FastPipelinedSwitch:
    sw = FastPipelinedSwitch(cfg, source, telemetry=telemetry,
                             sanitizer=sanitizer)
    body = doc["switch"]
    sw.cycle = doc["cycle"]
    sw._rec[:] = 0
    mask = sw._mask
    for uid, arrival, write_init, src, dst in body["records"]:
        sw._rec[uid & mask] = (arrival, write_init, src, dst)
    sw._next_uid = body["next_uid"]
    sw._free = body["free"]
    sw._peak_occ = body.get("peak", 0)  # absent in version-1 docs
    sw._queues = [deque(tuple(item) for item in q) for q in body["queues"]]
    sw._in_uid = list(body["in_uid"])
    sw._in_next = list(body["in_next"])
    sw._pend_uid = list(body["pend_uid"])
    sw._pend_dst = list(body["pend_dst"])
    sw._pend_arr = list(body["pend_arr"])
    sw._credits = list(body["credits"])
    sw._chain = set(body["chain"])
    sw._rr_out = body["rr_out"]
    sw._rr_in = body["rr_in"]
    sw._busy_until = body["busy_until"]
    sw._free_due = deque(body["free_due"])
    sw._credit_due = deque(tuple(x) for x in body["credit_due"])
    sw._stats_due = deque(tuple(x) for x in body["stats_due"])
    sw.next_wave_ok = list(body["next_wave_ok"])
    sw._out_credits = list(body["out_credits"])
    sw._credit_returns = deque(tuple(x) for x in body["credit_returns"])
    sw.trace_ended_at = body["trace_ended_at"]
    _collectors_from(body, sw)
    return sw


# ---------------------------------------------------------------------------
# batch kernel
# ---------------------------------------------------------------------------

def _snap_batch(sw: Any) -> dict:
    from repro.core.batchpath import _SaturatingTape

    if sw._wave_log or sw._drop_log or sw._arrive_log or sw._sample_log:
        raise CheckpointError(
            "batch kernel holds unflushed window logs; snapshots are only "
            "defined at run()/drain() boundaries"
        )
    body = {
        "batch_cycles": sw.batch_cycles,
        "next_uid": sw._next_uid,
        "free": sw._free,
        "peak": sw._peak_occ,
        "queues": [[list(item) for item in q] for q in sw._queues],
        "pend_uid": list(sw._pend_uid),
        "pend_dst": list(sw._pend_dst),
        "pend_arr": list(sw._pend_arr),
        "credits": list(sw._credits),
        "credit_due": [list(x) for x in sw._credit_due],
        "credit_checks": [list(x) for x in sw._credit_checks],
        "mute_at": list(sw._mute_at),
        "held": [[list(x) for x in h] for h in sw._held],
        "stream_end": list(sw._stream_end),
        "chain": sorted(sw._chain),
        "qchecks": [list(x) for x in sw._qchecks],
        "rr_out": sw._rr_out,
        "rr_in": sw._rr_in,
        "busy_until": sw._busy_until,
        "next_wave_ok": list(sw.next_wave_ok),
        "out_credits": list(sw._out_credits),
        "credit_returns": [list(x) for x in sw._credit_returns],
        "pending_departures": [list(x) for x in sw._pending_departures],
        # (cycle, output) pairs: independent of the in-memory bit encoding
        "due": [[e >> sw._n, (e & ((1 << sw._n) - 1)).bit_length() - 1]
                for e in sw._due],
        "idle_flushed": sw._idle_flushed,
        "deadline_flushed": sw._deadline_flushed,
        "tape_next_poll": (sw._tape._next_poll
                           if isinstance(sw._tape, _SaturatingTape) else None),
    }
    body.update(_collectors_doc(sw))
    return body


def _restore_batch(
    doc: dict,
    cfg: PipelinedSwitchConfig,
    source: PacketSource,
    telemetry: Telemetry | None,
) -> Any:
    from repro.core.batchpath import BatchPipelinedSwitch, _SaturatingTape

    body = doc["switch"]
    if body.get("jit"):
        # Older documents may come from the batch kernel's compiled array
        # core, since removed; its state (the unfired due mask) has no
        # counterpart in the window engine.
        raise CheckpointUnsupportedError(
            "snapshot was taken on the batch kernel's array core "
            "(\"jit\": true), which has been removed; re-run the cell "
            "from the start"
        )
    # Construct with the restored telemetry *before* overwriting state: the
    # constructor resolves metric handles against the restored registry.
    sw = BatchPipelinedSwitch(cfg, source, telemetry=telemetry,
                              sanitizer=None,
                              batch_cycles=body["batch_cycles"])
    sw.cycle = doc["cycle"]
    sw._next_uid = body["next_uid"]
    sw._free = body["free"]
    sw._peak_occ = body.get("peak", 0)  # absent in version-1 docs
    sw._queues = [deque(tuple(item) for item in q) for q in body["queues"]]
    sw._pend_uid = list(body["pend_uid"])
    sw._pend_dst = list(body["pend_dst"])
    # Derived state, never read from the document: the engine that wrote
    # older documents did not always keep it current.
    sw._pend_dbit = [(1 << d) if cfg.cut_through else 0
                     for d in sw._pend_dst]
    sw._pend_arr = list(body["pend_arr"])
    sw._credits = list(body["credits"])
    # Input-credit state; documents from before the batch kernel modelled
    # credit flow carry none, and need none.
    sw._credit_due = deque(tuple(x) for x in body.get("credit_due", []))
    sw._credit_checks = deque(tuple(x)
                              for x in body.get("credit_checks", []))
    sw._mute_at = list(body.get("mute_at", sw._mute_at))
    sw._held = [[(c, d) for c, d in h]
                for h in body.get("held", sw._held)]
    sw._stream_end = list(body["stream_end"])
    sw._chain = set(body["chain"])
    sw._qchecks = [tuple(x) for x in body["qchecks"]]
    sw._rr_out = body["rr_out"]
    sw._rr_in = body["rr_in"]
    sw._busy_until = body["busy_until"]
    sw.next_wave_ok = list(body["next_wave_ok"])
    sw._out_credits = list(body["out_credits"])
    sw._credit_returns = deque(tuple(x) for x in body["credit_returns"])
    sw._pending_departures = deque(tuple(x)
                                   for x in body["pending_departures"])
    if "due" in body:
        due = body["due"]
    else:
        # Older documents come from one of two engines.  One encoded its
        # due events as cycle << 12 | output bit; the other kept only the
        # release cycles, each of which is the next_wave_ok of the output
        # whose wave it releases (one wave starts per cycle).
        due = sorted(
            [(e >> 12, (e & 4095).bit_length() - 1) for e in body["lean_due"]]
            + [(c, sw.next_wave_ok.index(c)) for c in body["free_due"]])
    sw._due = deque(c << cfg.n | 1 << j for c, j in due)
    sw._idle_flushed = body["idle_flushed"]
    sw._deadline_flushed = body["deadline_flushed"]
    if body["tape_next_poll"] is not None:
        if not isinstance(sw._tape, _SaturatingTape):
            raise CheckpointError(
                "snapshot carries a saturating-tape cursor but the restored "
                "source is not a SaturatingSource"
            )
        sw._tape._next_poll = body["tape_next_poll"]
    _collectors_from(body, sw)
    return sw


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _kernel_of(switch: Any) -> str:
    from repro.core.batchpath import BatchPipelinedSwitch

    if type(switch) is PipelinedSwitch:
        return "checked"
    if type(switch) is FastPipelinedSwitch:
        return "fast"
    if type(switch) is BatchPipelinedSwitch:
        return "batch"
    raise CheckpointUnsupportedError(
        f"{type(switch).__name__} has no snapshot codec; checkpointable "
        f"kernels are PipelinedSwitch, FastPipelinedSwitch and "
        f"BatchPipelinedSwitch"
    )


def snapshot_switch(switch: Any) -> dict:
    """Serialize ``switch`` (plus source/telemetry/sanitizer) to a document.

    The switch must be at a ``run()``/``drain()`` boundary.  Raises
    :class:`CheckpointUnsupportedError` for kernels, sources or attachments
    outside the support matrix, :class:`CheckpointError` for states that
    cannot be serialized exactly.
    """
    kernel = _kernel_of(switch)
    telemetry = switch.telemetry if switch._tel else None
    sanitizer = switch.sanitizer if switch._san else None
    if kernel == "checked":
        body = _snap_checked(switch)
    elif kernel == "fast":
        body = _snap_fast(switch)
    else:
        body = _snap_batch(switch)
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kernel": kernel,
        "cycle": switch.cycle,
        "config": _config_doc(switch.config),
        "packet_ids": packet_id_state(),
        "source": _source_doc(switch.source),
        "telemetry": _telemetry_doc(telemetry),
        "sanitizer": _sanitizer_doc(sanitizer),
        "policy_state": switch.policy.state(),
        "switch": body,
    }


def restore_switch(doc: dict) -> Any:
    """Rebuild a switch from a snapshot document.

    The returned kernel continues bit-identically: ``restore(snapshot at
    k).run(N - k)`` equals an uninterrupted ``run(N)`` in every statistic,
    histogram, drop-taxonomy entry and telemetry event.  Also restores the
    global packet-id counter, so restore-in-a-fresh-process and
    restore-in-the-same-process are indistinguishable.
    """
    _check_format(doc)
    cfg = _config_from(doc["config"])
    source = _source_from(doc["source"])
    # Order matters: telemetry first (the kernel constructor resolves its
    # metric handles against this registry), then the sanitizer (which
    # aliases telemetry counters), then the kernel.
    telemetry = _telemetry_from(doc["telemetry"])
    sanitizer = _sanitizer_from(doc["sanitizer"], telemetry)
    kernel = doc["kernel"]
    if kernel == "checked":
        sw = _restore_checked(doc, cfg, source, telemetry, sanitizer)
    elif kernel == "fast":
        sw = _restore_fast(doc, cfg, source, telemetry, sanitizer)
    elif kernel == "batch":
        if sanitizer is not None:
            raise CheckpointError(
                "snapshot pairs a sanitizer with the batch kernel, which "
                "refuses sanitizers; the document is corrupt"
            )
        sw = _restore_batch(doc, cfg, source, telemetry)
    else:
        raise CheckpointError(f"unknown kernel {kernel!r} in snapshot")
    # Stateless policies carry None; restore_state refuses loudly if the
    # document holds state a different (or stateful) policy wrote.
    sw.policy.restore_state(doc.get("policy_state"))
    set_packet_id_state(doc["packet_ids"])
    return sw


def _check_format(doc: Any) -> None:
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"not a {SNAPSHOT_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else doc!r})"
        )
    if doc.get("version") not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"snapshot version {doc.get('version')!r} is not supported "
            f"(this build reads versions "
            f"{', '.join(str(v) for v in _READABLE_VERSIONS)})"
        )


def save(switch: Any, path: str | Path) -> dict:
    """Snapshot ``switch`` to ``path`` atomically; returns the document."""
    doc = snapshot_switch(switch)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(p, json.dumps(doc, separators=(",", ":")) + "\n")
    return doc


def load(path: str | Path) -> dict:
    """Read and validate a snapshot document from ``path``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    _check_format(doc)
    return doc


def restore(path: str | Path) -> Any:
    """Rebuild a switch from the snapshot at ``path``."""
    return restore_switch(load(path))


def fingerprint_doc(switch: Any) -> dict:
    """The observable-state document :func:`fingerprint` hashes.

    Covers everything the bit-identical-resume contract promises:
    statistics, Welford accumulators, latency histograms (order-normalized
    — dict insertion order is presentation, not state), wave counters, the
    drop taxonomy and full event stream (cycle-sorted, the canonical
    comparable form), metric values, occupancy samples and the sanitizer
    summary.
    """
    tel = switch.telemetry if switch._tel else None
    tel_doc = None
    if tel is not None:
        tel_doc = _telemetry_doc(tel)
        tel_doc["events"] = sorted(tel_doc["events"])
        series_doc = tel_doc.get("series")
        if series_doc is not None:
            # Wall stamps are observation time, not simulation state.
            tel_doc["series"] = {k: v for k, v in series_doc.items()
                                 if k != "walls"}
    return {
        "cycle": switch.cycle,
        "collectors": _collectors_doc(switch, sort_hists=True),
        "trace_ended_at": getattr(switch, "trace_ended_at", None),
        "telemetry": tel_doc,
        "sanitizer": switch.sanitizer.summary() if switch._san else None,
    }


def fingerprint(switch: Any) -> str:
    """SHA-256 over the canonical observable state of ``switch``.

    Two switches with equal fingerprints agree on every statistic,
    histogram, drop-taxonomy entry and telemetry event — the equality the
    checkpoint property tests (and the CI save/kill/resume smoke) assert.
    """
    payload = json.dumps(fingerprint_doc(switch), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
