"""Span assembly: figure-5 arithmetic over (sampled) lifecycle streams."""

from __future__ import annotations

import json

from repro.core import (
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    SaturatingSource,
)
from repro.obs.sampling import SampledEventLog
from repro.obs.spans import (
    STAGES,
    Span,
    chrome_trace_from_spans,
    spans_from_events,
    spans_jsonl,
)
from repro.sim.packet import reset_packet_ids
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.events import Event


def _run(rate=1.0, seed=1, cycles=600, droppy=False):
    reset_packet_ids()
    if droppy:
        cfg = PipelinedSwitchConfig(n=4, addresses=8)
        src = SaturatingSource(n_out=4, packet_words=cfg.packet_words,
                               seed=seed)
    else:
        cfg = PipelinedSwitchConfig(n=4, addresses=64)
        src = RenewalPacketSource(n_out=4, packet_words=cfg.packet_words,
                                  load=0.6, seed=seed)
    tel = Telemetry(MetricsRegistry(), SampledEventLog(rate, seed=7))
    sw = PipelinedSwitch(cfg, src, telemetry=tel)
    sw.run(cycles)
    sw.drain()
    return sw, cfg, tel


class TestAssembly:
    def test_delivered_packet_has_full_lifecycle(self):
        sw, cfg, tel = _run()
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, quanta=cfg.quanta,
                                  horizon=sw.cycle)
        by_uid: dict[int, dict[str, Span]] = {}
        for s in spans:
            by_uid.setdefault(s.uid, {})[s.stage] = s
        delivered = [stages for stages in by_uid.values() if "link" in stages]
        assert delivered
        for stages in delivered:
            assert "latch" in stages
            # a delivered packet was either stored or cut through
            assert "store_wave" in stages or "cut_through" in stages
            if "store_wave" in stages:
                assert "read_wave" in stages and "resident" in stages
                assert (stages["resident"].start
                        == stages["store_wave"].start)
            for s in stages.values():
                assert s.end > s.start
                assert s.end <= sw.cycle

    def test_wave_spans_use_figure5_extent(self):
        sw, cfg, tel = _run()
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, quanta=cfg.quanta,
                                  horizon=sw.cycle)
        full = [s for s in spans
                if s.stage in ("store_wave", "cut_through", "read_wave")
                and s.end < sw.cycle]
        assert full
        assert all(s.end - s.start == cfg.quanta * cfg.depth for s in full)

    def test_dropped_packet_gets_drop_span_with_cause(self):
        sw, cfg, tel = _run(droppy=True)
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, horizon=sw.cycle)
        drops = [s for s in spans if s.stage == "drop"]
        assert drops
        assert all(s.cause for s in drops)
        assert all(s.end == s.start + 1 for s in drops)

    def test_sampled_spans_are_subset_of_full(self):
        _, cfg, tel_full = _run(rate=1.0)
        sw, _, tel_smp = _run(rate=0.25)
        full = spans_from_events(tel_full.events.sorted_events(),
                                 depth=cfg.depth, horizon=sw.cycle)
        sampled = spans_from_events(tel_smp.events.sorted_events(),
                                    depth=cfg.depth, horizon=sw.cycle)
        assert 0 < len(sampled) < len(full)
        assert set(sampled) <= set(full)

    def test_no_horizon_omits_open_stages(self):
        events = [Event(10, "arrive", 1, 0, 2)]  # never admitted
        assert spans_from_events(events, depth=6) == []
        closed = spans_from_events(events, depth=6, horizon=50)
        assert closed == [Span(1, "latch", 10, 50, src=0, dst=2)]

    def test_output_sorted_and_stable(self):
        sw, cfg, tel = _run()
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, horizon=sw.cycle)
        order = {s: i for i, s in enumerate(STAGES)}
        keys = [(s.uid, s.start, order[s.stage]) for s in spans]
        assert keys == sorted(keys)


class TestExports:
    def test_jsonl_round_trips_fields(self):
        sw, cfg, tel = _run(rate=0.25)
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, horizon=sw.cycle)
        lines = spans_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        row = json.loads(lines[0])
        assert {"uid", "stage", "start", "end"} <= set(row)

    def test_chrome_trace_one_thread_per_packet(self):
        sw, cfg, tel = _run(rate=0.25, droppy=True)
        spans = spans_from_events(tel.events.sorted_events(),
                                  depth=cfg.depth, horizon=sw.cycle)
        trace = chrome_trace_from_spans(spans)
        uids = {s.uid for s in spans}
        named = {e["tid"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert named == uids
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(slices) == sum(1 for s in spans if s.stage != "drop")
        assert len(instants) == sum(1 for s in spans if s.stage == "drop")
