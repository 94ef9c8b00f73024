"""Tests for the event log, its aggregations, and the exporters."""

import json

import pytest

from repro.telemetry import (
    ARRIVE,
    CUT_THROUGH,
    DEPART,
    DROP,
    DROP_HEAD_OVERRUN,
    NULL_EVENTS,
    STORE_WAVE,
    Event,
    EventLog,
    MetricsRegistry,
)
from repro.telemetry.export import (
    chrome_trace_from_events,
    events_jsonl,
    render_prometheus,
    validate_chrome_trace,
)


def _demo_log() -> EventLog:
    log = EventLog()
    log.emit(0, ARRIVE, 0, src=1, dst=2)
    log.emit(1, CUT_THROUGH, 0, src=1, dst=2)
    log.emit(3, ARRIVE, 1, src=0, dst=2)
    log.emit(5, STORE_WAVE, 1, src=0, dst=2)
    log.emit(9, DEPART, 0, src=1, dst=2, aux=2)
    log.emit(12, DROP, 2, src=3, dst=0, cause=DROP_HEAD_OVERRUN)
    return log


class TestEventLog:
    def test_port_of_record(self):
        assert Event(0, ARRIVE, 0, src=1, dst=2).port == 1
        assert Event(0, DEPART, 0, src=1, dst=2).port == 2
        assert Event(0, DROP, 0, src=3, dst=0).port == 3
        assert Event(0, CUT_THROUGH, 0, src=1, dst=2).port == 2

    def test_counts_by_kind(self):
        assert _demo_log().counts_by_kind() == {
            ARRIVE: 2, CUT_THROUGH: 1, STORE_WAVE: 1, DEPART: 1, DROP: 1,
        }

    def test_sorted_events_canonical_order(self):
        log = EventLog()
        log.emit(5, DEPART, 2, dst=0)
        log.emit(5, ARRIVE, 1, src=0, dst=0)
        log.emit(2, ARRIVE, 0, src=0, dst=0)
        cycles = [(e.cycle, e.kind) for e in log.sorted_events()]
        assert cycles == [(2, ARRIVE), (5, ARRIVE), (5, DEPART)]

    def test_as_dict_omits_defaults(self):
        d = Event(4, DROP, 7, src=2, cause=DROP_HEAD_OVERRUN).as_dict()
        assert d == {"cycle": 4, "kind": DROP, "uid": 7, "src": 2,
                     "cause": DROP_HEAD_OVERRUN}

    def test_null_log_is_inert(self):
        NULL_EVENTS.emit(0, ARRIVE, 0)
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.sorted_events() == []
        assert NULL_EVENTS.counts_by_kind() == {}


class TestJsonl:
    def test_one_valid_object_per_line(self):
        text = events_jsonl(_demo_log())
        lines = text.strip().split("\n")
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["kind"] == ARRIVE and first["cycle"] == 0
        # depart events carry the head cycle under the "head" key
        depart = next(json.loads(l) for l in lines if '"depart"' in l)
        assert depart["head"] == 2


class TestPrometheus:
    def test_render_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.counter("repro_waves_total", op="write").inc(3)
        m.gauge("repro_buffer_occupancy").set(17)
        m.histogram("repro_ct_latency_cycles").observe(3)
        text = render_prometheus(m)
        assert "# TYPE repro_waves_total counter" in text
        assert 'repro_waves_total{op="write"} 3' in text
        assert "# TYPE repro_buffer_occupancy gauge" in text
        assert "repro_buffer_occupancy 17" in text
        assert "# TYPE repro_ct_latency_cycles histogram" in text
        assert 'repro_ct_latency_cycles_bucket{le="+Inf"} 1' in text
        assert "repro_ct_latency_cycles_count 1" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestChromeTrace:
    def test_minimal_trace_validates(self):
        trace = chrome_trace_from_events(_demo_log(), depth=4, n=4)
        validate_chrome_trace(trace)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_wave_slices_form_the_diagonal(self):
        log = EventLog()
        log.emit(1, CUT_THROUGH, 0, src=0, dst=1)
        trace = chrome_trace_from_events(log, depth=4)
        slices = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "wave"]
        # bank k is occupied exactly at cycle 1 + k: the figure-5 staircase
        assert {(e["tid"], e["ts"]) for e in slices} == {
            (0, 1), (1, 2), (2, 3), (3, 4),
        }
        assert all(e["dur"] == 1 for e in slices)

    def test_multi_quantum_wave_revisits_banks(self):
        log = EventLog()
        log.emit(0, STORE_WAVE, 0, src=0, dst=1)
        trace = chrome_trace_from_events(log, depth=2, quanta=2)
        slices = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "wave"]
        assert {(e["tid"], e["ts"]) for e in slices} == {
            (0, 0), (1, 1), (0, 2), (1, 3),
        }

    def test_horizon_clips_unsimulated_cycles(self):
        log = EventLog()
        log.emit(1, CUT_THROUGH, 0, src=0, dst=1)
        trace = chrome_trace_from_events(log, depth=4, horizon=3)
        slices = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "wave"]
        assert {e["ts"] for e in slices} == {1, 2}

    def test_validation_rejects_double_booked_bank(self):
        log = EventLog()
        log.emit(1, CUT_THROUGH, 0, src=0, dst=1)
        log.emit(1, STORE_WAVE, 1, src=1, dst=0)  # same initiation cycle
        trace = chrome_trace_from_events(log, depth=4)
        with pytest.raises(ValueError, match="cycle 1"):
            validate_chrome_trace(trace)

    def test_validation_rejects_structural_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "trace"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="bad dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "pid": 1, "tid": 0, "name": "x", "ts": 0, "dur": 0},
            ]})

    def test_link_slice_spans_head_to_tail(self):
        log = EventLog()
        log.emit(9, DEPART, 0, src=1, dst=2, aux=2)
        trace = chrome_trace_from_events(log, depth=4)
        link = next(e for e in trace["traceEvents"]
                    if e["ph"] == "X" and e.get("cat") == "link")
        assert link["ts"] == 2 and link["dur"] == 8  # cycles 2..9 inclusive
