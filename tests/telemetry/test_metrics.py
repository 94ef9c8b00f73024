"""Tests for the metrics registry and its null no-op twins."""

import pytest

from repro.telemetry import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
)
from repro.telemetry.metrics import full_name


class TestRegistry:
    def test_counter_get_or_create(self):
        m = MetricsRegistry()
        c1 = m.counter("repro_port_arrivals_total", port=0)
        c2 = m.counter("repro_port_arrivals_total", port=0)
        assert c1 is c2
        c1.inc()
        c1.inc(2)
        assert c2.value == 3

    def test_labels_distinguish_series(self):
        m = MetricsRegistry()
        m.counter("x_total", port=0).inc()
        m.counter("x_total", port=1).inc(5)
        assert m.counter("x_total", port=0).value == 1
        assert m.counter("x_total", port=1).value == 5

    def test_gauge_tracks_extremes(self):
        m = MetricsRegistry()
        g = m.gauge("occ")
        for v in (3, 9, 1):
            g.set(v)
        assert g.value == 1
        assert g.minimum == 1 and g.maximum == 9

    def test_histogram_observe_and_percentile(self):
        m = MetricsRegistry()
        h = m.histogram("lat")
        for v in range(1, 101):
            h.observe(v)
        assert h.hist.total == 100
        assert 1 <= h.percentile(50) <= 100

    def test_type_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("a")
        with pytest.raises(TypeError):
            m.gauge("a")

    def test_iteration_is_deterministic(self):
        m = MetricsRegistry()
        m.counter("b_total", port=1)
        m.counter("a_total")
        m.gauge("c")
        names = [x.name for x in m]
        assert names == sorted(names) == ["a_total", "b_total", "c"]

    def test_as_dict_round_trips_values(self):
        m = MetricsRegistry()
        m.counter("hits_total").inc(7)
        m.gauge("level").set(3)
        d = m.as_dict()
        assert d["hits_total"] == 7
        assert d["level"] == 3

    def test_full_name_formatting(self):
        assert full_name("x_total", ()) == "x_total"
        assert full_name("x_total", (("port", "3"),)) == 'x_total{port="3"}'


class TestNullObjects:
    def test_null_registry_absorbs_everything(self):
        c = NULL_METRICS.counter("anything", port=9)
        c.inc()
        c.inc(100)
        g = NULL_METRICS.gauge("g")
        g.set(42)
        h = NULL_METRICS.histogram("h")
        h.observe(1.0)
        assert list(NULL_METRICS) == []
        assert NULL_METRICS.as_dict() == {}

    def test_null_telemetry_is_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert Telemetry.off() is NULL_TELEMETRY

    def test_enabled_bundle(self):
        tel = Telemetry.on()
        assert tel.enabled
        assert Telemetry.on(sample_interval=8).sample_interval == 8

    def test_occupancy_series_summary(self):
        tel = Telemetry.on(sample_interval=4)
        for t, occ in [(0, 1), (4, 5), (8, 3)]:
            tel.sample(t, occ)
        s = tel.occupancy_series()
        assert s["samples"] == 3
        assert s["peak"] == 5
        assert s["mean"] == pytest.approx(3.0)
        assert s["last_cycle"] == 8
        assert Telemetry.on().occupancy_series() == {"samples": 0}

    def test_drop_taxonomy_sums_drop_counters_by_cause(self):
        tel = Telemetry(MetricsRegistry(), NULL_EVENTS)
        m = tel.metrics
        m.counter("repro_port_drops_total", port=0, cause="head_overrun").inc(2)
        m.counter("repro_port_drops_total", port=3, cause="head_overrun").inc()
        m.counter("repro_port_drops_total", port=1, cause="policy").inc()
        m.counter("repro_port_drops_total", port=2, cause="buffer_full")
        m.counter("repro_port_arrivals_total", port=0).inc(9)
        assert tel.drop_taxonomy() == {"head_overrun": 3, "policy": 1}
        assert NULL_TELEMETRY.drop_taxonomy() == {}
