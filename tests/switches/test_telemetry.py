"""Telemetry emitted by the slot-level switch models."""

from repro.switches import (
    KnockoutSwitch,
    OutputQueued,
    SharedBuffer,
)
from repro.switches.harness import run_switch
from repro.telemetry import DROP_BUFFER_FULL, DROP_KNOCKOUT, Telemetry
from repro.traffic.bernoulli import BernoulliUniform


def _run(switch, load=0.95, slots=2000, seed=7, sample_interval=16):
    tel = Telemetry.on(sample_interval=sample_interval)
    src = BernoulliUniform(switch.n_in, switch.n_out, load, seed=seed)
    stats = run_switch(switch, src, slots, telemetry=tel)
    return stats, tel


class TestSlottedTelemetry:
    def test_event_counts_match_stats(self):
        stats, tel = _run(SharedBuffer(4, 4, capacity=8))
        counts = tel.events.counts_by_kind()
        assert counts.get("arrive", 0) == stats.offered
        assert counts.get("depart", 0) == stats.delivered
        assert counts.get("drop", 0) == stats.dropped
        assert stats.dropped > 0  # the workload must exercise the drop path

    def test_late_drops_use_buffer_full_cause(self):
        _, tel = _run(OutputQueued(4, 4, capacity=2))
        taxonomy = tel.drop_taxonomy()
        assert set(taxonomy) == {DROP_BUFFER_FULL}

    def test_knockout_distinguishes_concentrator_losses(self):
        sw = KnockoutSwitch(8, 8, l_paths=2, capacity=4)
        _, tel = _run(sw)
        taxonomy = tel.drop_taxonomy()
        assert taxonomy.get(DROP_KNOCKOUT, 0) == sw.knockout_drops > 0
        assert DROP_BUFFER_FULL in taxonomy

    def test_occupancy_sampling_and_gauge(self):
        stats, tel = _run(SharedBuffer(4, 4, capacity=8), sample_interval=10)
        assert len(tel.samples) == 200  # slots 0,10,...,1990
        capacity_bound = all(0 <= occ <= 8 for _, occ in tel.samples)
        assert capacity_bound
        d = tel.metrics.as_dict()
        assert "repro_buffer_occupancy" in d

    def test_per_port_drop_counters_sum_to_stats(self):
        stats, tel = _run(SharedBuffer(4, 4, capacity=8))
        total = sum(
            m.value for m in tel.metrics
            if m.name == "repro_port_drops_total"
        )
        assert total == stats.dropped

    def test_telemetry_off_costs_nothing_visible(self):
        sw = SharedBuffer(4, 4, capacity=8)
        assert not sw.telemetry.enabled
        src = BernoulliUniform(4, 4, 0.9, seed=3)
        stats = sw.run(src, 500)
        assert len(sw.telemetry.events) == 0
        assert stats.offered > 0
