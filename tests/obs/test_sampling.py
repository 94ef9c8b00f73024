"""Seed-stable packet sampling: determinism, uniformity, nesting."""

from __future__ import annotations

import pytest

from repro.obs.sampling import (
    SampledEventLog,
    is_sampled,
    packet_hash,
    sample_threshold,
)


class TestPacketHash:
    def test_pure_function_of_seed_and_uid(self):
        assert packet_hash(7, 123) == packet_hash(7, 123)
        assert packet_hash(7, 123) != packet_hash(8, 123)
        assert packet_hash(7, 123) != packet_hash(7, 124)

    def test_64_bit_range(self):
        for uid in range(2000):
            h = packet_hash(3, uid)
            assert 0 <= h < (1 << 64)

    def test_roughly_uniform(self):
        """The realized fraction tracks the rate for sequential uids —
        that is what makes `trace_sample` a rate and not a lottery."""
        n = 20_000
        for rate in (0.05, 0.2, 0.5):
            hits = sum(is_sampled(1, uid, rate) for uid in range(n))
            assert abs(hits / n - rate) < 0.02

    def test_known_vector_pinned(self):
        """The hash is part of the cross-process contract: a silent change
        would silently re-select every sampled trace."""
        assert packet_hash(0, 0) == 16294208416658607535
        assert packet_hash(1, 1) == 13757245211066428519


class TestThreshold:
    def test_edges(self):
        assert sample_threshold(0.0) == 0
        assert sample_threshold(1.0) == 1 << 64

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rejects_out_of_range(self, rate):
        with pytest.raises(ValueError):
            sample_threshold(rate)

    def test_rate_zero_and_one(self):
        assert not any(is_sampled(5, uid, 0.0) for uid in range(100))
        assert all(is_sampled(5, uid, 1.0) for uid in range(100))


class TestNesting:
    def test_lower_rate_is_subset_of_higher(self):
        uids = range(5000)
        low = {u for u in uids if is_sampled(9, u, 0.05)}
        high = {u for u in uids if is_sampled(9, u, 0.30)}
        assert low <= high
        assert low and high - low  # both rates are non-degenerate here


class TestSampledEventLog:
    def test_filters_at_emit_time(self):
        log = SampledEventLog(0.2, seed=4)
        for uid in range(500):
            log.emit(uid, "arrive", uid, src=0, dst=1)
        kept = {e.uid for e in log.events}
        assert kept == {u for u in range(500) if log.sampled(u)}
        assert 0 < len(kept) < 500

    def test_reemitting_filtered_stream_is_idempotent(self):
        """Checkpoint restore replays saved (already filtered) events
        through a fresh SampledEventLog: nothing may be lost or added."""
        log = SampledEventLog(0.3, seed=2)
        for uid in range(300):
            log.emit(uid, "arrive", uid)
        replay = SampledEventLog(0.3, seed=2)
        for e in log.events:
            replay.emit(e.cycle, e.kind, e.uid, e.src, e.dst, e.cause, e.aux)
        assert replay.sorted_events() == log.sorted_events()


class TestSampledTaxonomy:
    def test_result_counts_every_drop_not_only_sampled_ones(self):
        """Sampling thins the event log, never the result's drop taxonomy:
        a sampled run reports the same taxonomy as a full-log run."""
        from repro.scenario import Scenario, run_scenario

        def taxonomy(telemetry):
            sc = Scenario(name="sampled-drops", arch="pipelined_batch",
                          params={"n": 8, "addresses": 32},
                          traffic={"kind": "renewal_tape", "load": 1.0},
                          horizon=5000, seeds=[1], telemetry=telemetry)
            return run_scenario(sc)["telemetry"]["drop_taxonomy"]

        full = taxonomy({"events": True})
        assert sum(full.values()) > 100
        assert taxonomy({"trace_sample": 0.1}) == full
