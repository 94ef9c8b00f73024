"""Checkpoint/restore carries the observability plane bit-identically.

The sampled event log (rate + seed) and the series ring ride inside the
snapshot's telemetry document; a resumed run must produce the same sampled
stream, the same retained series rows, and the same fingerprint as an
uninterrupted one — on both kernel tiers.
"""

import json

import pytest

from repro.checkpoint import fingerprint_doc, restore_switch, snapshot_switch
from repro.core import (
    BatchRenewalSource,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    make_pipelined_switch,
)
from repro.obs.sampling import SampledEventLog
from repro.obs.series import SeriesRing
from repro.sim.packet import reset_packet_ids
from repro.telemetry import MetricsRegistry, Telemetry


def _build(kernel, *, rate=0.3, seed=5, capacity=32):
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=4, addresses=32)
    src = BatchRenewalSource(4, cfg.packet_words, load=0.8, seed=seed)
    tel = Telemetry(MetricsRegistry(), SampledEventLog(rate, seed=seed), 16,
                    series=SeriesRing(capacity=capacity))
    if kernel == "checked":
        return PipelinedSwitch(cfg, src, telemetry=tel)
    return make_pipelined_switch(cfg, src, telemetry=tel, kernel="batch",
                                 batch_cycles=64)


@pytest.mark.parametrize("kernel", ["checked", "batch"])
@pytest.mark.parametrize("k", [1, 250, 499])
def test_resume_preserves_sampled_stream_and_series(kernel, k):
    ref = _build(kernel)
    ref.run(500)
    sw = _build(kernel)
    sw.run(k)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    resumed = restore_switch(doc)
    resumed.run(500 - k)

    assert fingerprint_doc(resumed) == fingerprint_doc(ref)
    rtel, ftel = resumed.telemetry, ref.telemetry
    assert rtel.events.sorted_events() == ftel.events.sorted_events()
    assert type(rtel.events) is SampledEventLog
    assert (rtel.events.rate, rtel.events.seed) == (0.3, 5)
    assert list(rtel.series.rows) == list(ftel.series.rows)
    assert rtel.series.recorded == ftel.series.recorded
    assert rtel.series.capacity == ftel.series.capacity
    assert rtel.series.to_jsonl() == ftel.series.to_jsonl()


def test_ring_eviction_state_survives_round_trip():
    """A ring that already evicted rows restores with the same retained
    window and the same total `recorded` count."""
    sw = _build("batch", capacity=4)
    sw.run(600)  # sample_interval 16 -> far more samples than capacity
    assert sw.telemetry.series.recorded > 4
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    back = restore_switch(doc)
    assert list(back.telemetry.series.rows) == list(sw.telemetry.series.rows)
    assert back.telemetry.series.recorded == sw.telemetry.series.recorded


def test_wall_stamps_stay_out_of_fingerprints():
    """Wall-clock stamps round-trip (for live rate views) but must never
    enter the fingerprint, or resumed != uninterrupted."""
    sw = _build("batch")
    sw.run(300)
    fp = fingerprint_doc(sw)
    series_docs = [v for v in _walk_dicts(fp) if "walls" in v]
    assert not series_docs
    # but the snapshot itself does carry them
    snap = snapshot_switch(sw)
    assert any("walls" in v for v in _walk_dicts(snap))


def _walk_dicts(doc):
    if isinstance(doc, dict):
        yield doc
        for v in doc.values():
            yield from _walk_dicts(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _walk_dicts(v)
