"""Bit-identical checkpoint/restore across all three kernel tiers.

The contract: ``run(N)`` equals ``run(k); save; restore; run(N - k)`` in
every statistic, latency histogram, drop-taxonomy entry and telemetry
event — for the checked, fast and batch kernels, through a real JSON
round trip, including k inside a batch window and mid-packet-chain.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    CheckpointError,
    CheckpointUnsupportedError,
    fingerprint,
    fingerprint_doc,
    load,
    restore,
    restore_switch,
    save,
    snapshot_switch,
)
from repro.core import (
    BatchRenewalSource,
    FastPipelinedSwitch,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    SaturatingSource,
    TracePacketSource,
    make_pipelined_switch,
)
from repro.drc.sanitizer import Sanitizer
from repro.sim.packet import reset_packet_ids
from repro.telemetry import Telemetry


def _build(kernel, *, n=4, addresses=32, quanta=1, load=0.7, seed=42,
           telemetry=False, sanitize=False, batch_cycles=64, traffic="renewal"):
    """One (kernel, config, source) simulation, deterministically."""
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=n, addresses=addresses, quanta=quanta)
    if kernel == "batch":
        if traffic == "saturating":
            src = SaturatingSource(n, cfg.packet_words, seed=seed)
        else:
            src = BatchRenewalSource(n, cfg.packet_words, load=load, seed=seed)
    elif traffic == "saturating":
        src = SaturatingSource(n, cfg.packet_words, seed=seed)
    else:
        src = RenewalPacketSource(n, cfg.packet_words, load=load, seed=seed)
    tel = Telemetry.on(16) if telemetry else None
    san = Sanitizer(telemetry=tel) if sanitize else None
    if kernel == "checked":
        return PipelinedSwitch(cfg, src, telemetry=tel, sanitizer=san)
    if kernel == "fast":
        return FastPipelinedSwitch(cfg, src, telemetry=tel, sanitizer=san)
    return make_pipelined_switch(cfg, src, telemetry=tel, kernel="batch",
                                 batch_cycles=batch_cycles)


def _assert_resume_identical(build, n_total, k):
    """run(N) fingerprint == run(k) + JSON round trip + run(N-k)."""
    ref = build()
    ref.run(n_total)
    sw = build()
    sw.run(k)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    resumed = restore_switch(doc)
    resumed.run(n_total - k)
    assert fingerprint_doc(resumed) == fingerprint_doc(ref)
    assert fingerprint(resumed) == fingerprint(ref)


# -- property test over random configs, kernels and split points -------------

@settings(max_examples=25, deadline=None)
@given(
    kernel=st.sampled_from(["checked", "fast", "batch"]),
    n=st.sampled_from([2, 4]),
    addresses=st.sampled_from([16, 32]),
    quanta=st.sampled_from([1, 2]),
    load=st.sampled_from([0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=499),
    telemetry=st.booleans(),
    batch_cycles=st.sampled_from([1, 64, 333]),
)
def test_resume_is_bit_identical(kernel, n, addresses, quanta, load, seed, k,
                                 telemetry, batch_cycles):
    n_total = 500

    def build():
        return _build(kernel, n=n, addresses=addresses, quanta=quanta,
                      load=load, seed=seed, telemetry=telemetry,
                      batch_cycles=batch_cycles)

    _assert_resume_identical(build, n_total, k)


# -- deterministic corner cases ----------------------------------------------

def test_k_inside_batch_window():
    """k far from any window boundary (window 64, k 37): the batch kernel
    must land its straddler state (pending departures, lean due bits)
    exactly where the uninterrupted run has it."""
    _assert_resume_identical(lambda: _build("batch", batch_cycles=64),
                             n_total=1000, k=37)


def test_k_mid_packet_chain():
    """quanta=2 saturating traffic keeps multi-quantum chains in flight at
    every cycle, so k=251 necessarily splits packets mid-chain."""
    for kernel in ("checked", "fast"):
        _assert_resume_identical(
            lambda: _build(kernel, quanta=2, traffic="saturating", seed=7),
            n_total=600, k=251)


def test_checked_with_sanitizer_resumes():
    _assert_resume_identical(
        lambda: _build("checked", telemetry=True, sanitize=True, seed=5),
        n_total=500, k=203)


def test_batch_saturating_tape_cursor_restored():
    _assert_resume_identical(
        lambda: _build("batch", traffic="saturating", batch_cycles=32, seed=11),
        n_total=800, k=333)


def test_trace_source_resume_and_exhaustion():
    schedule = {0: [(0, 1), (10, 2)], 1: [(5, 3)], 2: [], 3: [(40, 0)]}

    def build(cls):
        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        src = TracePacketSource(4, cfg.packet_words,
                                {k: list(v) for k, v in schedule.items()})
        return cls(cfg, src)

    for cls in (PipelinedSwitch, FastPipelinedSwitch):
        ref = build(cls)
        ref.run(10_000)
        assert ref.trace_ended_at is not None
        assert ref.cycle == ref.trace_ended_at < 10_000  # early termination
        assert ref.stats.delivered == 4
        sw = build(cls)
        sw.run(30)
        resumed = restore_switch(snapshot_switch(sw))
        resumed.run(10_000 - 30)
        assert fingerprint(resumed) == fingerprint(ref)
        # resuming a finished run burns zero cycles (stable fixed point)
        before = ref.cycle
        ref.run(100)
        assert ref.cycle == before


def _pre_removal_batch_doc(*, jit):
    """A version-2 batch snapshot as written while the batch kernel still
    had its optional compiled array core: the body carried ``"jit"`` and
    that core's ``"core_due_mask"``."""
    sw = _build("batch", batch_cycles=64, seed=13)
    sw.run(411)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    assert doc["version"] == SNAPSHOT_VERSION == 2
    body = doc["switch"]
    assert "jit" not in body and "core_due_mask" not in body
    body["jit"] = jit
    body["core_due_mask"] = 0b101 if jit else 0
    return doc


def test_pre_removal_batch_doc_without_jit_resumes_identically():
    ref = _build("batch", batch_cycles=64, seed=13)
    ref.run(1000)
    resumed = restore_switch(_pre_removal_batch_doc(jit=False))
    resumed.run(1000 - 411)
    assert fingerprint_doc(resumed) == fingerprint_doc(ref)
    assert fingerprint(resumed) == fingerprint(ref)


def test_pre_removal_batch_doc_with_jit_is_refused():
    with pytest.raises(CheckpointUnsupportedError, match="array core"):
        restore_switch(_pre_removal_batch_doc(jit=True))


# -- save/load plumbing -------------------------------------------------------

def test_save_load_restore_roundtrip(tmp_path):
    sw = _build("fast", seed=9)
    sw.run(250)
    path = tmp_path / "deep" / "state.ckpt.json"
    doc = save(sw, path)
    assert path.exists() and not path.with_name(path.name + ".tmp").exists()
    assert doc["format"] == SNAPSHOT_FORMAT
    assert doc["version"] == SNAPSHOT_VERSION
    assert load(path) == json.loads(json.dumps(doc))
    resumed = restore(path)
    assert fingerprint(resumed) == fingerprint(sw)


def test_bad_format_and_version_are_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(CheckpointError):
        load(path)
    path.write_text(json.dumps({"format": SNAPSHOT_FORMAT,
                                "version": SNAPSHOT_VERSION + 1}))
    with pytest.raises(CheckpointError):
        load(path)
    with pytest.raises(CheckpointError):
        load(tmp_path / "missing.json")


def test_unsupported_kernel_refused():
    class NotASwitch:
        pass

    with pytest.raises(CheckpointUnsupportedError):
        snapshot_switch(NotASwitch())


def test_unsupported_source_refused():
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=2, addresses=16)

    class WeirdSource(RenewalPacketSource):
        pass

    sw = PipelinedSwitch(cfg, WeirdSource(2, cfg.packet_words, load=0.5, seed=1))
    with pytest.raises(CheckpointUnsupportedError):
        snapshot_switch(sw)


def test_restored_doc_survives_fresh_process_semantics():
    """Restore resets the global packet-uid counter, so state restored
    after unrelated simulations behaves like a fresh process."""
    sw = _build("checked", seed=13)
    sw.run(123)
    doc = snapshot_switch(sw)
    ref = _build("checked", seed=13)
    ref.run(400)
    # pollute the process: run something unrelated, moving the uid counter
    other = _build("checked", seed=99)
    other.run(200)
    resumed = restore_switch(doc)
    resumed.run(400 - 123)
    assert fingerprint(resumed) == fingerprint(ref)
