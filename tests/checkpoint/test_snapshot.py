"""Bit-identical checkpoint/restore across both kernel tiers.

The contract: ``run(N)`` equals ``run(k); save; restore; run(N - k)`` in
every statistic, latency histogram, drop-taxonomy entry and telemetry
event — for the checked and batch kernels, through a real JSON
round trip, including k inside a batch window and mid-packet-chain.

Every round trip here is also a completeness oracle: the restored switch
must equal the original attribute for attribute (:func:`_state_diffs`),
outside the reasoned :data:`EXEMPT` list, before both run on.  A codec
that forgets a field fails at the checkpoint, not only when the field
happens to change a later statistic.
"""

import json
import re
from collections import deque
from numbers import Number
from pathlib import Path
from types import BuiltinMethodType, MethodType

import numpy as np
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
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    SaturatingSource,
    TracePacketSource,
    make_pipelined_switch,
)
from repro.drc.sanitizer import Sanitizer
from repro.obs.series import SeriesRing
from repro.sim.packet import reset_packet_ids, set_packet_id_state
from repro.telemetry import NULL_EVENTS, EventLog, MetricsRegistry, Telemetry

KERNELS = ("checked", "batch")

#: A trace that runs dry near cycle 50 (the batch kernel refuses traces).
TRACE_SCHEDULE = {0: [(0, 1), (10, 2)], 1: [(5, 3)], 2: [], 3: [(40, 0)]}


def _build(kernel, *, n=4, addresses=32, load=0.7, seed=42, telemetry=False,
           sanitize=False, batch_cycles=64, traffic="renewal", **config):
    """One (kernel, config, source) simulation, deterministically; extra
    keywords are :class:`PipelinedSwitchConfig` fields.  ``telemetry`` is
    off (False), every channel with a series ring (True), or the same
    without an event log ("no-events")."""
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=n, addresses=addresses, **config)
    if traffic == "saturating":
        src = SaturatingSource(n, cfg.packet_words, seed=seed)
    elif traffic == "trace":
        src = TracePacketSource(n, cfg.packet_words,
                                {k: list(v) for k, v in TRACE_SCHEDULE.items()})
    elif kernel == "batch":
        src = BatchRenewalSource(n, cfg.packet_words, load=load, seed=seed)
    else:
        src = RenewalPacketSource(n, cfg.packet_words, load=load, seed=seed)
    tel = None
    if telemetry:
        events = NULL_EVENTS if telemetry == "no-events" else EventLog()
        tel = Telemetry(MetricsRegistry(), events, 16, series=SeriesRing(64))
    san = Sanitizer(telemetry=tel) if sanitize else None
    if kernel == "checked":
        return PipelinedSwitch(cfg, src, telemetry=tel, sanitizer=san)
    return make_pipelined_switch(cfg, src, telemetry=tel, kernel="batch",
                                 batch_cycles=batch_cycles)


# -- the round-trip state oracle ----------------------------------------------

#: Attributes a round trip may leave different, each with why that is safe.
#: Keys are regular expressions over :func:`_state_diffs` paths, which start
#: at the kernel's class name.  The continuation after the comparison still
#: covers every attribute listed here.
EXEMPT = {
    r"PipelinedSwitch\.buses":
        "bus drive state is re-driven every cycle and never read across a "
        "cycle boundary; restore builds fresh buses",
    r"PipelinedSwitch\.sinks\[\d+\]\.delivered":
        "delivery history kept for tests; the kernel reads only [-1], in "
        "the same call that appends it",
    r"BatchPipelinedSwitch\._bits": "mask cache, filled on use",
    r"BatchPipelinedSwitch\._first": "per-output mask caches, filled on use",
    r"BatchPipelinedSwitch\._pend_dbit":
        "derived from _pend_dst on restore, and read only for inputs with a "
        "pending store; before an input's first store it differs (1 << 0 "
        "derived from the default _pend_dst, against the constructor's 0)",
    r"\w+\._m_\w+":
        "metric handles, re-resolved against the restored registry when "
        "telemetry is attached; _m_drops fills lazily per (port, cause)",
}
_EXEMPT = re.compile("|".join(f"(?:{p})" for p in EXEMPT))


def _state_diffs(a, b, path, memo=None, out=None):
    """Every path at which ``a`` and ``b`` differ, recursing through
    containers and object attributes (``__dict__`` and ``__slots__``).

    Numbers compare by value: the codec restores int-valued collector
    min/max and gauge values as floats.  Bools compare strictly, numpy
    generators by their bit-generator state, and shared or cyclic objects
    once each, through an id memo.
    """
    memo = set() if memo is None else memo
    out = [] if out is None else out
    if a is b or (id(a), id(b)) in memo:
        return out
    if isinstance(a, bool) or isinstance(b, bool):
        if type(a) is not type(b) or a != b:
            out.append(f"{path}: {a!r} != {b!r}")
        return out
    if isinstance(a, Number) and isinstance(b, Number):
        if a != b and not (a != a and b != b):  # nan equals nan
            out.append(f"{path}: {a!r} != {b!r}")
        return out
    if type(a) is not type(b):
        out.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
        return out
    memo.add((id(a), id(b)))
    if isinstance(a, np.random.Generator):
        if a.bit_generator.state != b.bit_generator.state:
            out.append(f"{path}: generator state differs")
    elif isinstance(a, np.ndarray):
        if a.shape != b.shape or not np.array_equal(a, b):
            out.append(f"{path}: array differs")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            out.append(f"{path}: keys {sorted(map(repr, a.keys() ^ b.keys()))}")
        for key in a.keys() & b.keys():
            _state_diffs(a[key], b[key], f"{path}[{key!r}]", memo, out)
    elif isinstance(a, (list, tuple, deque)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        if getattr(a, "maxlen", None) != getattr(b, "maxlen", None):
            out.append(f"{path}: maxlen {a.maxlen} != {b.maxlen}")
        for i, (x, y) in enumerate(zip(a, b)):
            _state_diffs(x, y, f"{path}[{i}]", memo, out)
    elif isinstance(a, (MethodType, BuiltinMethodType)):
        if a.__name__ != b.__name__:
            out.append(f"{path}: {a.__name__} != {b.__name__}")
        _state_diffs(a.__self__, b.__self__, f"{path}.__self__", memo, out)
    elif isinstance(a, (str, bytes, set, frozenset)):
        if a != b:
            out.append(f"{path}: {a!r} != {b!r}")
    else:
        fa, fb = _fields(a), _fields(b)
        if not fa and a != b:  # no attributes to walk: compare as values
            out.append(f"{path}: {a!r} != {b!r}")
        if fa.keys() != fb.keys():
            out.append(f"{path}: attributes {sorted(fa.keys() ^ fb.keys())}")
        for name in fa.keys() & fb.keys():
            sub = f"{path}.{name}"
            if not _EXEMPT.fullmatch(sub):
                _state_diffs(fa[name], fb[name], sub, memo, out)
    return out


def _fields(obj):
    """An object's attributes: its ``__dict__`` plus any set slots."""
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return fields


def _assert_resume_identical(build, n_total, k):
    """run(k), JSON round trip, restore: the restored switch equals the
    original outside :data:`EXEMPT`, and the restored switch, the original
    and an uninterrupted run(n_total) all end with equal fingerprints.
    Returns the (round-tripped) document."""
    ref = build()
    ref.run(n_total)
    sw = build()
    sw.run(k)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    resumed = restore_switch(doc)
    diffs = _state_diffs(sw, resumed, type(sw).__name__)
    assert not diffs, "restore lost state:\n  " + "\n  ".join(sorted(diffs))
    resumed.run(n_total - k)
    # The checked kernel draws uids from a process-global counter, which
    # restore set and the resumed run advanced.
    set_packet_id_state(doc["packet_ids"])
    sw.run(n_total - k)
    for other in (ref, sw):
        assert fingerprint_doc(resumed) == fingerprint_doc(other)
        assert fingerprint(resumed) == fingerprint(other)
    return doc


#: Between them the shapes leave every field of every kernel's codec
#: non-default at the checkpoint (``test_round_trip_oracle`` checks this).
ORACLE_SHAPES = {
    "trace": {"traffic": "trace"},  # trace_ended_at
    "quanta2": {"quanta": 2, "traffic": "saturating"},  # _chain, tape cursor
    "wirepipe2": {"link_pipeline_stages": 2},  # _wire_pipe
    "credit": {"credit_flow": True, "credits_per_input": 2, "load": 0.9},
    "downstream": {"downstream_credits": 2, "downstream_rtt": 3, "load": 0.9},
    "dynamic": {"policy": "dynamic:alpha=1.0", "load": 0.95, "sanitize": True},
}
#: ``_build`` telemetry modes: off, every channel, no event log.
TELEMETRY_MODES = (False, True, "no-events")
#: k=370 lands with a batch §3.5 quantum check (``qchecks``) in flight.
ORACLE_K, ORACLE_N = 370, 800


def test_round_trip_oracle():
    """Every kernel x telemetry (off, on with a series ring, the same
    without an event log) x shape round trips with equal state and equal
    continuations.  The batch kernel refuses traces and sanitizers: it
    skips the trace shape and runs the sanitized one without a sanitizer."""
    reached: dict = {}
    for shape, params in ORACLE_SHAPES.items():
        for kernel in KERNELS:
            if kernel == "batch" and params.get("traffic") == "trace":
                continue
            for telemetry in TELEMETRY_MODES:
                def build():
                    return _build(kernel, telemetry=telemetry, **params)

                try:
                    doc = _assert_resume_identical(build, ORACLE_N, ORACLE_K)
                except AssertionError as exc:
                    raise AssertionError(
                        f"{shape}/{kernel}/telemetry={telemetry}: {exc}"
                    ) from exc
                fresh = json.loads(json.dumps(snapshot_switch(build())))
                fields = reached.setdefault(kernel, {})
                for key, value in doc["switch"].items():
                    fields[key] = fields.get(key, False) or (
                        value != fresh["switch"][key])
    for kernel, fields in reached.items():
        idle = sorted(k for k, hit in fields.items()
                      if not hit and k != "batch_cycles")
        assert not idle, f"{kernel}: no oracle shape moves {idle}"


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_subclass_is_refused(kernel):
    """A subclass may carry state its base's codec does not know."""
    sw = _build(kernel)
    sw.__class__ = type(f"Tuned{type(sw).__name__}", (type(sw),), {})
    with pytest.raises(CheckpointUnsupportedError):
        snapshot_switch(sw)


# -- property test over random configs, kernels and split points -------------

@settings(max_examples=25, deadline=None)
@given(
    kernel=st.sampled_from(KERNELS),
    n=st.sampled_from([2, 4]),
    addresses=st.sampled_from([16, 32]),
    quanta=st.sampled_from([1, 2]),
    load=st.sampled_from([0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=499),
    telemetry=st.sampled_from(TELEMETRY_MODES),
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
    for kernel in KERNELS:
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
    ref = _build("checked", traffic="trace")
    ref.run(10_000)
    assert ref.trace_ended_at is not None
    assert ref.cycle == ref.trace_ended_at < 10_000  # early termination
    assert ref.stats.delivered == 4
    sw = _build("checked", traffic="trace")
    sw.run(30)
    resumed = restore_switch(snapshot_switch(sw))
    resumed.run(10_000 - 30)
    assert fingerprint(resumed) == fingerprint(ref)
    # resuming a finished run burns zero cycles (stable fixed point)
    before = ref.cycle
    ref.run(100)
    assert ref.cycle == before


def as_version2(doc, source):
    """``doc`` as versions 1 and 2 wrote it: a ``renewal_tape`` source
    carries its tape arrays, not a re-draw recipe."""
    doc = json.loads(json.dumps(doc))
    doc["version"] = 2
    tape = doc["source"]
    del tape["tape"]
    tape["tape_cycle"] = [a.tolist() for a in source._tape_cycle]
    tape["tape_dst"] = [a.tolist() for a in source._tape_dst]
    return doc


def _pre_removal_batch_doc(*, jit):
    """A version-2 batch snapshot as written while the batch kernel still
    had its optional compiled array core: the body carried ``"jit"`` and
    that core's ``"core_due_mask"``."""
    sw = _build("batch", batch_cycles=64, seed=13)
    sw.run(411)
    doc = as_version2(snapshot_switch(sw), sw.source)
    assert doc["source"]["tape_cycle"][0]
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


#: Version-2 batch snapshots written while the batch kernel had two window
#: engines, each stored with the fingerprint that kernel reached after
#: restoring the document and running ``resume_cycles`` more cycles.
#: ``batch_general_v2``: n=4, quanta=2, telemetry on, saturating traffic,
#: saved at cycle 151 with multi-quantum chains, quantum checks, buffer
#: releases (``free_due``) and a pending store in flight.
#: ``batch_lean_v2``: n=4, quanta=1, telemetry off, saturating traffic,
#: saved at cycle 137 with due events (``lean_due``, encoded
#: cycle << 12 | output bit) and pending departures in flight.
#: ``pipelined_fast_credit_v2``: a document of the since-removed wave-level
#: kernel, from a credit-flow ``pipelined_fast`` cell saved at cycle 1237
#: when that arch always ran it, with the cell's spec and its uninterrupted
#: stats.
#: ``batch_credit_tape_v2``: the ``_build_credited`` cell (window 256)
#: saved by a version-2 writer at cycle 22,188, with link 3 muted and every
#: link's tape non-empty and shifted by its credit waits; the fingerprint
#: is the uninterrupted run's after ``resume_cycles`` more cycles.
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name,state", [
    ("batch_general_v2", ("chain", "free_due", "qchecks")),
    ("batch_lean_v2", ("lean_due", "pending_departures")),
])
def test_two_engine_batch_doc_resumes_to_recorded_fingerprint(name, state):
    fixture = json.loads((FIXTURES / f"{name}.json").read_text())
    doc = fixture["doc"]
    assert doc["kernel"] == "batch" and doc["version"] == 2
    for key in state:  # the fixture really is mid-flight
        assert doc["switch"][key], key
    resumed = restore_switch(doc)
    resumed.run(fixture["resume_cycles"])
    assert fingerprint(resumed) == fixture["fingerprint"]


# -- input credit flow on the batch kernel ------------------------------------

def _build_credited(telemetry=False, batch_cycles=256):
    """Tight input credits (2 per input at load 0.9): links mute and resume
    every few packets."""
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=4, addresses=32, credit_flow=True,
                                credits_per_input=2)
    src = BatchRenewalSource(4, cfg.packet_words, load=0.9, seed=5)
    return make_pipelined_switch(
        cfg, src, kernel="batch", batch_cycles=batch_cycles,
        telemetry=Telemetry.on(16) if telemetry else None)


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("k,muted", [(37, False), (337, True)])
def test_credited_batch_resumes_identically(k, muted, telemetry,
                                            batch_cycles=256):
    """k=37 lies inside the first window; at k=337 link 2 is muted, with
    held-back arrivals and its tape not yet shifted."""
    sw = _build_credited(telemetry, batch_cycles)
    sw.run(k)
    assert any(m >= 0 for m in sw._mute_at) is muted
    _assert_resume_identical(lambda: _build_credited(telemetry, batch_cycles),
                             n_total=1500, k=k)


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("k,muted", [(37, False), (337, True)])
def test_credited_one_window_resumes_identically(k, muted, telemetry):
    """The same at 65,536 cycles: every run is one window, so the mute,
    the resume and the carried arrivals all sit inside it."""
    test_credited_batch_resumes_identically(k, muted, telemetry, 65536)


# -- the renewal_tape re-draw recipe ------------------------------------------

def test_credit_tape_v2_doc_resumes_to_recorded_fingerprint():
    fixture = json.loads((FIXTURES / "batch_credit_tape_v2.json").read_text())
    doc = fixture["doc"]
    assert doc["kernel"] == "batch" and doc["version"] == 2
    assert doc["config"]["credit_flow"]
    assert any(m >= 0 for m in doc["switch"]["mute_at"])
    assert all(doc["source"]["tape_cycle"])
    resumed = restore_switch(doc)
    resumed.run(fixture["resume_cycles"])
    assert fingerprint(resumed) == fixture["fingerprint"]


@pytest.mark.parametrize("j", [0, 20, 600])
def test_credit_tape_v2_doc_resaves_as_version3(j):
    """A source restored from a version-2 document keeps the unconsumed
    part of its old tape as a literal block; saved again (now version 3),
    it restores to equal state and the same recorded fingerprint."""
    fixture = json.loads((FIXTURES / "batch_credit_tape_v2.json").read_text())
    sw = restore_switch(fixture["doc"])
    sw.run(j)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    assert doc["version"] == SNAPSHOT_VERSION
    assert "tape_cycle" not in doc["source"] and "tape_dst" not in doc["source"]
    # Every link still lists its literal block: with polls left up to
    # cycle 20, handed out in full (and not yet forgotten) by cycle 600.
    literal = [t["literal"][0] for t in doc["source"]["tape"]]
    assert all(literal) if j <= 20 else not any(literal)
    resumed = restore_switch(doc)
    diffs = _state_diffs(sw, resumed, type(sw).__name__)
    assert not diffs, "restore lost state:\n  " + "\n  ".join(sorted(diffs))
    resumed.run(fixture["resume_cycles"] - j)
    assert fingerprint(resumed) == fixture["fingerprint"]


def test_dead_leading_tape_block_round_trips():
    """At cycle 10,000 every link's oldest recorded block is handed out in
    full but not yet forgotten: the recipe re-draws it too, so the
    restored bookkeeping equals the original."""
    def build():
        return _build("batch", load=0.5, batch_cycles=256)

    sw = build()
    sw.run(10_000)
    tapes = snapshot_switch(sw)["source"]["tape"]
    assert all(t["cursor"] >= t["blocks"][0] for t in tapes)
    _assert_resume_identical(build, n_total=12_000, k=10_000)


#: The ``source`` block of an 8-port ``renewal_tape`` snapshot: four PCG64
#: states per link (live and re-draw anchor, u and d) plus a few counts.
SOURCE_BLOCK_BOUND = 6 * 1024


@pytest.mark.parametrize("load", [0.5, 0.95])
@pytest.mark.parametrize("batch_cycles", [256, 65536])
def test_tape_source_block_size_is_bounded(batch_cycles, load):
    """The saved source does not grow with the tape it stands for."""
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=8, addresses=128)
    src = BatchRenewalSource(8, cfg.packet_words, load=load, seed=1)
    sw = make_pipelined_switch(cfg, src, kernel="batch",
                               batch_cycles=batch_cycles)
    sw.run(60_000)
    block = json.dumps(snapshot_switch(sw)["source"], separators=(",", ":"))
    tape = json.dumps([a.tolist() for a in src._tape_cycle + src._tape_dst],
                      separators=(",", ":"))
    assert len(block) < SOURCE_BLOCK_BOUND < len(tape) // 4


def _live_state_off(source_doc):
    source_doc["u_rng"][1]["state"]["state"] += 1


def _cursor_past_end(source_doc):
    tape = source_doc["tape"][1]
    tape["cursor"] = sum(tape["blocks"]) + 1


def _block_shortened(source_doc):
    source_doc["tape"][1]["blocks"][-1] -= 1


@pytest.mark.parametrize("tamper,match", [
    (_live_state_off, "recorded generator states"),
    (_cursor_past_end, "cursor"),
    (_block_shortened, "recorded generator states"),
])
def test_tampered_tape_recipe_is_refused(tamper, match):
    sw = _build_credited()
    sw.run(337)
    doc = json.loads(json.dumps(snapshot_switch(sw)))
    tamper(doc["source"])
    with pytest.raises(CheckpointError, match=match):
        restore_switch(doc)


def test_fast_kernel_doc_is_refused():
    """The wave-level kernel is gone, so its documents are refused with the
    reason rather than resumed on a kernel they were not written for.  The
    cell itself still reaches the recorded stats, now on the batch kernel."""
    from repro.scenario import Scenario, run_scenario

    fixture = json.loads((FIXTURES / "pipelined_fast_credit_v2.json")
                         .read_text())
    doc = fixture["doc"]
    assert doc["kernel"] == "fast" and doc["cycle"] == 1237
    with pytest.raises(CheckpointUnsupportedError,
                       match="fast kernel.*re-run the cell"):
        restore_switch(doc)
    fresh = run_scenario(Scenario.from_dict(fixture["scenario"]),
                         fixture["seed"])
    assert fresh["run"] == {"kernel": "batch"}
    assert fresh["stats"] == fixture["stats"]


# -- save/load plumbing -------------------------------------------------------

def test_save_load_restore_roundtrip(tmp_path):
    sw = _build("batch", seed=9)
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
