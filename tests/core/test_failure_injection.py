"""Failure injection: prove the structural checks actually catch faults.

A checker that never fires is indistinguishable from no checker.  These
tests *break* the hardware model deliberately — corrupt a memory cell, force
bus contention, double-book the initiation slot — and assert the matching
exception fires.  This is the test suite testing itself.
"""

import pytest

from repro.core import (
    BusContentionError,
    LatchOverrunError,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    TracePacketSource,
)
from repro.core.bank import BankConflictError
from repro.core.control import ControlWord, WaveOp
from repro.drc.sanitizer import (
    ADDRESS_MISMATCH,
    BANK_CONFLICT,
    CONSERVATION,
    DOUBLE_INITIATION,
    INVARIANTS,
    Sanitizer,
    SanitizerError,
)
from repro.sim.packet import Word


def _switch_with_one_packet(n=2, **cfg_kwargs):
    cfg = PipelinedSwitchConfig(n=n, addresses=8, **cfg_kwargs)
    src = TracePacketSource(
        n_out=n, packet_words=cfg.packet_words, schedule={0: [(0, 1)]}
    )
    return PipelinedSwitch(cfg, src), cfg


def _sanitized_switch(schedule, n=2, **cfg_kwargs):
    cfg = PipelinedSwitchConfig(n=n, addresses=8, **cfg_kwargs)
    src = TracePacketSource(n_out=n, packet_words=cfg.packet_words,
                            schedule=schedule)
    san = Sanitizer()
    return PipelinedSwitch(cfg, src, sanitizer=san), cfg, san


def test_corrupted_memory_cell_detected():
    """Flip stored bits mid-flight: payload verification must catch it."""
    sw, cfg = _switch_with_one_packet(cut_through=False)
    # Let the store wave complete, then corrupt bank 0's copy.
    sw.run(cfg.depth + 2)
    addr = next(iter(sw._departing.values())).addr if sw._departing else 0
    victim = sw.banks[0]._cells[addr] or next(
        c for c in sw.banks[0]._cells if c is not None
    )
    victim.payload ^= 0x1  # single-bit upset
    with pytest.raises(AssertionError, match="corrupted|consumed"):
        sw.run(cfg.packet_words * 6)


def test_double_wave_initiation_rejected():
    sw, cfg = _switch_with_one_packet()
    sw.control.advance()
    sw.control.initiate(ControlWord(WaveOp.READ, 0, out_link=0))
    with pytest.raises(ValueError, match="one initiation per cycle"):
        sw.control.initiate(ControlWord(WaveOp.READ, 1, out_link=1))


def test_forced_bus_contention_detected():
    sw, cfg = _switch_with_one_packet()
    sw.buses[0].drive(5, Word(1, 0, 1), "ghost-driver")
    sw.cycle = 5
    # Any wave trying to use stage-0's bus in cycle 5 now collides.
    with pytest.raises(BusContentionError):
        sw.buses[0].drive(5, Word(2, 0, 2), "real-driver")


def test_forced_bank_conflict_detected():
    sw, _ = _switch_with_one_packet()
    bank = sw.banks[0]
    bank.write(3, 0, Word(1, 0, 1))
    with pytest.raises(BankConflictError):
        bank.read(3, 0)


def test_latch_overrun_detected_without_consume():
    sw, cfg = _switch_with_one_packet()
    row = sw.in_latches[0]
    row.load(0, Word(1, 0, 1))
    with pytest.raises(LatchOverrunError):
        row.load(0, Word(2, 0, 2))


def test_sink_catches_reordered_words():
    sw, cfg = _switch_with_one_packet()
    sink = sw.sinks[0]
    sink.deliver(0, packet_uid=1, index=0, payload=0)
    with pytest.raises(AssertionError, match="out of order"):
        sink.deliver(1, packet_uid=1, index=2, payload=2)


def test_misdelivered_packet_detected():
    """Force a wave to the wrong output link: the dst check must fire."""
    sw, cfg = _switch_with_one_packet()
    real_initiate = sw.control.initiate

    def sabotage(cw):
        if cw.op is WaveOp.WRITE_CT:
            cw = ControlWord(
                cw.op, cw.addr, in_link=cw.in_link,
                out_link=(cw.out_link + 1) % cfg.n, packet_uid=cw.packet_uid,
            )
        real_initiate(cw)

    sw.control.initiate = sabotage
    with pytest.raises(AssertionError):
        sw.run(cfg.packet_words * 6)


def test_stolen_buffer_address_detected():
    """Free an address while a packet still occupies it: the manager's
    double-release check fires."""
    sw, cfg = _switch_with_one_packet(cut_through=False)
    sw.run(cfg.depth)  # store wave in flight; packet queued, not yet departing
    rec = sw.buffer.head(1)
    assert rec is not None
    sw.buffer.release(rec)  # sabotage: steal the address
    with pytest.raises(ValueError, match="double release|no queued"):
        sw.buffer.release(rec)


# -- seeded faults against the repro.drc runtime sanitizer ---------------------
#
# The sanitizer is an *independent* observer: the faults below are injected
# in ways the component models either cannot see (a duplicated control-word
# readout, a corrupted in-flight address) or would only report with their
# own unstructured exceptions.  Each test asserts the structured
# SanitizerError: the DRC code, the exact cycle, and the invariant text.


def test_sanitizer_catches_forced_double_bank_access():
    """DRC201: replay the active control words so one bank is driven twice
    in a single cycle — the single-ported-bank invariant of paper §3.2."""
    sw, cfg, san = _sanitized_switch({0: [(0, 1)]})
    real_active = sw.control.active
    sw.control.active = lambda: (lambda entries: entries + entries[:1])(real_active())
    with pytest.raises(SanitizerError) as ei:
        sw.run(cfg.packet_words * 4)
    err = ei.value
    assert err.code == BANK_CONFLICT
    # The packet arrives at cycle 0; its cut-through wave initiates — and its
    # stage-0 bank access replays — at cycle 1.
    assert err.cycle == 1
    assert err.context["bank"] == 0
    assert err.invariant == INVARIANTS[BANK_CONFLICT]
    assert san.violations == [err]


def test_sanitizer_catches_two_waves_started_same_cycle():
    """DRC202: run arbitration twice in one cycle with two pending packets —
    the one-initiation-per-cycle budget of paper §3.3."""
    sw, cfg, san = _sanitized_switch({0: [(0, 1)], 1: [(0, 0)]})
    orig = sw._arbitrate
    def arbitrate_twice(t):
        orig(t)
        orig(t)
    sw._arbitrate = arbitrate_twice
    with pytest.raises(SanitizerError) as ei:
        sw.run(cfg.packet_words * 4)
    err = ei.value
    assert err.code == DOUBLE_INITIATION
    # Both packets arrive at cycle 0 and contend at cycle 1: the first
    # arbitration pass initiates one wave, the replayed pass the other.
    assert err.cycle == 1
    assert err.context["first_packet"] != err.context["second_packet"]
    assert err.invariant == INVARIANTS[DOUBLE_INITIATION]


def test_sanitizer_catches_corrupted_bank_address():
    """DRC203: corrupt an in-flight control word's buffer address so later
    banks write a different row than stage 0 — violating the one-address-
    across-all-banks layout of paper §3.1 / figure 4."""
    sw, cfg, san = _sanitized_switch({0: [(0, 1)]}, cut_through=False)
    for _ in range(cfg.packet_words * 2):
        sw.tick()
        active = sw.control.active()
        if active:
            break
    assert active, "store wave never initiated"
    k, cw = active[0]
    sw.control._stages[k] = ControlWord(
        cw.op, cw.addr ^ 1, in_link=cw.in_link, out_link=cw.out_link,
        packet_uid=cw.packet_uid, quantum=cw.quantum,
    )
    corrupted_at = sw.cycle  # the very next tick replays the bad address
    with pytest.raises(SanitizerError) as ei:
        sw.run(2)
    err = ei.value
    assert err.code == ADDRESS_MISMATCH
    assert err.cycle == corrupted_at
    assert err.context["expected_addr"] == cw.addr
    assert err.context["actual_addr"] == cw.addr ^ 1
    assert err.context["packet"] == cw.packet_uid
    assert err.invariant == INVARIANTS[ADDRESS_MISMATCH]


def test_sanitizer_catches_lost_packet():
    """DRC204: drop a packet from the in-flight ledger without delivering
    it — conservation (injected = delivered + dropped + in flight) breaks
    at the end of that same cycle."""
    sw, cfg, san = _sanitized_switch({0: [(0, 1)]})
    sw.run(2)
    assert sw._sent, "packet should be in flight"
    del sw._sent[next(iter(sw._sent))]
    lost_at = sw.cycle
    with pytest.raises(SanitizerError) as ei:
        sw.run(1)
    err = ei.value
    assert err.code == CONSERVATION
    assert err.cycle == lost_at
    assert err.context["injected"] == 1
    assert err.context["in_flight"] == 0
    assert err.invariant == INVARIANTS[CONSERVATION]


def test_sanitizer_halt_false_records_instead_of_raising():
    """With halt=False the sweep-friendly mode records every violation."""
    cfg = PipelinedSwitchConfig(n=2, addresses=8)
    src = TracePacketSource(n_out=2, packet_words=cfg.packet_words,
                            schedule={0: [(0, 1)]})
    san = Sanitizer(halt=False)
    sw = PipelinedSwitch(cfg, src, sanitizer=san)
    sw.run(2)
    del sw._sent[next(iter(sw._sent))]  # conservation breaks every cycle now
    sw.run(3)  # no raise
    assert len(san.violations) == 3
    assert all(v.code == CONSERVATION for v in san.violations)
    assert san.summary()["violations"] == 3


def test_sanitizer_clean_run_stays_silent():
    """The checked kernel at full pressure never trips the sanitizer — the
    executable form of the paper's §3.2-§3.3 correctness argument."""
    sw, cfg, san = _sanitized_switch(
        {0: [(0, 1), (2, 1), (4, 0)], 1: [(0, 0), (1, 1)]}
    )
    sw.run(cfg.packet_words * 8)
    sw.drain()
    assert san.violations == []
    assert san.injected == 5
    assert san.injected == san.delivered + san.dropped
