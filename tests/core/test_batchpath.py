"""Equivalence of the array-batched kernel with the checked kernel.

`BatchPipelinedSwitch` must reproduce the checked `PipelinedSwitch` *bit
for bit* — statistics, latency accumulators (Welford means compared as
exact floats), wave/idle/drop counters, drain lengths, and the telemetry
event stream — on every configuration it claims to model, for every batch
size.  Correctness must be independent of ``batch_cycles``, which the
matrix asserts by sweeping it (including ``batch_cycles=1`` and windows
larger than the horizon); batch-boundary edge cases (a wave straddling a
window, drain or warmup landing mid-batch) are pinned explicitly.

The tape-consumable sources are part of the contract: `BatchRenewalSource`
must produce the same arrival stream whether polled cycle by cycle
(checked kernel) or consumed in vectorized batches (batch kernel),
which is what makes cross-kernel equivalence on the same object possible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchPipelinedSwitch,
    BatchRenewalSource,
    DeadlineMissedError,
    FastPathUnsupportedError,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    Priority,
    RenewalPacketSource,
    SaturatingSource,
    make_pipelined_switch,
)
from repro.core.batchpath import batch_refusal
from repro.drc.sanitizer import Sanitizer
from repro.sim.packet import reset_packet_ids
from repro.telemetry import Telemetry


def _renewal(cfg, load, seed):
    return BatchRenewalSource(
        n_out=cfg.n, packet_words=cfg.packet_words, load=load,
        width_bits=cfg.width_bits, seed=seed,
    )


def _saturating(cfg, load, seed):
    return SaturatingSource(n_out=cfg.n, packet_words=cfg.packet_words, seed=seed)


def _fingerprint(sw) -> dict:
    return {
        "stats": sw.stats,
        "ct_latency": sw.ct_latency,
        "ct_latency_hist": sw.ct_latency_hist,
        "total_latency": sw.total_latency,
        "stagger_extra": sw.stagger_extra,
        "cut_through_waves": sw.cut_through_waves,
        "plain_read_waves": sw.plain_read_waves,
        "write_waves": sw.write_waves,
        "idle_cycles": sw.idle_cycles,
        "deadline_overrides": sw.deadline_overrides,
        "overrun_drops": sw.overrun_drops,
        "cycle": sw.cycle,
        "link_utilization": sw.link_utilization,
    }


#: the shapes the batch kernel supports, E15/E13-flavoured plus every
#: feature interaction it models (quanta chains, store-and-forward,
#: downstream credits, wire pipelining, n > 12 — the first widths past the
#: eager 2**n mask tables an earlier engine used — and input credit flow,
#: with default credits and with tight ones that mute links every few
#: packets, alone and combined with the other features)
MATRIX = [
    pytest.param(dict(n=8, addresses=128), _renewal, 0.6, 1, 400,
                 id="e15-8x8-drop-tail"),
    pytest.param(dict(n=4, addresses=8), _saturating, 1.0, 3, 0,
                 id="e15-4x4-droppy"),
    pytest.param(dict(n=4, addresses=64, cut_through=False), _renewal,
                 0.7, 2, 0, id="store-and-forward"),
    pytest.param(dict(n=4, addresses=32, quanta=2), _renewal, 0.6, 1, 100,
                 id="multi-quantum"),
    pytest.param(dict(n=4, addresses=64, downstream_credits=2,
                      downstream_rtt=7), _renewal, 0.8, 4, 0,
                 id="downstream-credits"),
    pytest.param(dict(n=4, addresses=64, link_pipeline_stages=2), _renewal,
                 0.6, 1, 0, id="wire-pipelined"),
    pytest.param(dict(n=16, addresses=256), _saturating, 1.0, 6, 200,
                 id="16x16-saturated-general-engine"),
    pytest.param(dict(n=13, addresses=104), _renewal, 0.8, 5, 100,
                 id="13x13-past-mask-table-limit"),
    pytest.param(dict(n=8, addresses=256, credit_flow=True), _renewal, 1.0,
                 8, 200, id="credits-8x8-default"),
    pytest.param(dict(n=4, addresses=32, credit_flow=True,
                      credits_per_input=1), _renewal, 0.9, 3, 0,
                 id="credits-tight-1"),
    pytest.param(dict(n=4, addresses=32, credit_flow=True,
                      credits_per_input=2), _renewal, 0.8, 2, 100,
                 id="credits-tight-2"),
    pytest.param(dict(n=4, addresses=64, credit_flow=True,
                      credits_per_input=2, downstream_credits=2,
                      downstream_rtt=7), _renewal, 0.9, 4, 0,
                 id="credits-downstream"),
    pytest.param(dict(n=4, addresses=64, quanta=2, credit_flow=True,
                      credits_per_input=2), _renewal, 0.9, 1, 0,
                 id="credits-multi-quantum"),
    pytest.param(dict(n=4, addresses=64, cut_through=False,
                      credit_flow=True, credits_per_input=2), _renewal, 0.8,
                 2, 0, id="credits-store-and-forward"),
]

BATCH_SIZES = (1, 7, 256, 4096)


def _run_reference(kernel_cls, cfg, make_source, load, seed, warmup,
                   cycles=1200, rerun=500, telemetry=None):
    reset_packet_ids()
    sw = kernel_cls(cfg, make_source(cfg, load, seed), telemetry=telemetry)
    sw.warmup = warmup
    sw.run(cycles)
    d1 = sw.drain()
    sw.run(rerun)
    d2 = sw.drain()
    return sw, (d1, d2)


def _run_batch(cfg, make_source, load, seed, warmup, batch,
               cycles=1200, rerun=500, telemetry=None):
    reset_packet_ids()
    sw = BatchPipelinedSwitch(cfg, make_source(cfg, load, seed),
                              telemetry=telemetry, batch_cycles=batch)
    sw.warmup = warmup
    sw.run(cycles)
    d1 = sw.drain()
    sw.run(rerun)
    d2 = sw.drain()
    return sw, (d1, d2)


def _assert_fp_equal(want_fp, got_fp, label):
    for key, want in want_fp.items():
        got = got_fp[key]
        assert got == want, f"{label} {key}: want={want!r} got={got!r}"


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("cfg_kwargs,make_source,load,seed,warmup", MATRIX)
    def test_bit_identical_to_checked(self, cfg_kwargs, make_source, load,
                                      seed, warmup):
        cfg = PipelinedSwitchConfig(**cfg_kwargs)
        checked, drains_c = _run_reference(PipelinedSwitch, cfg, make_source,
                                           load, seed, warmup)
        fp = _fingerprint(checked)
        for batch in BATCH_SIZES:
            batch_sw, drains_b = _run_batch(cfg, make_source, load, seed,
                                            warmup, batch)
            _assert_fp_equal(fp, _fingerprint(batch_sw), f"batch={batch}")
            assert drains_b == drains_c, f"batch={batch} drain lengths differ"


    def test_credit_overrun_raises_like_the_oracle(self):
        # More credits than buffer addresses: a store misses its deadline,
        # which credit flow promises never happens, so every kernel raises
        # the same DeadlineMissedError instead of counting a drop.
        cfg = PipelinedSwitchConfig(n=2, addresses=2, credit_flow=True,
                                    credits_per_input=4)
        errors = set()
        for kernel in ("checked", "batch"):
            reset_packet_ids()
            sw = make_pipelined_switch(cfg, _renewal(cfg, 1.0, 1),
                                       kernel=kernel)
            with pytest.raises(DeadlineMissedError) as info:
                sw.run(2000)
            errors.add(str(info.value))
        assert len(errors) == 1


class TestTelemetryEquivalence:
    @pytest.mark.parametrize("cfg_kwargs,make_source,load,seed,warmup",
                             MATRIX)
    def test_event_streams_and_samples_identical(self, cfg_kwargs,
                                                 make_source, load, seed,
                                                 warmup, cycles=1500):
        def run(kernel):
            reset_packet_ids()
            cfg = PipelinedSwitchConfig(**cfg_kwargs)
            tel = Telemetry.on(sample_interval=32)
            if kernel == "batch":
                sw = BatchPipelinedSwitch(cfg, make_source(cfg, load, seed),
                                          telemetry=tel, batch_cycles=256)
            else:
                sw = PipelinedSwitch(cfg, make_source(cfg, load, seed),
                                     telemetry=tel)
            sw.warmup = warmup
            sw.run(cycles)
            sw.drain()
            return tel

        ref = run("checked")
        tel = run("batch")
        assert ref.events.sorted_events() == tel.events.sorted_events(), \
            "checked/batch event streams diverge"
        assert ref.drop_taxonomy() == tel.drop_taxonomy()
        assert ref.samples == tel.samples
        assert ref.metrics.as_dict() == tel.metrics.as_dict()


class TestBatchBoundaries:
    """Batch-window edges: the cases where batching could plausibly leak."""

    def test_wave_straddles_window_boundary(self):
        # batch_cycles=10 with 16-word packets guarantees every wave spans
        # a window edge; the due/pending machinery must carry it across.
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        ref, drains_ref = _run_batch(cfg, _renewal, 0.7, 9, 0, 4096,
                                     cycles=800)
        sw, drains = _run_batch(cfg, _renewal, 0.7, 9, 0, 10, cycles=800)
        _assert_fp_equal(_fingerprint(ref), _fingerprint(sw), "straddle")
        assert drains == drains_ref

    def test_warmup_lands_mid_batch(self):
        # warmup=333 inside a 256-cycle window: admission/delivery gating
        # must follow the cycle, not the window.
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        reset_packet_ids()
        checked = PipelinedSwitch(cfg, _renewal(cfg, 0.8, 5))
        checked.warmup = 333
        checked.run(1000)
        checked.drain()
        sw, _ = _run_batch(cfg, _renewal, 0.8, 5, 333, 256, cycles=1000,
                           rerun=0)
        _assert_fp_equal(_fingerprint(checked), _fingerprint(sw), "warmup")

    def test_drain_then_rerun_at_every_small_batch(self):
        # run/drain/run/drain at batch sizes 1..5: the drain loop's
        # closed-form final step and the tape's resume_idle re-anchor must
        # agree with the per-cycle oracle regardless of window phase.
        cfg = PipelinedSwitchConfig(n=3, addresses=24)
        checked, drains_c = _run_reference(PipelinedSwitch, cfg, _renewal,
                                           0.9, 7, 50, cycles=357, rerun=123)
        fp = _fingerprint(checked)
        for batch in range(1, 6):
            sw, drains_b = _run_batch(cfg, _renewal, 0.9, 7, 50, batch,
                                      cycles=357, rerun=123)
            _assert_fp_equal(fp, _fingerprint(sw), f"batch={batch}")
            assert drains_b == drains_c

    def test_credit_drain_then_rerun_at_every_small_batch(self):
        # run/drain/run/drain under tight credits: links muted when the
        # drain starts, and links whose arrivals a resume pushed past the
        # window, must poll again exactly where the per-cycle oracle does.
        cfg = PipelinedSwitchConfig(n=3, addresses=24, credit_flow=True,
                                    credits_per_input=1)
        checked, drains_c = _run_reference(PipelinedSwitch, cfg, _renewal,
                                           0.9, 7, 50, cycles=357, rerun=123)
        fp = _fingerprint(checked)
        for batch in (1, 2, 3, 5, 64, 4096, 65536):
            sw, drains_b = _run_batch(cfg, _renewal, 0.9, 7, 50, batch,
                                      cycles=357, rerun=123)
            _assert_fp_equal(fp, _fingerprint(sw), f"batch={batch}")
            assert drains_b == drains_c

    def test_tight_credits_mute_links(self):
        # The tight-credit rows exercise muting: some window ends with a
        # link muted, and some with arrivals held past the window.  Held
        # cycles are absolute at a window end: a polling link's carried
        # arrivals lie past it.
        cfg = PipelinedSwitchConfig(n=4, addresses=32, credit_flow=True,
                                    credits_per_input=1)
        sw = BatchPipelinedSwitch(cfg, _renewal(cfg, 0.9, 3), batch_cycles=16)
        muted = carried = 0
        for _ in range(100):
            sw.run(16)
            muted += any(m >= 0 for m in sw._mute_at)
            for h, m in zip(sw._held, sw._mute_at):
                if h and m < 0:
                    carried += 1
                    assert min(c for c, _ in h) >= sw.cycle
        assert muted and carried

    def test_credit_remute_in_one_large_window(self):
        # One 65,536-cycle window under tight credits: links mute again
        # while arrivals carried from an earlier resume are still pending,
        # so FIFO heads queued under a smaller shift pop early and are
        # re-queued.  The source counts those resumes (the link's FIFO still
        # holds an arrival the loop reached before its latest mute), so the
        # case cannot silently vanish.
        class Recording(BatchRenewalSource):
            switch = None
            remutes = 0

            def delay_link(self, link, cycles):
                sw = self.switch
                if sw is not None and sw._mute_at[link] >= 0:
                    self.remutes += any(c < sw._mute_at[link]
                                        for c, _ in sw._held[link])
                super().delay_link(link, cycles)

        cfg = PipelinedSwitchConfig(n=4, addresses=32, credit_flow=True,
                                    credits_per_input=1)
        checked, drains_c = _run_reference(PipelinedSwitch, cfg, _renewal,
                                           0.9, 3, 100, cycles=3000)
        reset_packet_ids()
        src = Recording(cfg.n, cfg.packet_words, load=0.9, seed=3)
        sw = BatchPipelinedSwitch(cfg, src, batch_cycles=65536)
        src.switch = sw
        sw.warmup = 100
        sw.run(3000)
        drains = [sw.drain()]
        sw.run(500)
        drains.append(sw.drain())
        assert src.remutes
        _assert_fp_equal(_fingerprint(checked), _fingerprint(sw), "remute")
        assert tuple(drains) == drains_c

    def test_window_larger_than_horizon(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        ref, _ = _run_batch(cfg, _renewal, 0.6, 2, 0, 1, cycles=600, rerun=0)
        sw, _ = _run_batch(cfg, _renewal, 0.6, 2, 0, 1 << 20, cycles=600,
                           rerun=0)
        _assert_fp_equal(_fingerprint(ref), _fingerprint(sw), "huge-window")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    addr_factor=st.integers(1, 8),
    quanta=st.integers(1, 3),
    cut_through=st.booleans(),
    credit_flow=st.booleans(),
    wirepipe=st.integers(0, 2),
    load=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
    batch=st.sampled_from((1, 3, 64, 1024, 4096, 65536)),
    telemetry=st.booleans(),
)
def test_random_configs_and_batch_sizes_identical(
    n, addr_factor, quanta, cut_through, credit_flow, wirepipe, load, seed,
    batch, telemetry,
):
    cfg = PipelinedSwitchConfig(
        n=n, addresses=n * quanta * addr_factor, quanta=quanta,
        cut_through=cut_through, credit_flow=credit_flow,
        link_pipeline_stages=wirepipe,
    )
    tel_c = Telemetry.on(sample_interval=32) if telemetry else None
    tel_b = Telemetry.on(sample_interval=32) if telemetry else None
    checked, drains_c = _run_reference(PipelinedSwitch, cfg, _renewal,
                                       load, seed, 100, telemetry=tel_c)
    sw, drains_b = _run_batch(cfg, _renewal, load, seed, 100, batch,
                              telemetry=tel_b)
    _assert_fp_equal(_fingerprint(checked), _fingerprint(sw),
                     f"batch={batch}")
    assert drains_b == drains_c
    if telemetry:
        assert tel_b.events.sorted_events() == tel_c.events.sorted_events()


class TestTapeSources:
    def test_tape_matches_scalar_polling(self):
        # The same BatchRenewalSource must describe the same arrival stream
        # through both protocols.
        src_tape = BatchRenewalSource(n_out=4, packet_words=8, load=0.7,
                                      seed=3)
        src_poll = BatchRenewalSource(n_out=4, packet_words=8, load=0.7,
                                      seed=3)
        cycles, links, dsts = src_tape.batch_arrivals(0, 400)
        tape = list(zip(cycles.tolist(), links.tolist(), dsts.tolist()))
        polled = []
        busy = [0] * 4
        for t in range(400):
            for link in range(4):
                if t < busy[link]:
                    continue
                dst = src_poll.maybe_start(t, link)
                if dst is not None:
                    polled.append((t, link, dst))
                    busy[link] = t + 8
        assert tape == polled

    def test_tape_sorted_by_cycle_then_link(self):
        src = BatchRenewalSource(n_out=8, packet_words=16, load=0.9, seed=1)
        cycles, links, _ = src.batch_arrivals(0, 2000)
        keys = list(zip(cycles.tolist(), links.tolist()))
        assert keys == sorted(keys)


class TestRefusals:
    """Refuse-don't-approximate: every unsupported shape raises cleanly."""

    def test_rejects_credit_flow(self):
        # Credit flow runs on tape sources; a per-cycle shared-stream
        # source stays refused with it, and so does the saturating tape,
        # whose links share one stream.
        cfg = PipelinedSwitchConfig(n=4, addresses=32, credit_flow=True)
        src = RenewalPacketSource(n_out=4, packet_words=cfg.packet_words,
                                  load=0.5, seed=1)
        with pytest.raises(FastPathUnsupportedError, match="arrival tape"):
            BatchPipelinedSwitch(cfg, src)
        with pytest.raises(FastPathUnsupportedError, match="credit"):
            BatchPipelinedSwitch(cfg, _saturating(cfg, 1.0, 1))
        assert batch_refusal(cfg, _renewal(cfg, 0.5, 1)) is None

    def test_rejects_unbatchable_source(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        src = RenewalPacketSource(n_out=4, packet_words=cfg.packet_words,
                                  load=0.5, seed=1)
        with pytest.raises(FastPathUnsupportedError, match="arrival tape"):
            BatchPipelinedSwitch(cfg, src)

    def test_rejects_enabled_sanitizer(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        with pytest.raises(FastPathUnsupportedError, match="sanitizer"):
            BatchPipelinedSwitch(cfg, _renewal(cfg, 0.5, 1),
                                 sanitizer=Sanitizer())

    def test_rejects_bad_batch_cycles(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        with pytest.raises(FastPathUnsupportedError, match="batch_cycles"):
            BatchPipelinedSwitch(cfg, _renewal(cfg, 0.5, 1), batch_cycles=0)

    @pytest.mark.parametrize("priority", [Priority.WRITES_FIRST,
                                          Priority.OLDEST_FIRST])
    def test_refuses_unmodeled_priority(self, priority):
        cfg = PipelinedSwitchConfig(n=4, addresses=32, priority=priority)
        with pytest.raises(FastPathUnsupportedError, match="READS_FIRST"):
            BatchPipelinedSwitch(cfg, _renewal(cfg, 0.5, 1))


class TestFactory:
    def test_factory_selects_kernel(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        assert isinstance(make_pipelined_switch(cfg, _renewal(cfg, 0.5, 1)),
                          PipelinedSwitch)

    def test_factory_selects_batch_kernel(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        sw = make_pipelined_switch(cfg, _renewal(cfg, 0.5, 1), kernel="batch",
                                   batch_cycles=128)
        assert isinstance(sw, BatchPipelinedSwitch)
        assert sw.batch_cycles == 128

    def test_factory_rejects_batch_options_elsewhere(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        with pytest.raises(ValueError, match="batch_cycles"):
            make_pipelined_switch(cfg, _renewal(cfg, 0.5, 1),
                                  kernel="checked", batch_cycles=128)
        for kernel in ("fast", "warp"):
            with pytest.raises(ValueError, match="unknown kernel"):
                make_pipelined_switch(cfg, _renewal(cfg, 0.5, 1),
                                      kernel=kernel)
