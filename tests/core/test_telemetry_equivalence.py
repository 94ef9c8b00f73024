"""Checked-vs-batch telemetry equivalence, and trace-vs-tracer agreement.

The batch kernel derives every lifecycle event in closed form from wave
admission cycles; the checked kernel emits them as the words actually move.
These tests pin the two streams to each other *event for event* on the
benchmark suite's E15/E13 workload shapes — a much finer equivalence than
the end-of-run statistics `test_batchpath.py` already enforces.  Intra-cycle
emission order is not part of the contract, so streams are compared in
canonical sorted order.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BatchPipelinedSwitch,
    BatchRenewalSource,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    SaturatingSource,
)
from repro.core.tracing import WaveTracer
from repro.sim.packet import reset_packet_ids
from repro.telemetry import NULL_EVENTS, EventLog, MetricsRegistry, Telemetry
from repro.telemetry.export import (
    chrome_trace_from_events,
    chrome_trace_from_tracer,
    validate_chrome_trace,
)

# The benchmark suite's experiment shapes (benchmarks/record.py): E15 is the
# paper's drop-tail shared buffer, E13 adds credit flow control.  Renewal
# rows run on the per-link tape, which both kernels consume.  The last
# column holds run options: ``warmup``, and ``cycles`` as a tuple of
# ``run()`` calls, whose 256-cycle batch windows straddle the cuts.
MATRIX = [
    pytest.param(dict(n=8, addresses=128), "renewal", 0.6, 1, True, {},
                 id="e15-8x8-drop-tail"),
    pytest.param(dict(n=4, addresses=8), "saturating", 1.0, 3, True, {},
                 id="e15-4x4-droppy"),
    pytest.param(dict(n=8, addresses=256, credit_flow=True), "renewal",
                 1.0, 2, False, {}, id="e13-8x8-credits-load1.0"),
    pytest.param(dict(n=8, addresses=256, credit_flow=True), "renewal",
                 0.8, 3, False, {}, id="e13-8x8-credits-load0.8"),
    pytest.param(dict(n=4, addresses=32, quanta=2), "renewal", 0.6, 1, True,
                 {}, id="multi-quantum"),
    pytest.param(dict(n=4, addresses=64, link_pipeline_stages=2), "renewal",
                 0.6, 1, True, {}, id="wire-pipelined"),
    # Departures before warmup count on the port counters, not in
    # stats.delivered; the latency histogram keeps only arrivals after it.
    pytest.param(dict(n=8, addresses=128), "renewal", 0.9, 4, True,
                 {"warmup": 400}, id="warmup"),
    pytest.param(dict(n=4, addresses=32, cut_through=False), "renewal",
                 0.8, 5, True, {}, id="store-and-forward"),
    pytest.param(dict(n=8, addresses=128), "renewal", 0.95, 6, True,
                 {"warmup": 500, "cycles": (300, 333, 1, 866)},
                 id="split-runs"),
]


def _run(batch: bool, cfg_kwargs: dict, source: str, load: float, seed: int,
         drain: bool, opts: dict | None = None, events: bool = True):
    """One run of either kernel; ``opts`` as in :data:`MATRIX`."""
    opts = opts or {}
    # Both kernels must number packets identically for the streams to be
    # comparable; the checked model draws uids from the global counter.
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(**cfg_kwargs)
    if source == "saturating":
        src = SaturatingSource(n_out=cfg.n, packet_words=cfg.packet_words,
                               seed=seed)
    else:
        src = BatchRenewalSource(n_out=cfg.n, packet_words=cfg.packet_words,
                                 load=load, width_bits=cfg.width_bits,
                                 seed=seed)
    tel = (Telemetry.on(sample_interval=32) if events
           else Telemetry(MetricsRegistry(), NULL_EVENTS, 32))
    if batch:
        sw = BatchPipelinedSwitch(cfg, src, telemetry=tel, batch_cycles=256)
    else:
        sw = PipelinedSwitch(cfg, src, telemetry=tel)
    sw.warmup = opts.get("warmup", 0)
    cycles = opts.get("cycles", 1500)
    for piece in cycles if isinstance(cycles, tuple) else (cycles,):
        sw.run(piece)
    if drain:
        sw.drain()
    return sw, tel


class TestCheckedBatchTelemetry:
    @pytest.mark.parametrize("cfg_kwargs,source,load,seed,drain,opts", MATRIX)
    def test_event_streams_identical(self, cfg_kwargs, source, load, seed,
                                     drain, opts):
        _, tel_slow = _run(False, cfg_kwargs, source, load, seed, drain, opts)
        _, tel_batch = _run(True, cfg_kwargs, source, load, seed, drain, opts)
        assert tel_slow.events.sorted_events() == tel_batch.events.sorted_events()

    @pytest.mark.parametrize("cfg_kwargs,source,load,seed,drain,opts", MATRIX)
    def test_aggregations_and_metrics_identical(self, cfg_kwargs, source,
                                                load, seed, drain, opts):
        """Both kernels, with the event log on and off, collect the same
        taxonomy, samples and metrics: every counter, and the latency
        histogram's bucket counts, sum, min and max."""
        views = []
        for events in (True, False):
            for batch in (False, True):
                _, tel = _run(batch, cfg_kwargs, source, load, seed, drain,
                              opts, events=events)
                assert tel.events.enabled is events
                views.append((tel.drop_taxonomy(), tel.samples,
                              tel.metrics.as_dict()))
        assert all(view == views[0] for view in views[1:])

    def test_droppy_run_actually_drops(self):
        """Guard: the droppy matrix row exercises the drop taxonomy."""
        _, tel = _run(True, dict(n=4, addresses=8), "saturating", 1.0, 3, True)
        assert sum(tel.drop_taxonomy().values()) > 0

    @pytest.mark.parametrize("cfg_kwargs,source,load,seed,drain,opts",
                             [p for p in MATRIX
                              if p.id in ("warmup", "split-runs")])
    def test_warmup_rows_depart_before_warmup(self, cfg_kwargs, source, load,
                                              seed, drain, opts):
        """Guard: the warmup rows have departures before warmup, which
        the port counters count and ``stats.delivered`` does not, and
        latencies of packets that arrived before it, which the histogram
        leaves out."""
        sw, tel = _run(True, cfg_kwargs, source, load, seed, drain, opts,
                       events=False)
        metrics = tel.metrics.as_dict()
        departed = sum(v for k, v in metrics.items()
                       if k.startswith("repro_port_departures_total"))
        assert departed > sw.stats.delivered > 0
        latency = metrics["repro_ct_latency_cycles"]
        assert 0 < latency["total"] < departed

    @pytest.mark.parametrize("events", [False, True],
                             ids=["metrics-only", "events"])
    def test_event_logs_only_with_an_event_channel(self, events):
        """Metrics-only windows build no wave or arrival log, so a long
        window holds no per-packet record; with an event channel the logs
        fill in every window and the run's flush empties them."""
        sizes = []

        def record_sizes(sw):
            advance = sw._advance_window

            def wrapped(*args, **kwargs):
                advance(*args, **kwargs)
                sizes.append((len(sw._wave_log), len(sw._arrive_log)))
            sw._advance_window = wrapped

        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=8, addresses=128)
        src = BatchRenewalSource(n_out=8, packet_words=cfg.packet_words,
                                 load=0.8, seed=1)
        tel = Telemetry(MetricsRegistry(),
                        EventLog() if events else NULL_EVENTS, 32)
        sw = BatchPipelinedSwitch(cfg, src, telemetry=tel, batch_cycles=256)
        record_sizes(sw)
        sw.run(1500)
        sw.drain()
        assert len(sizes) > 6  # one per window, the drain's included
        if events:
            assert all(waves and arrivals for waves, arrivals in sizes[:5])
        else:
            assert set(sizes) == {(0, 0)}
        assert not sw._wave_log and not sw._arrive_log

    def test_event_counts_match_stats(self):
        sw, tel = _run(True, dict(n=8, addresses=128), "renewal", 0.6, 1, True)
        counts = tel.events.counts_by_kind()
        assert counts.get("arrive", 0) == sw.stats.offered
        assert counts.get("depart", 0) == sw.stats.delivered
        assert counts.get("drop", 0) == sw.stats.dropped
        assert counts.get("cut_through", 0) == sw.cut_through_waves
        assert counts.get("read_wave", 0) == sw.plain_read_waves
        assert counts.get("store_wave", 0) == sw.write_waves

    def test_telemetry_off_by_default_and_state_unchanged(self):
        """A telemetry-carrying run is the *same simulation*: identical
        statistics to a bare run, and the default bundle collects nothing."""
        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=4, addresses=32)
        src = BatchRenewalSource(n_out=4, packet_words=cfg.packet_words,
                                 load=0.6, seed=1)
        bare = PipelinedSwitch(cfg, src)
        bare.run(1000)
        assert not bare.telemetry.enabled
        assert len(bare.telemetry.events) == 0
        sw, tel = _run(False, dict(n=4, addresses=32), "renewal", 0.6, 1,
                       False, {"cycles": 1000})
        assert sw.stats == bare.stats


class TestSampledObservability:
    """The observability plane must not depend on the kernel tier: sampled
    span streams and series rows are bit-identical across checked and
    batch, and sampling composes with the existing event equivalence."""

    OBS_MATRIX = [
        pytest.param(dict(n=8, addresses=128), 0.6, 1, id="e15-8x8"),
        pytest.param(dict(n=4, addresses=8), 1.0, 3, id="4x4-droppy"),
        pytest.param(dict(n=4, addresses=32, quanta=2), 0.6, 1,
                     id="multi-quantum"),
    ]

    def _run_obs(self, kernel: str, cfg_kwargs: dict, load: float, seed: int,
                 cycles: int = 1200, rate: float = 0.3):
        from repro.obs.sampling import SampledEventLog
        from repro.obs.series import SeriesRing

        reset_packet_ids()
        cfg = PipelinedSwitchConfig(**cfg_kwargs)
        # the tape-consumable source feeds both kernels identically
        src = BatchRenewalSource(n_out=cfg.n, packet_words=cfg.packet_words,
                                 load=load, width_bits=cfg.width_bits,
                                 seed=seed)
        tel = Telemetry(MetricsRegistry(), SampledEventLog(rate, seed=seed),
                        32, series=SeriesRing(capacity=64))
        cls = {"checked": PipelinedSwitch,
               "batch": BatchPipelinedSwitch}[kernel]
        sw = cls(cfg, src, telemetry=tel)
        sw.run(cycles)
        sw.drain()
        return sw, cfg, tel

    @pytest.mark.parametrize("cfg_kwargs,load,seed", OBS_MATRIX)
    def test_sampled_streams_and_spans_identical_both_kernels(
            self, cfg_kwargs, load, seed):
        from repro.obs.spans import spans_from_events

        runs = {k: self._run_obs(k, cfg_kwargs, load, seed)
                for k in ("checked", "batch")}
        streams = {k: tel.events.sorted_events()
                   for k, (_, _, tel) in runs.items()}
        assert streams["checked"] == streams["batch"]
        assert streams["checked"]  # the rate actually sampled something
        spans = {}
        for k, (sw, cfg, tel) in runs.items():
            spans[k] = spans_from_events(tel.events.sorted_events(),
                                         depth=cfg.depth, quanta=cfg.quanta,
                                         horizon=sw.cycle)
        assert spans["checked"] == spans["batch"]

    @pytest.mark.parametrize("cfg_kwargs,load,seed", OBS_MATRIX)
    def test_series_rows_identical_both_kernels(self, cfg_kwargs, load,
                                                 seed):
        rows = {}
        for k in ("checked", "batch"):
            _, _, tel = self._run_obs(k, cfg_kwargs, load, seed)
            rows[k] = list(tel.series.rows)
            assert tel.series.to_jsonl() == tel.series.to_jsonl()
        assert rows["checked"] == rows["batch"]
        assert rows["checked"]

    def test_droppy_series_sees_taxonomy(self):
        """Guard: the droppy row exercises cumulative per-cause columns at
        the sample instant (drops stamped <= t-1 visible at sample t)."""
        sw, _, tel = self._run_obs("batch", dict(n=4, addresses=8), 1.0, 3)
        last = tel.series.latest()
        assert sum(dict(last[4]).values()) > 0
        assert sum(dict(last[4]).values()) <= sw.stats.dropped

    def test_sampling_composes_with_statistics(self):
        """A sampled-tracing run is the same simulation as an untraced one."""
        sw_obs, _, _ = self._run_obs("batch", dict(n=8, addresses=128), 0.6, 1)
        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=8, addresses=128)
        src = BatchRenewalSource(n_out=8, packet_words=cfg.packet_words,
                                 load=0.6, width_bits=cfg.width_bits, seed=1)
        bare = BatchPipelinedSwitch(cfg, src)
        bare.run(1200)
        bare.drain()
        assert sw_obs.stats == bare.stats


class TestTraceVsTracer:
    def test_closed_form_bank_slices_match_word_level_truth(self):
        """chrome_trace_from_events (figure-5 arithmetic) must paint exactly
        the bank occupancy the checked model's WaveTracer recorded."""
        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=4, addresses=64)
        src = RenewalPacketSource(n_out=4, packet_words=cfg.packet_words,
                                  load=0.6, seed=1)
        tel = Telemetry.on()
        tracer = WaveTracer(PipelinedSwitch(cfg, src, telemetry=tel))
        tracer.run(400)
        horizon = tracer.switch.cycle

        def bank_cells(trace):
            return {
                (e["tid"], e["ts"], e["args"]["uid"], e["args"]["kind"])
                for e in trace["traceEvents"]
                if e["ph"] == "X" and e.get("cat") == "wave"
            }

        from_events = chrome_trace_from_events(
            tel.events, depth=cfg.depth, quanta=cfg.quanta, n=cfg.n,
            horizon=horizon,
        )
        from_tracer = chrome_trace_from_tracer(tracer)
        validate_chrome_trace(from_events)
        validate_chrome_trace(from_tracer)
        assert bank_cells(from_events) == bank_cells(from_tracer)

    def test_trace_shows_staggered_diagonal(self):
        """Acceptance shape: one track per bank, at most one slice starting
        per cycle on M0 (validate_chrome_trace raises otherwise)."""
        reset_packet_ids()
        cfg = PipelinedSwitchConfig(n=4, addresses=64)
        src = RenewalPacketSource(n_out=4, packet_words=cfg.packet_words,
                                  load=0.9, seed=2)
        tel = Telemetry.on()
        sw = PipelinedSwitch(cfg, src, telemetry=tel)
        sw.run(300)
        sw.drain()
        trace = chrome_trace_from_events(
            tel.events, depth=cfg.depth, quanta=cfg.quanta, n=cfg.n,
            horizon=sw.cycle,
        )
        validate_chrome_trace(trace)
        bank_tids = {e["tid"] for e in trace["traceEvents"]
                     if e["ph"] == "X" and e.get("cat") == "wave"}
        assert bank_tids == set(range(cfg.depth))
