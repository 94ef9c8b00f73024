"""Shared telemetry plumbing for the two pipelined-switch kernels.

:class:`SwitchTelemetryMixin` owns everything that must behave *identically*
in the checked :class:`~repro.core.switch.PipelinedSwitch` and the batch
:class:`~repro.core.batchpath.BatchPipelinedSwitch`: metric-handle
resolution, wave/drop emission, and the periodic occupancy sample.  Keeping
it in one place is what makes "checked and batch telemetry are equivalent"
a structural property rather than two copies drifting apart — the kernels
only provide :meth:`_telemetry_state`, their view of occupancy/free/credits
at the sampling instant.

Sampling instant: the *start* of a cycle, before any of the cycle's waves,
deliveries or arrivals.  The checked model reaches that state through its
phase machinery, the batch kernel through its window logs; the equivalence
tests compare the sampled series element by element.
"""

from __future__ import annotations

from repro.drc.sanitizer import NULL_SANITIZER, NullSanitizer, Sanitizer
from repro.telemetry import (
    CUT_THROUGH,
    DROP,
    NULL_TELEMETRY,
    READ_WAVE,
    STORE_WAVE,
    Telemetry,
)


#: Exposition help text, registered once per attach so every exporter and
#: the live /metrics endpoint emit the same ``# HELP`` lines.
METRIC_HELP: dict[str, str] = {
    "repro_port_arrivals_total":
        "Packets whose head word reached the input latch, per input port.",
    "repro_port_departures_total":
        "Packets whose tail word left the output link, per output port.",
    "repro_port_drops_total":
        "Packets lost, per input port and drop-taxonomy cause.",
    "repro_waves_total":
        "Wave chains admitted, per wave operation (write/write_ct/read).",
    "repro_idle_cycles_total":
        "Cycles in which no wave chain was admitted.",
    "repro_deadline_overrides_total":
        "Write waves admitted under the b-cycle latch deadline (paper 3.5).",
    "repro_bank_accesses_total":
        "Single-ported bank accesses attributed at wave admission, per bank.",
    "repro_buffer_occupancy":
        "Buffer words in use at the last telemetry sample.",
    "repro_buffer_free_addresses":
        "Free buffer addresses at the last telemetry sample.",
    "repro_buffer_peak_occupancy":
        "High-water mark of buffer addresses in use, updated at every "
        "allocation since the start of the run.",
    "repro_ct_latency_cycles":
        "Cut-through latency (head-out minus head-in) in cycles.",
    "repro_input_credits":
        "Input credit level at the last telemetry sample, per input port.",
    "repro_downstream_credits":
        "Downstream credit level at the last telemetry sample, per output.",
    "repro_port_queue_depth":
        "Packets stored awaiting their read wave, per output port.",
    "repro_cycle":
        "Simulation cycle at the last telemetry sample.",
    "repro_trace_ended_cycle":
        "Cycle at which a trace source exhausted and the run terminated "
        "early; absent unless trace replay ended.",
}


class SwitchTelemetryMixin:
    """Collection sites shared by both pipelined-memory kernels."""

    telemetry: Telemetry
    _tel: bool
    sanitizer: Sanitizer | NullSanitizer
    _san: bool
    #: SHA-256 of the spec this switch runs, written into its checkpoints
    #: so that a resume can tell them from those of an edited spec (the
    #: sweep runner sets it); None leaves checkpoints unstamped.
    spec_hash: str | None = None

    def attach_sanitizer(self, sanitizer: Sanitizer | None) -> None:
        """Point this switch's invariant hooks at ``sanitizer``.

        Same null-object discipline as :meth:`attach_telemetry`: detached
        (the default) reduces every hook site to one cached boolean test,
        so the sanitizer costs nothing unless ``--sanitize`` asked for it.
        """
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self._san = self.sanitizer.enabled

    def attach_telemetry(self, telemetry: Telemetry | None) -> None:
        """Point this switch's collection sites at ``telemetry``.

        Must be called before ``run``; a disabled bundle (the default)
        reduces every site to one cached boolean test.  Handles for the
        metric families are resolved once here so the per-cycle path never
        touches the registry.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry.enabled
        if not self._tel:
            return
        m = self.telemetry.metrics
        n, b = self.config.n, self.config.depth
        # Every handle resolved below is re-resolved on (re)attach — restore
        # reattaches telemetry first, so none of them belong in a snapshot.
        for fam, text in METRIC_HELP.items():
            m.describe(fam, text)
        self._m_arrivals = [m.counter("repro_port_arrivals_total", port=i)
                            for i in range(n)]
        self._m_departures = [m.counter("repro_port_departures_total", port=j)
                              for j in range(n)]
        self._m_drops = {}
        self._m_waves = {
            STORE_WAVE: m.counter("repro_waves_total", op="write"),
            CUT_THROUGH: m.counter("repro_waves_total", op="write_ct"),
            READ_WAVE: m.counter("repro_waves_total", op="read"),
        }
        self._m_idle = m.counter("repro_idle_cycles_total")
        self._m_deadline = m.counter("repro_deadline_overrides_total")
        self._m_bank = [m.counter("repro_bank_accesses_total", bank=f"M{k}")
                        for k in range(b)]
        self._m_occupancy = m.gauge("repro_buffer_occupancy")
        self._m_free = m.gauge("repro_buffer_free_addresses")
        self._m_peak = m.gauge("repro_buffer_peak_occupancy")
        self._m_latency = m.histogram("repro_ct_latency_cycles")
        self._m_in_credits = [m.gauge("repro_input_credits", port=i)
                              for i in range(n)]
        self._m_out_credits = [m.gauge("repro_downstream_credits", port=j)
                               for j in range(n)]
        self._m_qdepth = [m.gauge("repro_port_queue_depth", port=j)
                          for j in range(n)]
        self._m_cycle = m.gauge("repro_cycle")
        # Running drop taxonomy (cause -> count), kept alongside the lazily
        # created counters so the series sampler reads it in O(causes).
        # Rebuilt from the registry on re-attach (checkpoint restore), where
        # the counters already carry the pre-snapshot counts.
        self._drop_tax = self.telemetry.drop_taxonomy()

    def _queue_depths(self) -> list[int]:
        """Stored-awaiting-read packet count per output port at the
        start-of-cycle sampling instant."""
        raise NotImplementedError

    # -- kernel-provided view ------------------------------------------------
    def _telemetry_state(self) -> tuple[int, int, list[int]]:
        """(buffer occupancy, free addresses, per-input credit levels) at the
        start-of-cycle sampling instant."""
        raise NotImplementedError

    def _peak_occupancy(self) -> int:
        """High-water mark of addresses in use, updated at every allocation.

        Both kernels see releases become visible at the same arbitration
        instants (the batch kernel's due releases reproduce the checked
        model's phase-3 frees), so tracking the maximum after each write
        admission yields exactly ``BufferManager.peak_occupancy``.
        """
        raise NotImplementedError

    # -- shared emission helpers ----------------------------------------------
    def _emit_wave(self, t: int, kind: str, uid: int, src: int, dst: int) -> None:
        """Telemetry consequences of one wave admission, for the checked
        kernel.

        Bank access counts are attributed here, at admission — each wave
        chain touches every bank ``quanta`` times (the word-level truth of
        when each bank executes is the WaveTracer's job, not the metrics
        registry's).  The batch kernel does not call this: it emits the
        wave events from its window log and settles the wave and bank
        counters once per flush, with the same closed form.
        """
        self.telemetry.events.emit(t, kind, uid, src=src, dst=dst)
        self._m_waves[kind].inc()
        q = self.config.quanta
        for bank in self._m_bank:
            bank.inc(q)

    def _emit_drop(self, t: int, i: int, uid: int, dst: int, cause: str) -> None:
        self.telemetry.events.emit(t, DROP, uid, src=i, dst=dst, cause=cause)
        self._drop_tax[cause] = self._drop_tax.get(cause, 0) + 1
        key = (i, cause)
        counter = self._m_drops.get(key)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "repro_port_drops_total", port=i, cause=cause
            )
            self._m_drops[key] = counter
        counter.inc()

    def _emit_trace_ended(self, t: int) -> None:
        """Surface trace-replay exhaustion on the metrics registry.

        Created lazily at the stamping site, not at attach, so runs that
        never exhaust a trace expose no NaN-valued gauge.
        """
        self.telemetry.metrics.gauge("repro_trace_ended_cycle").set(t)

    def _sample_telemetry(self, t: int) -> None:
        occ, free, in_credits = self._telemetry_state()
        self.telemetry.sample(t, occ)
        self._m_occupancy.set(occ)
        self._m_free.set(free)
        self._m_peak.set(self._peak_occupancy())
        self._m_cycle.set(t)
        depths = self._queue_depths()
        for gauge, depth in zip(self._m_qdepth, depths):
            gauge.set(depth)
        for gauge, credits in zip(self._m_in_credits, in_credits):
            gauge.set(credits)
        for gauge, credits in zip(self._m_out_credits, self._out_credits):
            gauge.set(credits)
        series = self.telemetry.series
        if series is not None:
            series.record(t, occ, free, depths, self._drop_tax)
