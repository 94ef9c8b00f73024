"""Unified telemetry for every switch kernel.

One :class:`Telemetry` bundle carries the three collection channels a
kernel can feed:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` of named
  counters/gauges/histograms (per-port, per-bank, per-``WaveOp``);
* a structured :class:`~repro.telemetry.events.EventLog` of packet
  lifecycle events with cycle stamps;
* a periodic occupancy time series (``samples``) taken every
  ``sample_interval`` cycles at the *start* of a cycle, before any of the
  cycle's activity — the one instant where the checked and batch kernels'
  internal bookkeeping provably coincide.

Each channel is either live or its shared null object.  A scenario builds
the event log only when it asks for events
(:func:`repro.scenario.registry.telemetry_from_spec`), and whole-run
aggregates such as :meth:`Telemetry.drop_taxonomy` read the metrics
registry, never the event log.  ``Telemetry.off()`` (the default wired
into every kernel) is the all-null bundle: collection sites are guarded by
one cached boolean, so a disabled bundle costs nothing on the hot path.
Exporters live in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.events import (
    ARRIVE,
    CUT_THROUGH,
    DEPART,
    DROP,
    DROP_BUFFER_FULL,
    DROP_CAUSES,
    DROP_HEAD_OVERRUN,
    DROP_KNOCKOUT,
    DROP_POLICY,
    DROP_QUANTUM_OVERRUN,
    READ_WAVE,
    STORE_WAVE,
    WAVE_KINDS,
    Event,
    EventLog,
    NullEventLog,
    NULL_EVENTS,
)
from repro.telemetry.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
)


@dataclass
class Telemetry:
    """The bundle a switch kernel collects into (see module docstring)."""

    metrics: MetricsRegistry | NullMetricsRegistry = field(
        default_factory=MetricsRegistry
    )
    events: EventLog | NullEventLog = field(default_factory=EventLog)
    sample_interval: int = 0  # 0 = no occupancy time series
    samples: list[tuple[int, int]] = field(default_factory=list)  # (cycle, occ)
    # Optional live time-series ring (repro.obs.series.SeriesRing); None = off.
    # Typed Any to keep telemetry importable without the observability plane.
    series: Any = None

    @property
    def enabled(self) -> bool:
        return bool(self.metrics.enabled or self.events.enabled
                    or self.sample_interval > 0 or self.series is not None)

    @classmethod
    def on(cls, sample_interval: int = 0) -> "Telemetry":
        """Fresh bundle with the metrics registry and a full event log."""
        return cls(MetricsRegistry(), EventLog(), sample_interval)

    @classmethod
    def off(cls) -> "Telemetry":
        """The shared disabled bundle (do not mutate)."""
        return NULL_TELEMETRY

    def sample(self, cycle: int, occupancy: int) -> None:
        self.samples.append((cycle, occupancy))

    def drop_taxonomy(self) -> dict[str, int]:
        """Drop cause -> count, summed over ports from the
        ``repro_port_drops_total`` counters (causes with no drop omitted).

        Every drop site bumps that counter, so this is the whole run's
        taxonomy whatever the event channel keeps.
        """
        tax: dict[str, int] = {}
        for metric in self.metrics:
            if metric.name == "repro_port_drops_total" and metric.value:
                cause = dict(metric.labels)["cause"]
                tax[cause] = tax.get(cause, 0) + metric.value
        return tax

    def occupancy_series(self) -> dict[str, float]:
        """Summary of the sampled occupancy time series."""
        if not self.samples:
            return {"samples": 0}
        values = [occ for _, occ in self.samples]
        return {
            "samples": len(values),
            "interval": self.sample_interval,
            "mean": sum(values) / len(values),
            "peak": max(values),
            "last_cycle": self.samples[-1][0],
        }


NULL_TELEMETRY = Telemetry(NULL_METRICS, NULL_EVENTS, 0)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "Event",
    "ARRIVE",
    "STORE_WAVE",
    "CUT_THROUGH",
    "READ_WAVE",
    "DEPART",
    "DROP",
    "WAVE_KINDS",
    "DROP_HEAD_OVERRUN",
    "DROP_QUANTUM_OVERRUN",
    "DROP_BUFFER_FULL",
    "DROP_KNOCKOUT",
    "DROP_POLICY",
    "DROP_CAUSES",
]
