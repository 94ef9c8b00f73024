"""Live observability plane on top of :mod:`repro.telemetry`.

Four pieces, all null-object free when off (the kernels' single cached
``_tel`` boolean still gates every collection site, so the E18
observability-off guard holds):

* :mod:`repro.obs.sampling` — deterministic packet selection by a
  seed-stable hash of the packet uid, and a :class:`SampledEventLog`
  that filters the lifecycle event stream at emit time.  Because the
  checked and batch kernels emit identical event streams, the filtered
  streams are identical by construction.
* :mod:`repro.obs.spans` — pipeline-stage spans (latch, waves,
  residency, link, drop) assembled in closed form from lifecycle
  events, exported as JSONL or through the Chrome/Perfetto path.
* :mod:`repro.obs.series` — a bounded ring buffer of time-series rows
  (occupancy, per-port queue depth, drop-taxonomy counts, wall stamps
  for cycles/s) recorded at the telemetry sample instant, exported as
  JSONL/CSV and carried through :mod:`repro.checkpoint` snapshots.
* :mod:`repro.obs.server` / :mod:`repro.obs.top` — a Prometheus
  ``/metrics`` HTTP endpoint aggregating registries across sweep
  workers, and the ``repro top`` live dashboard that scrapes it.

:mod:`repro.obs.promparse` is the shared mini promtool: it parses and
validates the text exposition format for the dashboard, the aggregator
and the format-validity tests.
"""

from repro.obs.sampling import SampledEventLog, is_sampled, packet_hash, sample_threshold
from repro.obs.series import SeriesRing
from repro.obs.spans import Span, chrome_trace_from_spans, spans_from_events, spans_jsonl

__all__ = [
    "SampledEventLog",
    "packet_hash",
    "sample_threshold",
    "is_sampled",
    "SeriesRing",
    "Span",
    "spans_from_events",
    "spans_jsonl",
    "chrome_trace_from_spans",
]
