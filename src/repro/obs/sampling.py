"""Deterministic, seed-stable packet sampling for lifecycle tracing.

A packet is sampled iff ``packet_hash(seed, uid) < threshold`` where the
threshold is ``rate`` scaled to the full 64-bit hash range.  The hash is a
pure function of ``(seed, uid)``, so:

* both kernel tiers (checked, batch) select the *same* packets for
  the same scenario — the sampled event streams are bit-identical because
  the full streams already are;
* the selection is stable across processes, ``--jobs`` values, checkpoints
  and resumes (nothing about wall time or process identity enters);
* sampled sets are *nested*: a lower rate selects a subset of what any
  higher rate selects (the threshold only moves), so traces taken at
  different rates agree on the packets they share.

The mixer is the splitmix64 finalizer — cheap, and uniform enough that the
realized sampling fraction tracks ``rate`` closely for sequential uids.
"""

from __future__ import annotations

from repro.telemetry.events import Event, EventLog

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def packet_hash(seed: int, uid: int) -> int:
    """64-bit seed-stable hash of a packet uid (splitmix64 finalizer)."""
    x = (uid + (seed + 1) * _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def sample_threshold(rate: float) -> int:
    """``rate`` in [0, 1] scaled to the 64-bit hash range."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate must be in [0, 1], got {rate!r}")
    return int(rate * float(1 << 64))


def is_sampled(seed: int, uid: int, rate: float) -> bool:
    """Whether ``uid`` is traced at ``rate`` under ``seed``."""
    return packet_hash(seed, uid) < sample_threshold(rate)


class SampledEventLog(EventLog):
    """An :class:`EventLog` that keeps only sampled packets' events.

    Drops non-sampled events at emit time, so memory scales with the
    sampled fraction, not the run length.  Everything downstream of
    ``EventLog`` (sorting, counts, span assembly, exporters) works
    unchanged on the filtered stream.

    Note the log's own aggregations (``counts_by_kind``, ``len``) then
    describe the *sampled* population only.  Whole-run aggregates, such as
    the result's drop taxonomy (:meth:`repro.telemetry.Telemetry.drop_taxonomy`),
    come from the metrics registry, which is never sampled.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__()
        self.rate = float(rate)
        self.seed = int(seed)
        self._threshold = sample_threshold(self.rate)

    def sampled(self, uid: int) -> bool:
        return packet_hash(self.seed, uid) < self._threshold

    def emit(self, cycle: int, kind: str, uid: int, src: int = -1,
             dst: int = -1, cause: str = "", aux: int = -1) -> None:
        if packet_hash(self.seed, uid) < self._threshold:
            self.events.append(Event(cycle, kind, uid, src, dst, cause, aux))
