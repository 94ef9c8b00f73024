"""Common machinery for slotted (cell-per-slot) switch models.

These models operate at the granularity of the queueing literature the paper
builds on: time is divided into slots; in each slot every input link delivers
at most one fixed-size cell and every output link transmits at most one cell.

Slot phasing (consistent across all architectures, so comparisons are fair):

1. arrivals of the slot are admitted to buffers (or dropped);
2. the architecture selects departures — a cell that arrived this very slot
   may depart this slot (zero in-switch delay), which matches the convention
   of [KaHM87] and makes the output-queue delay formula come out exactly.

Subclasses implement :meth:`_admit` (buffer or drop one arriving cell) and
:meth:`_select_departures` (pick at most one cell per output).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.drc.sanitizer import NULL_SANITIZER, Sanitizer
from repro.sim import packet
from repro.sim.packet import Cell
from repro.sim.stats import SwitchStats
from repro.telemetry import (
    ARRIVE,
    DEPART,
    DROP,
    DROP_BUFFER_FULL,
    NULL_TELEMETRY,
    Telemetry,
)
from repro.traffic.base import TrafficSource


class SlottedSwitch(ABC):
    """Base class for all slot-level switch architectures."""

    def __init__(
        self,
        n_in: int,
        n_out: int,
        warmup: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_in < 1 or n_out < 1:
            raise ValueError(f"need at least 1 input and 1 output, got {n_in}x{n_out}")
        self.n_in = n_in
        self.n_out = n_out
        self.slot = 0
        self.stats = SwitchStats(n_outputs=n_out, warmup=warmup)
        self._occupancy_samples: list[int] = []
        self.sample_occupancy = False
        self.attach_telemetry(telemetry)
        self.attach_sanitizer(None)

    def attach_telemetry(self, telemetry: Telemetry | None) -> None:
        """Point the slot-level collection sites at ``telemetry``.

        Slotted models have no banks, waves or credits, so only the
        port-level families and the occupancy channel are populated; the
        metric names are shared with the pipelined kernels so sweeps can be
        compared side by side in one dashboard.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry.enabled
        if not self._tel:
            return
        m = self.telemetry.metrics
        self._m_arrivals = [m.counter("repro_port_arrivals_total", port=i)
                            for i in range(self.n_in)]
        self._m_departures = [m.counter("repro_port_departures_total", port=j)
                              for j in range(self.n_out)]
        self._m_drops = [
            m.counter("repro_port_drops_total", port=i, cause=DROP_BUFFER_FULL)
            for i in range(self.n_in)
        ]
        self._m_occupancy = m.gauge("repro_buffer_occupancy")
        self._m_delay = m.histogram("repro_slot_delay_slots")

    def attach_sanitizer(self, sanitizer: Sanitizer | None) -> None:
        """Point the invariant hooks at ``sanitizer`` (null-object when off).

        Slotted models have no banks or waves, so only the packet-lifecycle
        hooks fire: the sanitizer checks cell conservation (injected =
        delivered + buffered + dropped) against :meth:`occupancy` each slot.
        """
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self._san = self.sanitizer.enabled

    # -- architecture-specific hooks ----------------------------------------
    @abstractmethod
    def _admit(self, cell: Cell) -> bool:
        """Buffer ``cell``; return ``False`` if it had to be dropped."""

    @abstractmethod
    def _select_departures(self) -> list[Cell | None]:
        """Dequeue and return at most one cell per output for this slot."""

    @abstractmethod
    def occupancy(self) -> int:
        """Total cells currently buffered (all queues)."""

    # -- shared drop accounting ----------------------------------------------
    def _record_late_drop(self, cell: Cell, cause: str = DROP_BUFFER_FULL) -> None:
        """Discard a provisionally-admitted cell during departure selection.

        Architectures that resolve contention after :meth:`_admit` (shared
        buffers, knockout concentrators) call this instead of mutating the
        stats directly, so the drop shows up in the event log and per-port
        drop counters exactly like an admission-time drop.
        """
        if self._san:
            self.sanitizer.packet_dropped(self.slot, cell.uid)
        if cell.arrival_slot >= self.stats.warmup:
            self.stats.accepted -= 1
            self.stats.dropped += 1
        if self._tel:
            self.telemetry.events.emit(
                self.slot, DROP, cell.uid, src=cell.src, dst=cell.dst,
                cause=cause,
            )
            if cause == DROP_BUFFER_FULL:
                self._m_drops[cell.src].inc()
            else:
                self.telemetry.metrics.counter(
                    "repro_port_drops_total", port=cell.src, cause=cause
                ).inc()

    # -- driver ---------------------------------------------------------------
    def step(
        self, dests: list[int | None], tags: list[object] | None = None
    ) -> list[Cell | None]:
        """Advance one slot given per-input arrival destinations.

        ``tags`` optionally attaches an opaque object to each arriving cell
        (same indexing as ``dests``); it travels with the cell and comes
        back on departure — multistage fabrics use this to follow a cell
        through a cascade of switch elements.
        """
        n_in, n_out = self.n_in, self.n_out
        if len(dests) != n_in:
            raise ValueError(f"expected {n_in} arrival entries, got {len(dests)}")
        if tags is not None and len(tags) != n_in:
            raise ValueError(f"expected {n_in} tag entries, got {len(tags)}")
        slot, stats, tel, san = self.slot, self.stats, self._tel, self._san
        warmup = stats.warmup
        counted = slot >= warmup  # warmup-gated counters of this slot
        admit = self._admit
        # Cells take their uids straight from the global counter, in the
        # order Cell's default factory would hand them out.
        ids = packet._packet_ids
        for src, dst in enumerate(dests):
            if dst is None:
                continue
            if not 0 <= dst < n_out:
                raise ValueError(f"destination {dst} out of range (n_out={n_out})")
            uid = ids._next
            ids._next = uid + 1
            cell = Cell(src, dst, slot, -1, None if tags is None else tags[src], uid)
            if counted:
                stats.offered += 1
            if san:
                self.sanitizer.packet_injected(slot, cell.uid)
            if tel:
                self.telemetry.events.emit(slot, ARRIVE, cell.uid, src=src, dst=dst)
                self._m_arrivals[src].inc()
            if admit(cell):
                if counted:
                    stats.accepted += 1
            else:
                if san:
                    self.sanitizer.packet_dropped(slot, cell.uid)
                if counted:
                    stats.dropped += 1
                if tel:
                    self.telemetry.events.emit(
                        slot, DROP, cell.uid, src=src, dst=dst,
                        cause=DROP_BUFFER_FULL,
                    )
                    self._m_drops[src].inc()

        departures = self._select_departures()
        if len(departures) != n_out:
            raise AssertionError(
                f"{type(self).__name__} returned {len(departures)} departures, "
                f"expected {n_out}"
            )
        # SwitchStats.record_departure, inlined: every departure of a
        # counted slot is delivered; delay stats keep post-warmup arrivals.
        per_output = stats.per_output_delivered
        delay_add, hist_add = stats.delay.add, stats.delay_hist.add
        for j, cell in enumerate(departures):
            if cell is None:
                continue
            if cell.dst != j:
                raise AssertionError(
                    f"cell {cell.uid} destined to {cell.dst} departed on output {j}"
                )
            cell.depart_slot = slot
            if san:
                self.sanitizer.packet_delivered(slot, cell.uid)
            if counted:
                stats.delivered += 1
                per_output[j] += 1
            arrival = cell.arrival_slot
            if arrival >= warmup:
                delay_add(slot - arrival)
                hist_add(slot - arrival)
            if tel:
                self.telemetry.events.emit(
                    slot, DEPART, cell.uid, src=cell.src, dst=j, aux=slot,
                )
                self._m_departures[j].inc()
                if arrival >= warmup:
                    self._m_delay.observe(slot - arrival)

        if self.sample_occupancy and counted:
            self._occupancy_samples.append(self.occupancy())
        if tel:
            iv = self.telemetry.sample_interval
            if iv and slot % iv == 0:
                occ = self.occupancy()
                self.telemetry.sample(slot, occ)
                self._m_occupancy.set(occ)
        if san:
            self.sanitizer.end_cycle(slot, self.occupancy())

        self.slot = stats.horizon = slot + 1
        return departures

    def run(self, source: TrafficSource, slots: int) -> SwitchStats:
        """Drive this switch with ``source`` for ``slots`` slots."""
        if source.n_in != self.n_in or source.n_out != self.n_out:
            raise ValueError(
                f"source is {source.n_in}x{source.n_out}, "
                f"switch is {self.n_in}x{self.n_out}"
            )
        for _ in range(slots):
            self.step(source.arrivals(self.slot))
        return self.stats

    def run_matrix(self, arrivals: np.ndarray) -> SwitchStats:
        """Drive this switch with a precomputed arrival matrix.

        ``arrivals`` is the ``(slots, n_in)`` destination matrix produced by
        :meth:`~repro.traffic.base.TrafficSource.arrivals_matrix` (``-1`` =
        no cell): the whole horizon's randomness is drawn in one batch and
        the per-slot loop touches only plain ints.
        """
        arrivals = np.asarray(arrivals)
        if arrivals.ndim != 2 or arrivals.shape[1] != self.n_in:
            raise ValueError(
                f"arrival matrix must be (slots, {self.n_in}), "
                f"got shape {arrivals.shape}"
            )
        rows = arrivals.astype(object)  # Python ints, and None for no cell
        rows[arrivals < 0] = None
        step = self.step
        for row in rows.tolist():
            step(row)
        return self.stats

    def run_fast(self, source: TrafficSource, slots: int, chunk: int = 8192) -> SwitchStats:
        """Like :meth:`run`, but generates traffic in vectorized batches.

        Uses :meth:`~repro.traffic.base.TrafficSource.arrivals_matrix`, so
        the RNG stream differs from :meth:`run` (deterministic per seed,
        statistically identical — see ``arrivals_matrix``).  Chunked so a
        long horizon does not materialize one giant matrix.
        """
        if source.n_in != self.n_in or source.n_out != self.n_out:
            raise ValueError(
                f"source is {source.n_in}x{source.n_out}, "
                f"switch is {self.n_in}x{self.n_out}"
            )
        remaining = slots
        while remaining > 0:
            batch = min(chunk, remaining)
            self.run_matrix(source.arrivals_matrix(batch, start_slot=self.slot))
            remaining -= batch
        return self.stats

    @property
    def occupancy_samples(self) -> list[int]:
        return self._occupancy_samples
