"""Multistage (delta/omega) fabrics built from single-chip switch elements.

The paper's introduction: switches "can be the building blocks for larger,
multi-stage switches and networks; our discussion applies equally well to
both uses."  This module provides that use: an omega network of ``stages``
ranks of ``k x k`` switch elements connecting ``n = k**stages`` ports, where
each element is *any* :class:`~repro.switches.base.SlottedSwitch` — so the
paper's architecture comparison can be rerun at fabric scale (bench A3:
shared-buffer elements absorb internal contention that head-of-line blocks
FIFO elements into tree saturation).

Topology: the classic omega construction — a perfect k-shuffle of the ``n``
wires before every rank; rank ``s`` routes each cell by the ``s``-th most
significant base-``k`` digit of its (global) destination.  Cells advance one
rank per slot (store-and-forward per element); an element's internal
buffering and arbitration are whatever the element architecture provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.sim.stats import Counter, Histogram
from repro.switches.base import SlottedSwitch
from repro.traffic.base import TrafficSource


@dataclass(slots=True)
class FabricCell:
    """End-to-end identity of one cell traversing the fabric."""

    src: int  # global input port
    dst: int  # global output port
    created: int  # injection slot
    delivered: int = -1


def perfect_shuffle(pos: int, n: int, k: int) -> int:
    """The k-way perfect shuffle of ``n`` wires: base-``k`` left rotation of
    the port index's digit string."""
    return (pos * k) % n + (pos * k) // n


class OmegaFabric:
    """An omega network of ``k x k`` switch elements over ``k**stages`` ports.

    Parameters
    ----------
    k:
        Element radix (each element is a ``k x k`` switch).
    stages:
        Number of ranks; the fabric has ``k**stages`` ports.
    element_factory:
        Builds one ``k x k`` element; called ``stages * n/k`` times.
        Elements with finite buffers drop internally — those drops are
        aggregated into :attr:`dropped`.
    """

    def __init__(
        self,
        k: int,
        stages: int,
        element_factory: Callable[[], SlottedSwitch],
    ) -> None:
        if k < 2 or stages < 1:
            raise ValueError(f"need k >= 2 and stages >= 1, got k={k}, stages={stages}")
        self.k = k
        self.stages = stages
        self.n = k**stages
        # wire p leaves on wire _shuffle[p] of the next rank
        self._shuffle = [perfect_shuffle(p, self.n, k) for p in range(self.n)]
        self.elements: list[list[SlottedSwitch]] = []
        per_rank = self.n // k
        for _ in range(stages):
            rank = []
            for _ in range(per_rank):
                element = element_factory()
                if element.n_in != k or element.n_out != k:
                    raise ValueError(
                        f"element must be {k}x{k}, got "
                        f"{element.n_in}x{element.n_out}"
                    )
                rank.append(element)
            self.elements.append(rank)
        # Wires entering each rank (post-shuffle), as FabricCell or None.
        self._rank_inputs: list[list[FabricCell | None]] = [
            [None] * self.n for _ in range(stages)
        ]
        self.slot = 0
        self.warmup = 0
        # -- statistics ---------------------------------------------------------
        self.offered = 0
        self.delivered = 0
        self.misrouted = 0  # would indicate a wiring bug; must stay 0
        self.delay = Counter()
        self.delay_hist = Histogram()
        self.delivered_per_output = [0] * self.n

    @property
    def dropped(self) -> int:
        """Cells lost inside elements (finite element buffers)."""
        return sum(e.stats.dropped for rank in self.elements for e in rank)

    def in_flight(self) -> int:
        buffered = sum(e.occupancy() for rank in self.elements for e in rank)
        wired = sum(
            1 for rank in self._rank_inputs for cell in rank if cell is not None
        )
        return buffered + wired

    # -- one slot -----------------------------------------------------------------
    def step(self, dests: list[int | None]) -> list[FabricCell | None]:
        """Advance one slot: inject ``dests`` and move every rank once."""
        if len(dests) != self.n:
            raise ValueError(f"expected {self.n} arrival entries, got {len(dests)}")
        # External arrivals shuffle into rank 0, on top of last slot's wires.
        for p, dst in enumerate(dests):
            if dst is None:
                continue
            if not 0 <= dst < self.n:
                raise ValueError(f"destination {dst} out of range")
            cell = FabricCell(src=p, dst=dst, created=self.slot)
            if self.slot >= self.warmup:
                self.offered += 1
            wire = self._shuffle[p]
            if self._rank_inputs[0][wire] is not None:
                raise AssertionError("rank-0 wire already carries a cell")
            self._rank_inputs[0][wire] = cell

        delivered: list[FabricCell | None] = [None] * self.n
        next_inputs: list[list[FabricCell | None]] = [
            [None] * self.n for _ in range(self.stages)
        ]
        k, shuffle, last = self.k, self._shuffle, self.stages - 1
        for s in range(self.stages):
            rank_in = self._rank_inputs[s]
            # rank s routes by the s-th most significant base-k digit of dst
            div = k ** (last - s)
            local = [c.dst // div % k if c is not None else None for c in rank_in]
            for e, element in enumerate(self.elements[s]):
                base = e * k
                outs = element.step(local[base:base + k], tags=rank_in[base:base + k])
                for j, out in enumerate(outs):
                    if out is None:
                        continue
                    cell = out.tag
                    assert isinstance(cell, FabricCell)
                    pos = base + j
                    if s == last:
                        if pos != cell.dst:
                            self.misrouted += 1
                        delivered[pos] = cell
                        cell.delivered = self.slot
                        if cell.created >= self.warmup:
                            self.delivered += 1
                            self.delivered_per_output[pos] += 1
                            d = self.slot - cell.created
                            self.delay.add(d)
                            self.delay_hist.add(d)
                    else:
                        next_inputs[s + 1][shuffle[pos]] = cell
        # Rank-0 wires for next slot start empty (arrivals fill them).
        self._rank_inputs = next_inputs
        self.slot += 1
        return delivered

    def run(self, source: TrafficSource, slots: int) -> None:
        if source.n_in != self.n or source.n_out != self.n:
            raise ValueError(
                f"source is {source.n_in}x{source.n_out}, fabric is "
                f"{self.n}x{self.n}"
            )
        for _ in range(slots):
            self.step(source.arrivals(self.slot))

    def drain(self, max_slots: int = 100_000) -> int:
        start = self.slot
        empty = [None] * self.n
        while self.in_flight() > 0:
            if self.slot - start > max_slots:
                raise RuntimeError("fabric failed to drain")
            self.step(list(empty))
        return self.slot - start

    # -- metrics -------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        measured = self.slot - self.warmup
        if measured <= 0:
            return math.nan
        return self.delivered / (measured * self.n)

    @property
    def loss_probability(self) -> float:
        if self.offered == 0:
            return math.nan
        return self.dropped / self.offered

    def summary(self) -> dict[str, float]:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "throughput": self.throughput,
            "loss_probability": self.loss_probability,
            "mean_delay": self.delay.mean,
            "misrouted": self.misrouted,
        }
