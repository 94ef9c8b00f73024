"""Crosspoint queueing — one queue per (input, output) pair (paper §2.1).

"Every outgoing link can now be kept busy ... independent of what the other
links do": optimal link utilization, at the cost of ``n^2`` small buffers
whose total capacity must be much larger than shared buffering for the same
loss (the buffer-utilization disadvantage bench E3 quantifies via the shared
vs output vs crosspoint sweep).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch
from repro.switches.schedulers import _first_from


class CrosspointQueued(SlottedSwitch):
    """n_in x n_out crosspoint FIFOs, per-output round-robin service.

    Parameters
    ----------
    capacity:
        Per-crosspoint queue capacity in cells (``None`` = infinite).
    service:
        ``"round_robin"`` (default) or ``"oldest_first"`` — per output,
        choose among its non-empty column of crosspoint queues.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        capacity: int | None = None,
        service: str = "round_robin",
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if service not in ("round_robin", "oldest_first"):
            raise ValueError(f"unknown service discipline {service!r}")
        self.capacity = capacity
        self.service = service
        self.queues: list[list[deque[Cell]]] = [
            [deque() for _ in range(n_out)] for _ in range(n_in)
        ]
        self._rr = [0] * n_out
        # request masks: bit i of _cols[j] <=> queues[i][j] nonempty
        self._cols = [0] * n_out
        self.rng = make_rng(seed)

    def _admit(self, cell: Cell) -> bool:
        q = self.queues[cell.src][cell.dst]
        if self.capacity is not None and len(q) >= self.capacity:
            return False
        q.append(cell)
        self._cols[cell.dst] |= 1 << cell.src
        return True

    def _select_departures(self) -> list[Cell | None]:
        departures: list[Cell | None] = [None] * self.n_out
        queues, cols, rr, n_in = self.queues, self._cols, self._rr, self.n_in
        round_robin = self.service == "round_robin"
        for j, mask in enumerate(cols):
            if not mask:
                continue
            if round_robin:
                winner = _first_from(mask, rr[j])
                rr[j] = (winner + 1) % n_in
            else:
                # oldest head first; min keeps the lowest input on a tie
                winner = min(
                    (i for i in range(n_in) if mask >> i & 1),
                    key=lambda i: queues[i][j][0].arrival_slot,
                )
            q = queues[winner][j]
            departures[j] = q.popleft()
            if not q:
                cols[j] = mask & ~(1 << winner)
        return departures

    def occupancy(self) -> int:
        return sum(len(q) for row in self.queues for q in row)
