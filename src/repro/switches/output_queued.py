"""Output queueing — one buffer per outgoing link (paper figure 2, left).

Each output buffer must accept, in the worst case, ``n_in`` simultaneous
arrivals per slot and drain one cell per slot: the high-throughput-buffer
requirement that motivates the whole paper.  Behaviour-wise it delivers
optimal link utilization; its memory-utilization disadvantage versus shared
buffering is the [HlKa88] comparison reproduced by bench E3.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch


class OutputQueued(SlottedSwitch):
    """Per-output FIFO queues of capacity ``capacity`` cells each.

    When several cells arrive for the same output in one slot they enqueue in
    a uniformly random order (ties between inputs carry no meaning in the
    slotted model); if the queue fills mid-slot the excess cells are dropped
    — the [HlKa88] finite-buffer loss model.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        capacity: int | None = None,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.queues: list[deque[Cell]] = [deque() for _ in range(n_out)]
        self.rng = make_rng(seed)
        self._pending: list[Cell] = []  # arrivals of the current slot

    def _admit(self, cell: Cell) -> bool:
        # Buffer-space accounting must consider the whole slot's arrivals in
        # random order; defer the decision to _select_departures via _pending.
        self._pending.append(cell)
        return True  # provisional; drops are re-recorded below

    def _select_departures(self) -> list[Cell | None]:
        # Randomize same-slot arrival order, then enqueue with capacity check.
        if self._pending:
            order = self.rng.permutation(len(self._pending)).tolist()
            for k in order:
                cell = self._pending[k]
                q = self.queues[cell.dst]
                if self.capacity is not None and len(q) >= self.capacity:
                    self._record_late_drop(cell)
                else:
                    q.append(cell)
            self._pending = []
        return [q.popleft() if q else None for q in self.queues]

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues)
