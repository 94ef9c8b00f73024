"""FIFO input queueing — the paper's section 2.1 worst performer.

One FIFO queue per input; only the head-of-line (HoL) cell of each queue is
eligible for forwarding.  When several HoL cells want the same output, one
wins (uniformly at random, as in [KaHM87]) and the others — *and every cell
behind them* — wait.  This head-of-line blocking limits saturation throughput
to ``2 - sqrt(2) ~= 0.586`` as the switch grows [KaHM87]; the paper quotes
"about 60 %".
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch


class FifoInputQueued(SlottedSwitch):
    """n_in FIFO input queues, random contention resolution among HoL cells.

    Parameters
    ----------
    capacity:
        Per-input queue capacity in cells (``None`` = infinite, the [KaHM87]
        saturation setting).
    arbitration:
        ``"random"`` (default, matches [KaHM87]) or ``"round_robin"`` —
        per-output rotating priority over inputs.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        capacity: int | None = None,
        arbitration: str = "random",
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if arbitration not in ("random", "round_robin"):
            raise ValueError(f"unknown arbitration {arbitration!r}")
        self.capacity = capacity
        self.arbitration = arbitration
        self.queues: list[deque[Cell]] = [deque() for _ in range(n_in)]
        self.rng = make_rng(seed)
        self._rr_pointer = [0] * n_out

    def _admit(self, cell: Cell) -> bool:
        q = self.queues[cell.src]
        if self.capacity is not None and len(q) >= self.capacity:
            return False
        q.append(cell)
        return True

    def _select_departures(self) -> list[Cell | None]:
        # Group contending inputs by requested output.
        contenders: dict[int, list[int]] = {}
        for i, q in enumerate(self.queues):
            if q:
                contenders.setdefault(q[0].dst, []).append(i)
        departures: list[Cell | None] = [None] * self.n_out
        for j, inputs in contenders.items():
            if self.arbitration == "random":
                # a lone contender takes no draw: integers(0, 1) consumes nothing
                k = len(inputs)
                winner = inputs[int(self.rng.integers(0, k))] if k > 1 else inputs[0]
            else:
                ptr = self._rr_pointer[j]
                winner = min(inputs, key=lambda i: (i - ptr) % self.n_in)
                self._rr_pointer[j] = (winner + 1) % self.n_in
            departures[j] = self.queues[winner].popleft()
        return departures

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues)
