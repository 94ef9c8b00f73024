"""Input queueing with internal fabric speedup [PaBr93] (paper §2.1, fig 1).

The switching fabric runs ``speedup`` matching phases per slot, so up to
``speedup`` cells can leave each input (and reach each output queue) per
slot, while links still carry one cell per slot.  "This is equivalent to
input queueing operating at a reduced input load."  Output queues are
required, and input buffers become three-ported — the costs the paper lists.

Bench E14 sweeps the speedup factor: speedup 1 reproduces the 0.586 HoL
limit; speedup 2 is already near 100 % throughput.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch


class SpeedupSwitch(SlottedSwitch):
    """FIFO input queues + speedup-phase fabric + output queues.

    Parameters
    ----------
    speedup:
        Fabric phases per slot (1 = plain FIFO input queueing + output stage).
    input_capacity / output_capacity:
        Queue capacities in cells (``None`` = infinite).
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        speedup: int = 2,
        input_capacity: int | None = None,
        output_capacity: int | None = None,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if speedup < 1:
            raise ValueError(f"speedup must be >= 1, got {speedup}")
        self.speedup = speedup
        self.input_capacity = input_capacity
        self.output_capacity = output_capacity
        self.in_queues: list[deque[Cell]] = [deque() for _ in range(n_in)]
        self.out_queues: list[deque[Cell]] = [deque() for _ in range(n_out)]
        self.rng = make_rng(seed)

    def _admit(self, cell: Cell) -> bool:
        q = self.in_queues[cell.src]
        if self.input_capacity is not None and len(q) >= self.input_capacity:
            return False
        q.append(cell)
        return True

    def _fabric_phase(self) -> None:
        """One HoL-arbitration pass moving winners to output queues."""
        contenders: dict[int, list[int]] = {}
        for i, q in enumerate(self.in_queues):
            if q:
                j = q[0].dst
                oq = self.out_queues[j]
                if self.output_capacity is not None and len(oq) >= self.output_capacity:
                    continue  # backpressure: output queue full, HoL cell waits
                contenders.setdefault(j, []).append(i)
        for j, inputs in contenders.items():
            # a lone contender takes no draw: integers(0, 1) consumes nothing
            k = len(inputs)
            winner = inputs[int(self.rng.integers(0, k))] if k > 1 else inputs[0]
            self.out_queues[j].append(self.in_queues[winner].popleft())

    def _select_departures(self) -> list[Cell | None]:
        for _ in range(self.speedup):
            self._fabric_phase()
        return [q.popleft() if q else None for q in self.out_queues]

    def occupancy(self) -> int:
        return sum(len(q) for q in self.in_queues) + sum(
            len(q) for q in self.out_queues
        )
