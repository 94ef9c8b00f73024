"""Non-FIFO input buffering: virtual output queues + a crossbar scheduler.

The paper's section 2.1 "non-FIFO input buffering": buffers keep a single
read port (one cell out per input per slot), but any buffered cell — not just
the head of a FIFO — may be selected.  The standard implementation keeps one
virtual output queue (VOQ) per (input, output) pair and runs a matching
scheduler each slot (see :mod:`repro.switches.schedulers`).

This is the architecture the paper argues *against* on cost-performance
grounds (section 5.1): it removes head-of-line blocking but needs a complex
scheduler, and its latency remains worse than shared/output buffering
whenever an output idles while all inputs holding its cells are busy
elsewhere — the effect the E4 bench measures.
"""

from __future__ import annotations

from collections import deque

from repro.sim.packet import Cell
from repro.switches.base import SlottedSwitch
from repro.switches.schedulers import Scheduler


class VoqInputBuffered(SlottedSwitch):
    """VOQ switch with a pluggable scheduler.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.switches.schedulers.Scheduler`.
    capacity_per_input:
        Total cells one input's buffer may hold across all its VOQs
        (``None`` = infinite).  Models the single physical input buffer the
        paper discusses; per-VOQ limits can be imposed with
        ``capacity_per_voq``.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        scheduler: Scheduler,
        capacity_per_input: int | None = None,
        capacity_per_voq: int | None = None,
        warmup: int = 0,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity_per_input is not None and capacity_per_input < 1:
            raise ValueError(f"capacity_per_input must be >= 1, got {capacity_per_input}")
        if capacity_per_voq is not None and capacity_per_voq < 1:
            raise ValueError(f"capacity_per_voq must be >= 1, got {capacity_per_voq}")
        self.scheduler = scheduler
        self.capacity_per_input = capacity_per_input
        self.capacity_per_voq = capacity_per_voq
        self.voqs: list[list[deque[Cell]]] = [
            [deque() for _ in range(n_out)] for _ in range(n_in)
        ]
        self._input_occupancy = [0] * n_in
        # scheduler request masks: bit i of _cols[j] <=> voqs[i][j] nonempty
        self._cols = [0] * n_out

    def _admit(self, cell: Cell) -> bool:
        if (
            self.capacity_per_input is not None
            and self._input_occupancy[cell.src] >= self.capacity_per_input
        ):
            return False
        voq = self.voqs[cell.src][cell.dst]
        if self.capacity_per_voq is not None and len(voq) >= self.capacity_per_voq:
            return False
        voq.append(cell)
        self._input_occupancy[cell.src] += 1
        self._cols[cell.dst] |= 1 << cell.src
        return True

    def _select_departures(self) -> list[Cell | None]:
        cols = self._cols
        departures: list[Cell | None] = [None] * self.n_out
        for i, j in self.scheduler.match_masks(cols, self.n_in, self.n_out):
            if departures[j] is not None:
                raise AssertionError(
                    f"{self.scheduler.name} matched output {j} twice"
                )
            voq = self.voqs[i][j]
            departures[j] = voq.popleft()
            if not voq:
                cols[j] &= ~(1 << i)
            self._input_occupancy[i] -= 1
        return departures

    def occupancy(self) -> int:
        return sum(self._input_occupancy)
