"""Block-crosspoint buffering — a grid of shared buffers (paper §2.2, §3.5).

"A mixture of crosspoint and shared buffering ... a number of shared buffers,
each dedicated to a certain subset of incoming and outgoing links."  Inputs
and outputs are partitioned into blocks of ``block`` links; each
(input-block, output-block) pair owns one shared buffer.  The paper proposes
this as the scaling escape hatch when a single pipelined shared buffer's
throughput quantum becomes too large (§3.5), with each block buffer itself
built as a pipelined memory.

Degenerate cases (verified by property tests): ``block == n`` is a single
shared buffer; ``block == 1`` is crosspoint queueing.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch
from repro.switches.schedulers import _first_from


class BlockCrosspoint(SlottedSwitch):
    """Grid of shared buffers over ``block``-sized link groups.

    Parameters
    ----------
    block:
        Links per group; must divide both ``n_in`` and ``n_out``.
    capacity_per_block:
        Cells each block buffer can hold (``None`` = infinite).
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        block: int,
        capacity_per_block: int | None = None,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if block < 1 or n_in % block or n_out % block:
            raise ValueError(
                f"block ({block}) must divide n_in ({n_in}) and n_out ({n_out})"
            )
        self.block = block
        self.capacity_per_block = capacity_per_block
        self.in_blocks = n_in // block
        self.out_blocks = n_out // block
        # queues[bi][bj][j_local]: FIFO of cells in block buffer (bi, bj)
        # destined to local output j_local; occupancy tracked per block buffer.
        self.queues: list[list[list[deque[Cell]]]] = [
            [[deque() for _ in range(block)] for _ in range(self.out_blocks)]
            for _ in range(self.in_blocks)
        ]
        self._block_occ = [[0] * self.out_blocks for _ in range(self.in_blocks)]
        self._rr = [0] * n_out  # per-output rotating priority over input blocks
        # request masks: bit bi of _cols[j] <=> block bi holds a cell for j
        self._cols = [0] * n_out
        self.rng = make_rng(seed)

    def _admit(self, cell: Cell) -> bool:
        bi, bj = cell.src // self.block, cell.dst // self.block
        if (
            self.capacity_per_block is not None
            and self._block_occ[bi][bj] >= self.capacity_per_block
        ):
            return False
        self.queues[bi][bj][cell.dst % self.block].append(cell)
        self._block_occ[bi][bj] += 1
        self._cols[cell.dst] |= 1 << bi
        return True

    def _select_departures(self) -> list[Cell | None]:
        departures: list[Cell | None] = [None] * self.n_out
        queues, occ, cols, rr = self.queues, self._block_occ, self._cols, self._rr
        block, in_blocks = self.block, self.in_blocks
        for j, mask in enumerate(cols):
            if not mask:
                continue
            bj, jl = divmod(j, block)
            winner = _first_from(mask, rr[j])
            rr[j] = (winner + 1) % in_blocks
            q = queues[winner][bj][jl]
            departures[j] = q.popleft()
            if not q:
                cols[j] = mask & ~(1 << winner)
            occ[winner][bj] -= 1
        return departures

    def occupancy(self) -> int:
        return sum(sum(row) for row in self._block_occ)
