"""PRIZMA-style interleaved shared buffer [Turn93], [DeEI95] (paper §5.3).

The shared buffer consists of ``m_banks`` independent single-ported memory
banks; *each cell is stored entirely within one bank* and each bank holds at
most ``cells_per_bank`` cells.  An n x M "router" crossbar writes arriving
cells to free banks; an n x M "selector" crossbar reads departing cells.

Behaviourally this is nearly a shared buffer of capacity
``m_banks * cells_per_bank``; the differences the model captures:

* a bank is single-ported: it cannot be read and written in the same slot,
  and with ``cells_per_bank > 1`` two outputs wanting cells that landed in
  the same bank conflict — the scheduling complication the paper predicts
  ("placing more than one packets per bank ... would complicate control and
  scheduling and may hurt performance");
* the crossbars have complexity ``n x M`` (vs the pipelined memory's
  ``n x 2n``) — quantified by :mod:`repro.vlsi.comparisons` (bench E12).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch


class InterleavedSharedBuffer(SlottedSwitch):
    """One-cell-per-bank interleaved shared buffer (PRIZMA model).

    Parameters
    ----------
    m_banks:
        Number of memory banks M (= buffer capacity in cells when
        ``cells_per_bank == 1``, the [DeEI95] design point).
    cells_per_bank:
        Cells each bank can hold; >1 enables the cheaper-crossbar variant the
        paper mentions, at the price of read conflicts.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        m_banks: int,
        cells_per_bank: int = 1,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if m_banks < 1:
            raise ValueError(f"need >= 1 bank, got {m_banks}")
        if cells_per_bank < 1:
            raise ValueError(f"need >= 1 cell per bank, got {cells_per_bank}")
        self.m_banks = m_banks
        self.cells_per_bank = cells_per_bank
        self.bank_occ = [0] * m_banks  # cells currently stored per bank
        # Logical per-output FIFO of (cell, bank) records.
        self.queues: list[deque[tuple[Cell, int]]] = [deque() for _ in range(n_out)]
        self.rng = make_rng(seed)
        self._pending: list[Cell] = []
        self.read_conflicts = 0  # outputs stalled by same-slot bank conflicts

    def _admit(self, cell: Cell) -> bool:
        self._pending.append(cell)
        return True  # provisional

    def _find_bank(self, busy: set[int]) -> int | None:
        """Pick a writable bank: free port this slot and spare capacity."""
        candidates = [
            b
            for b in range(self.m_banks)
            if b not in busy and self.bank_occ[b] < self.cells_per_bank
        ]
        if not candidates:
            return None
        # Least-occupied-first keeps cells spread out, minimizing future
        # read conflicts (matters only when cells_per_bank > 1).
        return min(candidates, key=lambda b: self.bank_occ[b])

    def _select_departures(self) -> list[Cell | None]:
        busy: set[int] = set()  # banks whose single port is used this slot

        # Reads first (paper: priority to outgoing links).
        departures: list[Cell | None] = [None] * self.n_out
        for j in range(self.n_out):
            if not self.queues[j]:
                continue
            cell, bank = self.queues[j][0]
            if bank in busy:
                self.read_conflicts += 1
                continue  # head blocked this slot by a port conflict
            self.queues[j].popleft()
            busy.add(bank)
            self.bank_occ[bank] -= 1
            departures[j] = cell

        # Then writes, in randomized same-slot order.
        if self._pending:
            order = self.rng.permutation(len(self._pending))
            for k in order:
                cell = self._pending[int(k)]
                bank = self._find_bank(busy)
                if bank is None:
                    self._record_late_drop(cell)
                    continue
                busy.add(bank)
                self.bank_occ[bank] += 1
                self.queues[cell.dst].append((cell, bank))
            self._pending = []
        return departures

    def occupancy(self) -> int:
        return sum(self.bank_occ)
