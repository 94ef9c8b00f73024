"""Shared (centralized) buffering — the architecture the paper implements.

A single memory pool of ``capacity`` cells is shared by all outputs; cells are
kept in per-output FIFO order (linked lists in a real chip, deques here).  A
cell is dropped only when the *whole* pool is full, which is why shared
buffering needs far fewer total cells than output queueing for the same loss
probability ([HlKa88]; bench E3).

This is the slot-level idealization of the pipelined-memory switch; the
word-level model in :mod:`repro.core` refines it to clock-cycle granularity.
Equivalence between the two (same departures under the same arrivals, up to
the pipeline latency) is checked by ``tests/integration``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.errors import ConfigError
from repro.policy import AdmissionPolicy, parse_policy
from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.switches.base import SlottedSwitch
from repro.telemetry import DROP_POLICY


class SharedBuffer(SlottedSwitch):
    """Shared memory pool with per-output FIFO discipline.

    Parameters
    ----------
    capacity:
        Total pool size in cells (``None`` = infinite).  [HlKa88]'s headline
        number: 86 cells suffice for a 16x16 switch at load 0.8 for loss 1e-3.
    policy:
        Admission policy (spec string or :class:`~repro.policy.AdmissionPolicy`)
        consulted per cell at slot granularity, before the pool-full check.
        A refusal is a late drop with cause ``policy``.  Non-trivial policies
        require a finite ``capacity`` — free-space-scaled thresholds are
        meaningless over an infinite pool.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        capacity: int | None = None,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
        policy: AdmissionPolicy | str | None = "complete",
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.policy = parse_policy(policy)
        if not self.policy.trivial:
            if capacity is None:
                raise ConfigError(
                    f"admission policy '{self.policy.spec}' needs a finite "
                    f"capacity; an infinite shared pool has no free space "
                    f"to ration"
                )
            self.policy.validate(n=n_out, addresses=capacity, quanta=1)
        self._policy_trivial = self.policy.trivial
        self.policy_drops = 0
        self.queues: list[deque[Cell]] = [deque() for _ in range(n_out)]
        self._total = 0
        self.rng = make_rng(seed)
        self._pending: list[Cell] = []

    def _admit(self, cell: Cell) -> bool:
        self._pending.append(cell)
        return True  # provisional; adjusted in _select_departures

    def _select_departures(self) -> list[Cell | None]:
        pending = self._pending
        if pending:
            # one pending cell takes no draw: permutation(1) consumes nothing
            order = self.rng.permutation(len(pending)).tolist() if len(pending) > 1 else [0]
            for k in order:
                cell = pending[k]
                if self.capacity is not None and self._total >= self.capacity:
                    self._record_late_drop(cell)
                elif not self._policy_trivial and not self.policy.admit(
                    cell.dst,
                    self.capacity - self._total,
                    [len(q) for q in self.queues],
                    1,
                ):
                    self.policy_drops += 1
                    self._record_late_drop(cell, cause=DROP_POLICY)
                else:
                    self.queues[cell.dst].append(cell)
                    self._total += 1
            self._pending = []
        departures: list[Cell | None] = [None] * self.n_out
        for j, q in enumerate(self.queues):
            if q:
                departures[j] = q.popleft()
                self._total -= 1
        return departures

    def occupancy(self) -> int:
        return self._total
