"""Bounded time-series ring: occupancy, queue depth, drops, cycles/s.

A :class:`SeriesRing` rides inside the :class:`~repro.telemetry.Telemetry`
bundle (its ``series`` field) and is fed by the kernels at the telemetry
sample instant — the start of a cycle, before any of the cycle's activity,
where the checked and batch kernels' bookkeeping provably coincides.  Each row is

    ``(cycle, occupancy, free, queue_depths, drop_taxonomy_items)``

with cumulative drop counts per cause.  Rows are fully deterministic; the
ring *additionally* keeps a parallel wall-clock stamp per row (taken here,
outside the kernel tree) so live consumers can derive cycles/s.  Wall
stamps never enter exported simulation results or checkpoint
fingerprints — only the optional rate columns of the live export views.

The ring is bounded (``capacity`` rows, oldest evicted first) so an
unbounded run cannot grow memory; ``recorded`` counts every row ever
written, which lets consumers detect eviction.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Iterable, Sequence

DEFAULT_CAPACITY = 4096

Row = tuple[int, int, int, tuple[int, ...], tuple[tuple[str, int], ...]]


class SeriesRing:
    """Bounded ring of deterministic sample rows plus wall stamps."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.rows: deque[Row] = deque(maxlen=self.capacity)
        self.walls: deque[float] = deque(maxlen=self.capacity)
        self.recorded = 0

    def record(self, cycle: int, occupancy: int, free: int,
               queue_depths: Sequence[int],
               drop_taxonomy: dict[str, int]) -> None:
        self.rows.append((cycle, occupancy, free, tuple(queue_depths),
                          tuple(sorted(drop_taxonomy.items()))))
        self.walls.append(time.perf_counter())
        self.recorded += 1

    def __len__(self) -> int:
        return len(self.rows)

    def latest(self) -> Row | None:
        return self.rows[-1] if self.rows else None

    # -- export views -------------------------------------------------------
    def _dicts(self, include_rates: bool) -> Iterable[dict[str, object]]:
        prev_cycle: int | None = None
        prev_wall = 0.0
        for row, wall in zip(self.rows, self.walls):
            cycle, occ, free, depths, tax = row
            d: dict[str, object] = {
                "cycle": cycle,
                "occupancy": occ,
                "free": free,
                "queue_depth": list(depths),
                "drops": dict(tax),
            }
            if include_rates:
                rate = None
                if prev_cycle is not None and wall > prev_wall:
                    rate = (cycle - prev_cycle) / (wall - prev_wall)
                d["cycles_per_sec"] = rate
            prev_cycle, prev_wall = cycle, wall
            yield d

    def to_jsonl(self, *, include_rates: bool = False) -> str:
        """One JSON object per retained row, oldest first.

        ``include_rates`` adds a wall-clock-derived ``cycles_per_sec``
        column — keep it off for artifacts that must be deterministic.
        """
        return "".join(
            json.dumps(d, separators=(",", ":")) + "\n"
            for d in self._dicts(include_rates)
        )

    def to_csv(self, *, include_rates: bool = False) -> str:
        """CSV with one column per port queue and per seen drop cause."""
        rows = list(self.rows)
        n_ports = max((len(r[3]) for r in rows), default=0)
        causes = sorted({c for r in rows for c, _ in r[4]})
        header = ["cycle", "occupancy", "free"]
        header += [f"qdepth_{i}" for i in range(n_ports)]
        header += [f"drops_{c}" for c in causes]
        if include_rates:
            header.append("cycles_per_sec")
        lines = [",".join(header)]
        for d in self._dicts(include_rates):
            depths = d["queue_depth"]
            tax = d["drops"]
            cells = [str(d["cycle"]), str(d["occupancy"]), str(d["free"])]
            cells += [str(depths[i]) if i < len(depths) else ""
                      for i in range(n_ports)]
            cells += [str(tax.get(c, 0)) for c in causes]
            if include_rates:
                rate = d["cycles_per_sec"]
                cells.append("" if rate is None else f"{rate:.3f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict[str, object]:
        """Deterministic roll-up for run reports."""
        if not self.rows:
            return {"recorded": self.recorded, "retained": 0,
                    "capacity": self.capacity}
        occs = [r[1] for r in self.rows]
        return {
            "recorded": self.recorded,
            "retained": len(self.rows),
            "capacity": self.capacity,
            "occupancy_mean": sum(occs) / len(occs),
            "occupancy_peak": max(occs),
            "last_cycle": self.rows[-1][0],
        }

    # -- checkpoint codec ---------------------------------------------------
    def state(self) -> dict[str, object]:
        """Snapshot document body (wall stamps kept so a restored ring
        exports the same retained rows; they stay out of fingerprints)."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "rows": [[c, occ, free, list(depths), [list(t) for t in tax]]
                     for c, occ, free, depths, tax in self.rows],
            "walls": list(self.walls),
        }

    @classmethod
    def from_state(cls, doc: dict) -> "SeriesRing":
        ring = cls(doc["capacity"])
        for (c, occ, free, depths, tax), wall in zip(doc["rows"],
                                                     doc["walls"]):
            ring.rows.append((c, occ, free, tuple(depths),
                              tuple((str(k), int(v)) for k, v in tax)))
            ring.walls.append(float(wall))
        ring.recorded = int(doc["recorded"])
        return ring
