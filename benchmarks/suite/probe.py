"""Host-speed probe that scales measured times to a quiet reference host.

The suite runs on shared machines whose speed drifts by tens of percent
for minutes at a time, as neighbours come and go.  A fixed pure-Python
loop, timed before and after every timed sample, measures that drift.
Each sample is scaled by ``PROBE_NOMINAL_S / probe``, where ``probe`` is
the mean of its two bracketing probe times.  The result reads as seconds
on the reference host at its quiet speed.  The probe runs no simulator
code, so a change to the simulator moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import time

PROBE_LOOPS = 1_000_000
#: probe time on the reference host (2-core Xeon VM, Python 3.11) when quiet
PROBE_NOMINAL_S = 0.065


def probe() -> float:
    """Seconds the host currently takes for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled(samples: list[float], probes: list[float]) -> list[float]:
    """``samples[i]`` at reference speed; ``probes[i]`` and ``probes[i + 1]``
    are the probe times taken just before and just after it."""
    assert len(probes) == len(samples) + 1
    return [t * 2 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(samples)]
