"""E20 — Metrics-only telemetry costs little on the batch kernel.

The batch kernel settles its metrics once per flush, from per-window
aggregates: counter deltas, per-port counts and one weighted histogram
observation per distinct latency.  A window with no event channel builds
no per-packet wave or arrival log and applies its departures inline, as a
telemetry-off window does.  The extra cost of metrics, occupancy samples
and a series ring is then the sampling instants and a flush that does not
grow with the packet count.

The guard runs the ``ckpt-pipelined_batch-load0.95`` cell of the benchmark
suite's ``checkpoint-resume`` workload (8x8, 128 addresses,
``renewal_tape``, telemetry ``{metrics, sample_interval: 64, series:
4096}``) for 100,000 cycles, with that telemetry and without it, in
alternating pairs in one process.  The median of the per-pair time ratios
must stay at or under ``MAX_RATIO``.  A ratio measured in one process holds
on any host: a machine-wide slowdown hits both arms.

A kernel that replays every packet through the metrics instead — one
counter call per wave and bank, one per departure and one histogram
observation per packet — reads about 2.0-2.2x here and fails.  Both arms
must end with the same statistics: telemetry observes the simulation and
never changes it.
"""

import statistics
import time

from conftest import show

from repro.scenario import Scenario, prepare
from repro.switches.harness import format_table

CYCLES = 100_000
PAIRS = 5
MAX_RATIO = 1.5  # metrics-only telemetry may cost at most 1.5x the off time
CELL = {
    "name": "ckpt-pipelined_batch-load0.95",
    "arch": "pipelined_batch",
    "horizon": CYCLES,
    "params": {"n": 8, "addresses": 128},
    "traffic": {"kind": "renewal_tape", "load": 0.95},
    "seeds": [1],
}
TELEMETRY = {"metrics": True, "sample_interval": 64, "series": 4096}


def _run(telemetry: bool):
    spec = dict(CELL, telemetry=TELEMETRY) if telemetry else CELL
    sw = prepare(Scenario.from_dict(spec)).switch
    assert sw._tel is telemetry
    t0 = time.perf_counter()
    sw.run(CYCLES)
    elapsed = time.perf_counter() - t0
    return elapsed, (sw.stats, sw.ct_latency, sw.total_latency,
                     sw.write_waves, sw.cut_through_waves, sw.plain_read_waves)


def _experiment():
    ratios, offs, ons = [], [], []
    for k in range(PAIRS):
        order = (False, True) if k % 2 == 0 else (True, False)
        times = {}
        fps = {}
        for telemetry in order:
            times[telemetry], fps[telemetry] = _run(telemetry)
        assert fps[True] == fps[False], "telemetry changed the simulation"
        offs.append(times[False])
        ons.append(times[True])
        ratios.append(times[True] / times[False])
    return statistics.median(offs), statistics.median(ons), ratios


def test_e20_metrics_only_overhead(run_once):
    off, on, ratios = run_once(_experiment)
    ratio = statistics.median(ratios)
    show(format_table(
        ["ckpt-pipelined_batch-load0.95, 100k cycles", "median s",
         "cycles/sec"],
        [["telemetry off", f"{off:.3f}", round(CYCLES / off)],
         ["metrics + samples + series", f"{on:.3f}", round(CYCLES / on)],
         ["on/off ratio (median of pairs)", f"{ratio:.2f}x",
          " ".join(f"{r:.2f}" for r in ratios)]],
        title=f"E20: metrics-only telemetry overhead (guarded at "
              f"<={MAX_RATIO:.2f}x)",
    ))
    assert ratio <= MAX_RATIO, (
        f"metrics-only telemetry ran {ratio:.2f}x the telemetry-off time "
        f"(median of {PAIRS} pairs: {', '.join(f'{r:.2f}' for r in ratios)}); "
        f"the batch kernel settles metrics per packet again"
    )
