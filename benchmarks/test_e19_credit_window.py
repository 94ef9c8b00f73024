"""E19 — Credit flow costs the same at every batch window.

Under input credit flow a link that runs out of credit is muted, and when
its credit returns the rest of its arrivals shift by the wait.  The batch
kernel diverts those arrivals lazily, as its window loop reaches them, so
a mute or a resume touches only the arrivals it moves and the cost of a
run does not depend on ``batch_cycles``.  A kernel that re-forms the rest
of the window at every mute and resume instead slows down as the window
grows: on this cell it ran about 20x slower at 65,536 cycles than at
4,096.

The guard runs the credited load-1.0 E13 cell (8x8, 256 addresses,
``renewal_tape``) at windows 4,096 and 65,536 in the same process, in
alternating pairs, and requires the best 65,536 rate to reach
``MIN_RATIO`` of the best 4,096 rate.  A ratio measured in one process
holds on any host: a machine-wide slowdown hits both windows.  Both runs
must give the same fingerprint, since the window is a throughput knob and
never a semantics knob.
"""

import time

from conftest import show

from repro.core import (
    BatchPipelinedSwitch,
    BatchRenewalSource,
    PipelinedSwitchConfig,
)
from repro.switches.harness import format_table

CYCLES = 80_000  # plus the drain
SMALL, LARGE = 4096, 65536
MIN_RATIO = 0.9  # the large window must run at >= 0.9x the small one
MAX_PAIRS = 5


def _run(batch_cycles: int):
    cfg = PipelinedSwitchConfig(n=8, addresses=256, credit_flow=True)
    src = BatchRenewalSource(n_out=8, packet_words=cfg.packet_words,
                             load=1.0, seed=2)
    sw = BatchPipelinedSwitch(cfg, src, batch_cycles=batch_cycles)
    t0 = time.perf_counter()
    sw.run(CYCLES)
    sw.drain()
    elapsed = time.perf_counter() - t0
    fp = (sw.stats, sw.ct_latency, sw.total_latency, sw.cycle,
          sw.write_waves, sw.cut_through_waves, sw.plain_read_waves,
          sw.idle_cycles, sw.deadline_overrides)
    return sw.cycle / elapsed, fp


def _experiment():
    best_small = best_large = 0.0
    for _ in range(MAX_PAIRS):
        small, fp_small = _run(SMALL)
        large, fp_large = _run(LARGE)
        assert fp_large == fp_small, (
            f"batch_cycles={LARGE} diverges from batch_cycles={SMALL}")
        best_small = max(best_small, small)
        best_large = max(best_large, large)
        if best_large >= MIN_RATIO * best_small:
            break
    return best_small, best_large


def test_e19_credit_flow_window_independent(run_once):
    small, large = run_once(_experiment)
    ratio = large / small
    show(format_table(
        ["E13 8x8 credited load 1.0 (tape)", "cycles/sec", f"vs {SMALL}"],
        [[f"batch_cycles={SMALL}", round(small), "1.00x"],
         [f"batch_cycles={LARGE}", round(large), f"{ratio:.2f}x"]],
        title=f"E19: credit flow per batch window (guarded at "
              f">={MIN_RATIO:.2f}x)",
    ))
    assert ratio >= MIN_RATIO, (
        f"credited cell at batch_cycles={LARGE} ran {large:.0f} cycles/sec, "
        f"{ratio:.2f}x its rate at {SMALL} ({small:.0f}): a mute or resume "
        f"costs more as the window grows"
    )
