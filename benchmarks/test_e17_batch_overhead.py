"""E17 — Batch-kernel degenerate-window overhead guard.

``batch_cycles`` is a throughput knob, never a semantics knob: at
``batch_cycles=1`` the batch kernel degenerates to one window per cycle,
paying its per-window costs (tape slicing, log flushing, engine dispatch)
with none of the amortization that makes large windows fast.  That
worst case must stay cheap — at least ``MIN_SPEEDUP`` times the checked
kernel on the same workload — or the per-window overhead has grown and
every batch size is paying it.

The bound carries over the earlier one, "within 2x of the wave-level
kernel", which has since been removed.  On this workload that kernel ran
a median 5.54x the checked kernel (12 same-process pairs, 2-core x86_64
host, Python 3.11), so half of it is 2.77x checked.

Wall time on a shared machine is noisy, so the guard samples
checked+batch pairs (best-of, early exit) and compares *ratios* measured
in the same process on the same arrival tape; a machine-wide slowdown
hits both kernels and cancels.  Bit-identity of the statistics is
asserted on the side — a fast degenerate window that diverges is
worthless.
"""

import time

from conftest import show

from repro.core import (
    BatchRenewalSource,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    make_pipelined_switch,
)
from repro.sim.packet import reset_packet_ids
from repro.switches.harness import format_table

CYCLES = 60_000  # relative guard: both kernels run the same horizon
MIN_SPEEDUP = 2.77  # batch_cycles=1 must run at least 2.77x checked
MAX_REPEATS = 6


def _build(kernel: str, batch_cycles: int | None = None):
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=8, addresses=128)
    src = BatchRenewalSource(n_out=8, packet_words=cfg.packet_words,
                             load=0.6, seed=1)
    if kernel == "checked":
        return PipelinedSwitch(cfg, src)
    return make_pipelined_switch(cfg, src, kernel="batch",
                                 batch_cycles=batch_cycles)


def _throughput(kernel: str, batch_cycles: int | None = None):
    sw = _build(kernel, batch_cycles)
    t0 = time.perf_counter()
    sw.run(CYCLES)
    sw.drain()
    elapsed = time.perf_counter() - t0
    return sw.cycle / elapsed, sw


def _fingerprint(sw) -> tuple:
    return (sw.stats, sw.ct_latency, sw.total_latency, sw.cycle,
            sw.write_waves, sw.cut_through_waves, sw.plain_read_waves,
            sw.idle_cycles, sw.overrun_drops)


def _experiment():
    best_checked = best_b1 = best_ratio = 0.0
    fp_checked = fp_b1 = None
    for _ in range(MAX_REPEATS):
        checked, sw_checked = _throughput("checked")
        b1, sw_b1 = _throughput("batch", batch_cycles=1)
        fp_checked, fp_b1 = _fingerprint(sw_checked), _fingerprint(sw_b1)
        best_checked = max(best_checked, checked)
        best_b1 = max(best_b1, b1)
        best_ratio = max(best_ratio, best_b1 / best_checked)
        if best_ratio >= MIN_SPEEDUP:
            break
    big, sw_big = _throughput("batch", batch_cycles=4096)
    assert _fingerprint(sw_big) == fp_checked
    return best_checked, best_b1, best_ratio, big, fp_checked, fp_b1


def test_e17_batch_window_overhead(run_once):
    checked, b1, ratio, big, fp_checked, fp_b1 = run_once(_experiment)
    assert fp_b1 == fp_checked, (
        "batch_cycles=1 statistics diverge from the checked kernel")
    rows = [
        ["checked (reference)", round(checked), "1.00x"],
        ["batch, batch_cycles=1 (degenerate)", round(b1), f"{ratio:.2f}x"],
        ["batch, batch_cycles=4096", round(big), f"{big / checked:.2f}x"],
    ]
    show(format_table(
        ["E15 8x8 load 0.6 drop-tail (tape)", "cycles/sec", "vs checked"],
        rows,
        title="E17: batch-window overhead (batch_cycles=1 guarded at "
              f">={MIN_SPEEDUP:.2f}x the checked kernel)",
    ))
    assert ratio >= MIN_SPEEDUP, (
        f"batch kernel at batch_cycles=1 reached {b1:.0f} cycles/sec, "
        f"{ratio:.2f}x the checked kernel ({checked:.0f}) — per-window "
        f"overhead exceeds the {MIN_SPEEDUP:.2f}x floor"
    )
