"""E15 — Functional verification of the wave machinery (paper §3.2-§3.3,
figures 4 and 5).

This bench is the "does the datapath actually work" experiment the FPGA
prototype answered in the lab: long randomized runs of the word-level switch
with every structural check armed (single-ported banks, tristate buses,
latch overruns, output-register loads, control pipelining), under cut-through
and at saturation, with credit flow control and with drop-tail.  The bench
reports wave statistics; any violation raises.
"""

from conftest import show

from repro.core import (
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    SaturatingSource,
)
from repro.switches.harness import format_table


def _run(name, cfg, src, cycles):
    # The checked kernel, with every structural check armed.
    sw = PipelinedSwitch(cfg, src)
    # No warmup: the wave counters cover the whole run, so the conservation
    # identities below must hold exactly.
    sw.run(cycles)
    if not cfg.credit_flow:
        sw.drain()
    return [
        name,
        sw.stats.offered,
        sw.stats.delivered,
        sw.stats.dropped,
        sw.cut_through_waves,
        sw.plain_read_waves,
        sw.write_waves,
        round(sw.link_utilization, 3),
    ]


def _experiment():
    rows = []
    cfg = PipelinedSwitchConfig(n=8, addresses=128)
    rows.append(_run(
        "8x8 load 0.6 drop-tail",
        cfg,
        RenewalPacketSource(n_out=8, packet_words=cfg.packet_words, load=0.6, seed=1),
        150_000,
    ))
    cfg = PipelinedSwitchConfig(n=8, addresses=64, credit_flow=True)
    rows.append(_run(
        "8x8 saturated credits",
        cfg,
        SaturatingSource(n_out=8, packet_words=cfg.packet_words, seed=2),
        150_000,
    ))
    cfg = PipelinedSwitchConfig(n=4, addresses=8)
    rows.append(_run(
        "4x4 saturated tiny buffer",
        cfg,
        SaturatingSource(n_out=4, packet_words=cfg.packet_words, seed=3),
        100_000,
    ))
    return rows


def test_e15_functional_waves(run_once):
    rows = run_once(_experiment)
    show(format_table(
        ["scenario", "offered", "delivered", "dropped", "CT waves",
         "read waves", "write waves", "utilization"],
        rows,
        title="E15: wave-machinery functional verification (no structural "
              "violation over ~400k cycles)",
    ))
    for row in rows:
        name, offered, delivered, dropped = row[0], row[1], row[2], row[3]
        ct, reads, writes = row[4], row[5], row[6]
        # conservation: every delivered packet = one departure wave; waves
        # for packets still in flight at the horizon (undrained runs) may
        # lead deliveries by at most one per output link.
        in_flight = ct + reads - delivered
        assert 0 <= in_flight <= 16, name
        if "credits" in name:
            assert dropped == 0
        if "drop-tail" in name:
            assert dropped == 0  # ample buffer at 0.6 load
            assert delivered == offered  # fully drained
            assert in_flight == 0
    # cut-through carries a substantial share of departures at 0.6 load
    # (it dominates at light load; see tests/core/test_split_buffer.py)
    assert rows[0][4] > 0.3 * rows[0][2]
