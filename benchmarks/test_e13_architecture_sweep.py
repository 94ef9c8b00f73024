"""E13 — The architecture ranking (paper §2, conclusion).

"Shared (centralized) buffering is the best architecture ... shared
buffering should be the architecture of choice."  One sweep, identical
traffic machinery: saturation throughput and delay at 0.8 load for every
§2 architecture, plus the word-level pipelined switch itself, which must
match the idealized shared buffer it implements.
"""

from conftest import show

from repro.core import PipelinedSwitch, PipelinedSwitchConfig, RenewalPacketSource
from repro.switches import (
    BlockCrosspoint,
    CrosspointQueued,
    FifoInputQueued,
    Islip,
    OutputQueued,
    SharedBuffer,
    SpeedupSwitch,
    VoqInputBuffered,
)
from repro.switches.harness import (
    format_table,
    run_switch,
    saturation_throughput,
    uniform_source_factory,
)

N = 8
SLOTS = 20_000

ARCHITECTURES = {
    "FIFO input queueing": lambda: FifoInputQueued(N, N, seed=1),
    "VOQ + iSLIP": lambda: VoqInputBuffered(N, N, Islip(iterations=4)),
    "speedup-2 + output queues": lambda: SpeedupSwitch(N, N, speedup=2, seed=1),
    "crosspoint queueing": lambda: CrosspointQueued(N, N, seed=1),
    "block-crosspoint (2x2 blocks)": lambda: BlockCrosspoint(N, N, block=4, seed=1),
    "output queueing": lambda: OutputQueued(N, N, seed=1),
    "shared buffering (ideal)": lambda: SharedBuffer(N, N, seed=1),
}


def _pipelined_point():
    cfg = PipelinedSwitchConfig(n=N, addresses=256, credit_flow=True)
    b = cfg.packet_words
    sat_sw = PipelinedSwitch(
        cfg, RenewalPacketSource(n_out=N, packet_words=b, load=1.0, seed=2)
    )
    sat_sw.warmup = 4000
    sat_sw.run(SLOTS * b // 2)
    cfg2 = PipelinedSwitchConfig(n=N, addresses=256, credit_flow=True)
    lat_sw = PipelinedSwitch(
        cfg2, RenewalPacketSource(n_out=N, packet_words=b, load=0.8, seed=3)
    )
    lat_sw.warmup = 4000
    lat_sw.run(SLOTS * b // 2)
    # delay in slot units (packet times) for comparability
    return sat_sw.link_utilization, (lat_sw.ct_latency.mean - 2.0) / b


def _experiment():
    # fast=True batches the traffic draws (different sample path, same
    # distribution) — the asserts below all carry statistical margin.
    f = uniform_source_factory(N, N)
    rows = []
    for name, factory in ARCHITECTURES.items():
        sat = saturation_throughput(factory, f, slots=SLOTS, fast=True)
        sw = factory()
        sw.stats.warmup = SLOTS // 5
        delay = run_switch(sw, f(0.8, 7), SLOTS, fast=True).mean_delay
        rows.append([name, sat, delay])
    sat_p, delay_p = _pipelined_point()
    rows.append(["pipelined memory (word-level)", sat_p, delay_p])
    return rows


def test_e13_architecture_sweep(run_once):
    rows = run_once(_experiment)
    show(format_table(
        ["architecture", "saturation throughput", "mean delay @ 0.8 (packet times)"],
        rows,
        title=f"E13: architecture ranking, {N}x{N}, uniform traffic",
    ))
    by_name = {r[0]: (r[1], r[2]) for r in rows}
    # FIFO input queueing is the clear loser (the paper's premise):
    assert by_name["FIFO input queueing"][0] < 0.65
    # Everything work-conserving saturates near 1:
    for name in ("crosspoint queueing", "output queueing", "shared buffering (ideal)",
                 "speedup-2 + output queues", "block-crosspoint (2x2 blocks)"):
        assert by_name[name][0] > 0.93, name
    # The pipelined implementation matches the ideal shared buffer:
    assert by_name["pipelined memory (word-level)"][0] > 0.93
    # Output/shared queueing beat scheduled input buffering on delay:
    assert by_name["output queueing"][1] < by_name["VOQ + iSLIP"][1]
    assert abs(by_name["output queueing"][1] - by_name["shared buffering (ideal)"][1]) < 0.5
