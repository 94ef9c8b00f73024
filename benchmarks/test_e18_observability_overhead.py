"""E18 — Observability-off overhead guard (fast AND batch kernels).

The observability plane (sampled tracing, series ring, metrics endpoint)
must be free when it is off.  With no `trace_sample`, no `series` and no
endpoint, the Telemetry bundle is the same null object PR 6 guaranteed:
`_tel` is False, the batch kernel keeps its lean/array engines, and not
one extra branch runs per cycle.  This guard pins that claim to the
recorded BENCH_fastpath.json numbers for BOTH accelerated kernels.

Acceptance, per kernel:

* **fast** — E16's mechanics verbatim: best-of sampling with early exit,
  and EITHER the absolute cycles/sec floor OR the checked-relative
  speedup floor within 5% of BENCH_fastpath.json.
* **batch** — the recorded ``batch_cycles_per_sec`` is a best-of taken in
  a standalone process; under the pytest harness the identical code
  measures ~5-10% lower, so a 5% cross-environment floor would flake on
  noise, not regressions.  The 5% claim is instead held by a noise-paired
  in-process A/B: telemetry ``None`` vs a fresh present-but-disabled
  bundle (the exact null-object contract this PR extends) must agree
  within 5%.  Two backstops catch what the pairing cannot —
  a regression that slows both arms equally:

  - structural: the disabled bundle must keep ``_tel`` False and leave
    the lean/array engine gate selected (the realistic failure mode —
    observability leaking into ``enabled`` — demotes the kernel to the
    ~4x-slower general engine);
  - coarse throughput: best-of ≥ 60% of the recorded number, OR the
    batch/fast ratio ≥ 60% of the recorded ratio (a machine-wide
    slowdown divides out of the ratio).  The general engine sits at
    well under half of either floor — far outside harness noise.

Refresh baselines with ``PYTHONPATH=src python benchmarks/record.py``
when moving machines.
"""

import json
import time
from pathlib import Path

from conftest import show

from repro.core import (
    BatchRenewalSource,
    FastPipelinedSwitch,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    RenewalPacketSource,
    make_pipelined_switch,
)
from repro.obs.sampling import SampledEventLog
from repro.obs.series import SeriesRing
from repro.sim.packet import reset_packet_ids
from repro.switches.harness import format_table
from repro.telemetry import (
    NullEventLog,
    NullMetricsRegistry,
    Telemetry,
)

BENCH_PATH = Path(__file__).parent / "BENCH_fastpath.json"
BASELINE_EXPERIMENT = "E15 8x8 load 0.6 drop-tail"
MAX_SLOWDOWN = 0.05  # observability fully off may cost at most 5%
# Coarse throughput backstop for the batch kernel: the general engine
# runs at roughly a quarter of the lean engine's throughput, so 60% of
# the recorded number (or of the recorded batch/fast ratio) cleanly
# separates "harness noise" from "engine demoted".
BATCH_BACKSTOP = 0.60
CYCLES = 150_000  # checked/fast: must match record.py's horizon
# The batch kernel clears 150k cycles in ~0.15s — short enough that
# scheduling noise swings single runs by 15%.  Throughput is measured over
# a longer run (cycles/sec is horizon-independent once window setup
# amortizes), which tightens the distribution well inside the 5% guard.
BATCH_CYCLES = 600_000
MAX_REPEATS = 6


def _build(kernel: str, telemetry=None):
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=8, addresses=128)
    if kernel == "batch":
        # the batch baseline was recorded on the tape source
        src = BatchRenewalSource(n_out=8, packet_words=cfg.packet_words,
                                 load=0.6, seed=1)
        return make_pipelined_switch(cfg, src, telemetry=telemetry,
                                     kernel="batch", batch_cycles=65536)
    src = RenewalPacketSource(n_out=8, packet_words=cfg.packet_words,
                              load=0.6, seed=1)
    cls = PipelinedSwitch if kernel == "checked" else FastPipelinedSwitch
    return cls(cfg, src, telemetry=telemetry)


def _throughput(kernel: str, telemetry=None) -> float:
    sw = _build(kernel, telemetry)
    cycles = BATCH_CYCLES if kernel == "batch" else CYCLES
    t0 = time.perf_counter()
    sw.run(cycles)
    sw.drain()
    return sw.cycle / (time.perf_counter() - t0)


def _obs_on() -> Telemetry:
    return Telemetry.on(sample_interval=64,
                        events=SampledEventLog(0.05, seed=1),
                        series=SeriesRing(capacity=1024))


def _obs_off() -> Telemetry:
    """A *fresh* disabled bundle — not the shared ``NULL_TELEMETRY``
    singleton that ``telemetry=None`` resolves to — so the A/B proves the
    kernels gate on ``enabled``, not on bundle identity."""
    return Telemetry(NullMetricsRegistry(), NullEventLog(), 0)


def _experiment():
    stored = json.loads(BENCH_PATH.read_text())
    row = next(r for r in stored["results"]
               if r["experiment"] == BASELINE_EXPERIMENT)
    fast_floor = row["fast_cycles_per_sec"]
    fast_rel = row["speedup"]
    batch_floor = row["batch"]["batch_cycles_per_sec"]
    floor = 1.0 - MAX_SLOWDOWN

    # fast kernel: E16's best-of with early exit on either axis; the
    # ratio is taken per back-to-back pair so a noisy window that hits
    # both kernels cancels, and the best pair across repeats is kept
    checked = fast_best = fast_ratio = 0.0
    for _ in range(MAX_REPEATS):
        c = _throughput("checked")
        f = _throughput("fast")
        checked = max(checked, c)
        fast_best = max(fast_best, f)
        fast_ratio = max(fast_ratio, f / c)
        if fast_best >= floor * fast_floor or fast_ratio >= floor * fast_rel:
            break

    # batch kernel: structural gate — a present-but-disabled bundle must
    # leave the lean engine selected, exactly like telemetry=None
    disabled = _obs_off()
    probe = _build("batch", disabled)
    assert not disabled.enabled
    assert probe._tel is False, (
        "a disabled Telemetry bundle set the batch kernel's _tel gate; "
        "every per-window observability branch now runs"
    )
    assert probe._lean, (
        "a disabled Telemetry bundle demoted the batch kernel to its "
        "general engine (~4x slower); the off path is no longer free"
    )

    # batch kernel: noise-paired A/B, interleaved so both arms see the
    # same machine state, plus the coarse throughput backstop (absolute
    # or fast-relative — a machine-wide slowdown divides out of the ratio)
    batch_rel = batch_floor / fast_floor
    batch_none = batch_dis = 0.0
    for _ in range(MAX_REPEATS):
        batch_none = max(batch_none, _throughput("batch"))
        batch_dis = max(batch_dis, _throughput("batch", _obs_off()))
        if (batch_dis >= floor * batch_none
                and (batch_none >= BATCH_BACKSTOP * batch_floor
                     or batch_none / fast_best >= BATCH_BACKSTOP * batch_rel)):
            break

    on = {k: _throughput(k, _obs_on()) for k in ("fast", "batch")}
    return {
        "fast_floor": fast_floor, "fast_rel": fast_rel,
        "batch_floor": batch_floor, "batch_rel": batch_rel,
        "checked": checked, "fast_best": fast_best,
        "fast_ratio": fast_ratio, "batch_none": batch_none,
        "batch_dis": batch_dis, "on": on,
    }


def test_e18_observability_off_overhead(run_once):
    m = run_once(_experiment)
    floor = 1.0 - MAX_SLOWDOWN
    pair = m["batch_dis"] / m["batch_none"]
    rows = [
        ["checked kernel (reference)", round(m["checked"]), "-"],
        ["fast, observability off (default)", round(m["fast_best"]),
         f"{m['fast_ratio']:.2f}x checked (recorded {m['fast_rel']:.2f}x "
         f"@ {m['fast_floor']} c/s)"],
        ["fast, tracing+series on", round(m["on"]["fast"]),
         f"{m['on']['fast'] / m['checked']:.2f}x checked"],
        ["batch, telemetry=None", round(m["batch_none"]),
         f"recorded {m['batch_floor']} c/s"],
        ["batch, disabled Telemetry()", round(m["batch_dis"]),
         f"{pair:.3f}x of telemetry=None"],
        ["batch, tracing+series on", round(m["on"]["batch"]),
         f"{m['on']['batch'] / m['checked']:.2f}x checked"],
    ]
    show(format_table(
        ["E15 8x8 load 0.6 drop-tail", "cycles/sec", "vs baseline"],
        rows,
        title="E18: observability overhead (off path guarded at "
              f"<{MAX_SLOWDOWN:.0%}, both accelerated kernels)",
    ))

    assert (m["fast_best"] >= floor * m["fast_floor"]
            or m["fast_ratio"] >= floor * m["fast_rel"]), (
        f"fast kernel with observability fully off reached "
        f"{m['fast_best']:.0f} cycles/sec ({m['fast_ratio']:.2f}x checked) "
        f"vs the recorded {m['fast_floor']} cycles/sec "
        f"({m['fast_rel']:.2f}x) — more than {MAX_SLOWDOWN:.0%} down on "
        "both axes; the disabled observability path is no longer free "
        "(re-run benchmarks/record.py if on a new machine)"
    )
    assert m["batch_dis"] >= floor * m["batch_none"], (
        f"batch kernel with a disabled Telemetry bundle reached "
        f"{m['batch_dis']:.0f} cycles/sec vs {m['batch_none']:.0f} with "
        f"telemetry=None ({pair:.3f}x) — the present-but-disabled "
        f"observability plane costs more than {MAX_SLOWDOWN:.0%}"
    )
    assert (m["batch_none"] >= BATCH_BACKSTOP * m["batch_floor"]
            or m["batch_none"] / m["fast_best"]
            >= BATCH_BACKSTOP * m["batch_rel"]), (
        f"batch kernel reached {m['batch_none']:.0f} cycles/sec "
        f"({m['batch_none'] / m['fast_best']:.2f}x fast) vs the recorded "
        f"{m['batch_floor']} ({m['batch_rel']:.2f}x fast) — below the "
        f"{BATCH_BACKSTOP:.0%} backstop on both axes, far outside "
        "harness noise (general-engine fallback? re-run "
        "benchmarks/record.py if on a new machine)"
    )
    # with tracing+series on the accelerated kernels still clearly beat
    # the checked kernel (the batch kernel falls back to its general
    # engine, so the bar is lower than its lean-engine ratio)
    for kernel in ("fast", "batch"):
        assert m["on"][kernel] > 2.0 * m["checked"]
