"""Record checked/batch kernel timings into BENCH_fastpath.json.

Runs the E15-shaped functional workloads and the E13-shaped pipelined
operating points with the checked model and writes per-experiment wall
time and cycles/sec.  Workloads the batch kernel supports (tape-consumable
traffic, with or without input credits) are additionally run on their
tape variant — the arrival tape is replayed through both kernels, the
batch kernel's statistics must match the checked kernel's bit for bit,
and the row's ``batch`` block records its timing and speedup; rows it
refuses (saturating traffic under credit flow) record ``batch: null``
with its refusal reason.

The timed runs keep telemetry at its default (off) so the recorded numbers
track the kernels themselves; a separate short telemetry-on pass per
batch row checks that the kernels' event streams, metric registries and
occupancy-vs-cycle samples are identical, and its summary is stored under
the row's ``batch_telemetry`` key.

Usage::

    PYTHONPATH=src python benchmarks/record.py          # full horizons
    PYTHONPATH=src python benchmarks/record.py --smoke  # ~30 s CI smoke run
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import time
from pathlib import Path

from repro.core.batchpath import batch_refusal
from repro.scenario import Scenario, prepare
from repro.telemetry import Telemetry

OUT_PATH = Path(__file__).parent / "BENCH_fastpath.json"

TELEMETRY_SAMPLE_INTERVAL = 64

#: arch name per kernel key (record rows use the kernel keys)
ARCHES = {"checked": "pipelined", "batch": "pipelined_batch"}

#: timing repeats for the sub-second batch kernel (wall time on a shared
#: machine is at the mercy of scheduling noise; keep the cleanest run)
BATCH_REPEATS = 10

#: batch window used for the timed batch runs — large windows amortize the
#: per-window state hoist/write-back
BATCH_WINDOW = 65_536


def _fingerprint(sw) -> dict:
    """Everything the kernels must agree on, bit for bit."""
    return {
        "stats": sw.stats,
        "ct_latency": sw.ct_latency,
        "ct_latency_hist": sw.ct_latency_hist,
        "total_latency": sw.total_latency,
        "stagger_extra": sw.stagger_extra,
        "cut_through_waves": sw.cut_through_waves,
        "plain_read_waves": sw.plain_read_waves,
        "write_waves": sw.write_waves,
        "idle_cycles": sw.idle_cycles,
        "deadline_overrides": sw.deadline_overrides,
        "overrun_drops": sw.overrun_drops,
        "cycle": sw.cycle,
    }


def _run(scenario: Scenario, kernel: str, telemetry: Telemetry | None = None):
    """Build one kernel through the scenario registry, run it, time it."""
    params = dict(scenario.params)
    if kernel == "batch":
        params["batch_cycles"] = BATCH_WINDOW
    sc = dataclasses.replace(scenario, arch=ARCHES[kernel], params=params)
    sw = prepare(sc, telemetry=telemetry).switch
    t0 = time.perf_counter()
    sw.run(sc.horizon)
    if sc.drain:
        sw.drain()
    elapsed = time.perf_counter() - t0
    return sw, elapsed


def _assert_identical(name: str, want: dict, got: dict, kernel: str) -> None:
    for key, w in want.items():
        g = got[key]
        assert g == w, f"{name}: {key} mismatch\n  checked={w}\n  {kernel}={g}"


def _telemetry_pass(scenario: Scenario, cycles: int,
                    kernels: tuple[str, ...]) -> dict:
    """Short telemetry-on run of each kernel; assert stream equivalence and
    return the occupancy-vs-cycle summary for the record."""
    short = dataclasses.replace(scenario, horizon=cycles)
    tels = {}
    for kernel in kernels:
        tels[kernel] = Telemetry.on(sample_interval=TELEMETRY_SAMPLE_INTERVAL)
        _run(short, kernel, telemetry=tels[kernel])
    ref = tels["checked"]
    for kernel in kernels[1:]:
        tel = tels[kernel]
        assert ref.events.sorted_events() == tel.events.sorted_events(), \
            f"checked/{kernel} event streams diverge"
        assert ref.drop_taxonomy() == tel.drop_taxonomy()
        assert ref.samples == tel.samples, \
            f"checked/{kernel} occupancy samples diverge"
        assert ref.metrics.as_dict() == tel.metrics.as_dict()
    return {
        "events": len(ref.events),
        "drop_taxonomy": ref.drop_taxonomy(),
        "occupancy": ref.occupancy_series(),
        "equivalent": True,
        "kernels": list(kernels),
    }


def _batch_refusal(scenario: Scenario) -> str | None:
    """Why the batch kernel cannot run this workload's tape variant, or
    None if it can."""
    checked = prepare(_tape_variant(scenario)).switch
    return batch_refusal(checked.config, checked.source)


def _experiments(scale: int) -> list[Scenario]:
    """One Scenario per workload (arch is swapped per kernel by ``_run``).

    ``warmup=0`` everywhere: these fingerprints predate the scenario layer
    and its horizon//5 default, and must stay bit-identical to the seed
    BENCH_fastpath.json numbers.
    """
    e13_params = {"n": 8, "addresses": 256, "credit_flow": True}
    b = 2 * e13_params["n"]  # packet_words = depth (= 2n) * quanta
    e13_cycles = (20_000 * b // 2) // scale

    def sc(name, params, traffic, cycles, drain, seed):
        return Scenario(name=name, arch="pipelined", horizon=cycles,
                        params=params, traffic=traffic, seeds=[seed],
                        warmup=0, drain=drain)

    return [
        sc("E15 8x8 load 0.6 drop-tail", {"n": 8, "addresses": 128},
           {"kind": "renewal", "load": 0.6}, 150_000 // scale, True, 1),
        sc("E15 8x8 saturated credits",
           {"n": 8, "addresses": 64, "credit_flow": True},
           {"kind": "saturating", "load": 1.0}, 150_000 // scale, False, 2),
        sc("E15 4x4 saturated tiny buffer", {"n": 4, "addresses": 8},
           {"kind": "saturating", "load": 1.0}, 100_000 // scale, True, 3),
        sc("E13 pipelined saturation point", e13_params,
           {"kind": "renewal", "load": 1.0}, e13_cycles, False, 2),
        sc("E13 pipelined latency point", e13_params,
           {"kind": "renewal", "load": 0.8}, e13_cycles, False, 3),
    ]


def _tape_variant(scenario: Scenario) -> Scenario:
    """The same workload on a tape-consumable source (see BatchRenewalSource:
    renewal traffic is re-drawn as per-link tapes; saturating is already
    batchable, so the scenario passes through unchanged)."""
    if scenario.traffic.kind == "renewal":
        traffic = {"kind": "renewal_tape", "load": scenario.traffic.load}
        return dataclasses.replace(scenario, traffic=traffic)
    return scenario


def _record_batch(scenario: Scenario, results: dict) -> None:
    """Checked and batch runs on the tape workload; record batch timing,
    speedup over the checked run on the same tape, and identity.

    The tape variant of a renewal workload is a *different* arrival stream
    (per-link spawned RNGs), so the checked kernel is re-run on it to
    anchor the bit-identity assertion and the speedup.
    """
    reason = _batch_refusal(scenario)
    if reason is not None:
        results["batch"] = None
        results["batch_unsupported"] = reason
        return
    tape_sc = _tape_variant(scenario)
    checked, t_checked = _run(tape_sc, "checked")
    batch, t_batch = _run(tape_sc, "batch")
    for _ in range(BATCH_REPEATS - 1):
        _, t_retry = _run(tape_sc, "batch")
        t_batch = min(t_batch, t_retry)
    fp = _fingerprint(checked)
    _assert_identical(tape_sc.name, fp, _fingerprint(batch), "batch")
    total_cycles = fp["cycle"]
    results["batch"] = {
        "traffic": tape_sc.traffic.kind,
        "cycles": total_cycles,
        "batch_window": BATCH_WINDOW,
        "batch_seconds": round(t_batch, 4),
        "batch_cycles_per_sec": round(total_cycles / t_batch),
        "batch_speedup": round(t_checked / t_batch, 2),
        "delivered": fp["stats"].delivered,
        "dropped": fp["stats"].dropped,
        "identical": True,
    }
    results["batch_telemetry"] = _telemetry_pass(
        tape_sc, max(tape_sc.horizon // 10, 1000),
        ("checked", "batch"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="scale horizons down ~20x for a quick CI check")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    scale = 20 if args.smoke else 1

    results = []
    for scenario in _experiments(scale):
        name = scenario.name
        slow, t_slow = _run(scenario, "checked")
        fp_slow = _fingerprint(slow)
        total_cycles = fp_slow["cycle"]  # includes drain cycles
        row = {
            "experiment": name,
            "traffic": scenario.traffic.kind,
            "cycles": total_cycles,
            "checked_seconds": round(t_slow, 4),
            "checked_cycles_per_sec": round(total_cycles / t_slow),
            "delivered": fp_slow["stats"].delivered,
            "dropped": fp_slow["stats"].dropped,
        }
        _record_batch(scenario, row)
        results.append(row)
        batch_note = "batch unsupported"
        if row["batch"] is not None:
            batch_note = (
                f"batch {row['batch']['batch_cycles_per_sec']:,} c/s "
                f"({row['batch']['batch_speedup']:.0f}x), stats identical, "
                f"telemetry equivalent "
                f"({row['batch_telemetry']['events']} events)")
        print(f"{name:34s} checked {t_slow:7.2f}s, {batch_note}")

    payload = {
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    rc = 0
    batch_rates = [r["batch"]["batch_cycles_per_sec"]
                   for r in results if r.get("batch")]
    if batch_rates:
        print(f"peak batch kernel rate: {max(batch_rates):,} cycles/sec")
        if not args.smoke and max(batch_rates) < 1_000_000:
            print("WARNING: batch kernel below the 1M cycles/sec target")
            rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
